//! Property-based tests for the simulation kit (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq};
use simkit::event::HORIZON;
use simkit::{EventQueue, KeyedMinHeap, SimRng, SimTime, Zipfian};

#[path = "support/heap_queue.rs"]
mod heap_queue;
use heap_queue::HeapQueue;

/// Popping the event queue always yields non-decreasing times, and events
/// pushed with equal times come out in push order.
#[test]
fn event_queue_total_order() {
    check("event_queue_total_order", |c| {
        let times = c.vec_of(1, 200, |c| c.u64_in(0, 1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_nanos(t));
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "FIFO violated within equal timestamps");
                }
            }
            last = Some((at, i));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
        Ok(())
    });
}

/// How far the near lane reaches past the last popped time, in ns.
const HORIZON_NS: u64 = HORIZON.as_nanos();

/// The two-lane [`EventQueue`] is order-equivalent to the single-heap
/// reference ([`HeapQueue`]) under random push/pop interleavings whose
/// deltas deliberately straddle the lanes' horizon: from 0 ns up to
/// hundreds of milliseconds ahead of (and occasionally behind) the drain
/// point. Mid steps land up to twice the horizon ahead, on both sides of
/// it. Quiet-gap steps drain everything before the horizon and then push
/// only at or past it, so the near lane empties and far timers migrate in
/// across many horizons over a script of up to ~2 000 steps. Two step
/// classes push at exactly the last popped time, as the simulator's core
/// dispatches do, singly and in batches mixed with later (and now and
/// then earlier) items, so the near lane takes inserts next to its tail
/// and equal times must keep push order; a rare step clears or
/// arena-resets a non-empty queue.
#[test]
fn event_queue_matches_heap_reference() {
    use simkit::arena::ArenaReset;
    check("event_queue_matches_heap_reference", |c| {
        let steps = c.vec_of(1, 2000, |c| {
            // (is_pop, horizon-class, delta-within-class)
            let pop = c.bool_with(0.45);
            let class = c.u32_in(0, 8);
            let delta = c.u64_in(0, 4095);
            (pop, class, delta)
        });
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference: HeapQueue<u64> = HeapQueue::new();
        // `now` trails the largest popped time, as in a simulation — but
        // pushes may also land up to ~1 ms *behind* it (class 3), at the
        // near lane's tail, and popping them must not pull the horizon
        // back. `last` is the last popped time, pulled back by any push
        // behind it, so same-instant pushes follow a push behind the drain
        // point at its time.
        let mut now: u64 = 0;
        let mut last: u64 = 0;
        for (i, &(pop, class, delta)) in steps.iter().enumerate() {
            // Unique payloads: a batch tags its items tag + 0..8.
            let tag = i as u64 * 8;
            if pop {
                let a = queue.pop();
                let b = reference.pop();
                prop_assert_eq!(a, b, "pop #{i} diverged: queue={a:?} reference={b:?}");
                if let Some((t, _)) = a {
                    last = t.as_nanos();
                    now = now.max(last);
                }
            } else if class == 4 {
                // Quiet gap: drain the near work, then arm one timer at
                // the horizon or up to ~4 horizons past it.
                while reference
                    .peek_time()
                    .is_some_and(|t| t.as_nanos() < now + HORIZON_NS)
                {
                    let a = queue.pop();
                    let b = reference.pop();
                    prop_assert_eq!(a, b, "gap drain at step #{i} diverged");
                    last = a.expect("peeked").0.as_nanos();
                    now = now.max(last);
                }
                let at = now + HORIZON_NS + (delta << 10);
                queue.push(SimTime::from_nanos(at), tag);
                reference.push(SimTime::from_nanos(at), tag);
            } else if class == 6 {
                // Batch of 1–6 items, each at the last popped time or up
                // to ~4 µs past `now`; one batch in 64 also holds an item
                // behind the last popped time.
                let mut items: Vec<(SimTime, u64)> = (0..1 + delta % 6)
                    .map(|k| {
                        let at = if delta >> (3 + k) & 1 == 1 {
                            last
                        } else {
                            now + ((delta >> k) & 0xfff)
                        };
                        (SimTime::from_nanos(at), tag + k)
                    })
                    .collect();
                if delta % 64 == 63 {
                    let behind = SimTime::from_nanos(last.saturating_sub(delta));
                    items.insert(1, (behind, tag + 7));
                }
                queue.push_batch(items.iter().copied());
                for (at, e) in items {
                    reference.push(at, e);
                    last = last.min(at.as_nanos());
                }
            } else if class == 7 && delta % 32 == 0 {
                // Rare: drop everything, often with events at `last` queued.
                if delta % 64 == 0 {
                    queue.clear();
                    reference.clear();
                } else {
                    queue.arena_reset();
                    reference = HeapQueue::new();
                    (now, last) = (0, 0);
                }
            } else {
                let at = match class {
                    0 => now + delta,                    // near: ≤ ~4 µs ahead
                    1 => now + (delta << 9),             // mid: ≤ ~2 ms ahead
                    2 => now + (delta << 16),            // far: ≤ ~268 ms ahead
                    3 => now.saturating_sub(delta << 8), // ≤ ~1 ms behind
                    _ => last,                           // same instant (5, 7)
                };
                queue.push(SimTime::from_nanos(at), tag);
                reference.push(SimTime::from_nanos(at), tag);
                last = last.min(at);
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.peek_time(), reference.peek_time());
        }
        // Drain both to empty: the tails must agree too.
        loop {
            let a = queue.pop();
            let b = reference.pop();
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue.pushed_total(), reference.pushed_total());
        Ok(())
    });
}

/// The keyed heap's top always carries the minimal key, before and after
/// arbitrary resorts.
#[test]
fn keyed_heap_top_is_min() {
    check("keyed_heap_top_is_min", |c| {
        let keys = c.vec_of(1, 64, |c| c.u32_in(0, 10_000));
        let reseed = c.u64_in(0, 1000);
        let mut h = KeyedMinHeap::new();
        for (i, &k) in keys.iter().enumerate() {
            h.insert(i, k as f64);
        }
        let min = *keys.iter().min().unwrap() as f64;
        prop_assert_eq!(h.top_key(), Some(min));

        // Resort with a pseudo-random reassignment and re-check.
        let mut rng = SimRng::new(reseed);
        let new_keys: Vec<f64> = (0..keys.len())
            .map(|_| rng.gen_range(10_000) as f64)
            .collect();
        h.resort_with(|id| new_keys[id]);
        let new_min = new_keys.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(h.top_key(), Some(new_min));
        Ok(())
    });
}

/// `gen_range` stays in bounds for any bound.
#[test]
fn rng_gen_range_bounds() {
    check("rng_gen_range_bounds", |c| {
        let seed = c.any_u64();
        let bound = c.u64_in(1, 1_000_000);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
        Ok(())
    });
}

/// Identical seeds replay identical streams.
#[test]
fn rng_replay() {
    check("rng_replay", |c| {
        let seed = c.any_u64();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        Ok(())
    });
}

/// Zipfian samples stay within `[0, n)` for any domain and skew.
#[test]
fn zipfian_within_range() {
    check("zipfian_within_range", |c| {
        let n = c.u64_in(1, 100_000);
        let theta = c.f64_unit() * 0.98 + 0.01; // theta ∈ (0, 1)
        let seed = c.any_u64();
        let z = Zipfian::new(n, theta);
        prop_assert_eq!(z.domain(), n);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        Ok(())
    });
}

/// The generational [`Slab`] agrees with a `HashMap<raw-id, value>` oracle
/// under random alloc/free/realloc interleavings, and — the ABA property the
/// request map depends on — a retired handle NEVER aliases a live value,
/// even after its slot has been recycled arbitrarily many times.
#[test]
fn slab_matches_hashmap_oracle() {
    use simkit::{Slab, SlotId};
    use std::collections::HashMap;
    check("slab_matches_hashmap_oracle", |c| {
        let steps = c.vec_of(1, 400, |c| {
            // (op-class, payload)
            (c.u32_in(0, 99), c.u64_in(0, u64::MAX / 2))
        });
        let mut slab: Slab<u64> = Slab::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut live: Vec<SlotId> = Vec::new();
        let mut retired: Vec<SlotId> = Vec::new();
        let mut peak_live = 0usize;
        for &(op, payload) in &steps {
            match op {
                // ~45 %: insert.
                0..=44 => {
                    let id = slab.insert(payload);
                    prop_assert!(
                        oracle.insert(id.to_raw(), payload).is_none(),
                        "insert returned a raw id that is already live"
                    );
                    live.push(id);
                    peak_live = peak_live.max(live.len());
                }
                // ~35 %: remove a random live handle (if any).
                45..=79 => {
                    if live.is_empty() {
                        continue;
                    }
                    let pick = payload as usize % live.len();
                    let id = live.swap_remove(pick);
                    let expect = oracle.remove(&id.to_raw());
                    prop_assert_eq!(slab.remove(id), expect);
                    // Double-free must be rejected.
                    prop_assert_eq!(slab.remove(id), None);
                    retired.push(id);
                }
                // ~10 %: read a random live handle.
                80..=89 => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[payload as usize % live.len()];
                    prop_assert_eq!(slab.get(id).copied(), oracle.get(&id.to_raw()).copied());
                }
                // ~10 %: a stale (retired) handle must stay dead forever.
                _ => {
                    if retired.is_empty() {
                        continue;
                    }
                    let id = retired[payload as usize % retired.len()];
                    prop_assert!(
                        slab.get(id).is_none(),
                        "stale handle aliased a recycled slot (ABA)"
                    );
                    prop_assert!(!slab.contains(id));
                }
            }
            prop_assert_eq!(slab.len(), oracle.len());
            // Free-list reuse: the slot array never exceeds the peak number
            // of concurrently live values.
            prop_assert!(slab.slot_count() <= peak_live);
            // Round-trip: every live handle survives raw encode/decode.
            if let Some(&id) = live.last() {
                prop_assert_eq!(SlotId::from_raw(id.to_raw()), id);
            }
        }
        // Full final sweep against the oracle.
        for &id in &live {
            prop_assert_eq!(slab.get(id).copied(), oracle.get(&id.to_raw()).copied());
        }
        Ok(())
    });
}

/// The open-addressing [`DenseMap`] agrees with `HashMap` under random
/// insert/remove/get churn over a key space that mixes dense low keys with
/// the sparse high keys the virtio proxy-PID path produces.
#[test]
fn dense_map_matches_hashmap_oracle() {
    use simkit::DenseMap;
    use std::collections::HashMap;
    check("dense_map_matches_hashmap_oracle", |c| {
        let steps = c.vec_of(1, 400, |c| {
            let sparse = c.bool_with(0.25);
            let base = c.u64_in(0, 40);
            // Sparse keys mimic `PROXY_PID_BASE + n` (1 << 32 offset).
            let key = if sparse { (1u64 << 32) + base } else { base };
            (c.u32_in(0, 99), key, c.u64_in(0, 1_000_000))
        });
        let mut map: DenseMap<u64, u64> = DenseMap::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &(op, key, value) in &steps {
            match op {
                // ~50 %: insert / overwrite.
                0..=49 => {
                    prop_assert_eq!(map.insert(key, value), oracle.insert(key, value));
                }
                // ~30 %: remove (maybe absent — backward-shift path).
                50..=79 => {
                    prop_assert_eq!(map.remove(key), oracle.remove(&key));
                    prop_assert!(!map.contains_key(key));
                }
                // ~20 %: point lookup.
                _ => {
                    prop_assert_eq!(map.get(key).copied(), oracle.get(&key).copied());
                    prop_assert_eq!(map.contains_key(key), oracle.contains_key(&key));
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
        }
        // The iteration view holds exactly the oracle's entries.
        let mut got: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let mut want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // And every oracle key remains point-readable.
        for (&k, &v) in &oracle {
            prop_assert_eq!(map.get(k).copied(), Some(v));
        }
        Ok(())
    });
}

/// The trace ring's eviction accounting is exact: recording `n` events
/// into a ring of capacity `cap` keeps exactly the *newest*
/// `min(n, cap)` selected events in order, drops exactly
/// `max(0, n - cap)` — the oldest ones — and ignores masked-out phases
/// entirely (they count neither as buffered nor as dropped).
#[test]
fn trace_ring_wrap_drops_exactly_the_oldest() {
    use simkit::{Phase, Sla, TraceEvent, TraceSink, TraceSpec, MASK_ALL};
    check("trace_ring_wrap_drops_exactly_the_oldest", |c| {
        let cap = c.usize_in(1, 64);
        let n = c.usize_in(0, 300);
        // Sometimes mask half the phases to check mask interaction.
        let mask = if c.bool_with(0.5) {
            MASK_ALL
        } else {
            Phase::Submit.bit() | Phase::Complete.bit()
        };
        let mut sink = TraceSink::with_spec(TraceSpec { cap, mask });
        prop_assert!(sink.enabled());
        prop_assert_eq!(sink.capacity(), cap);
        let mut selected = Vec::new();
        for i in 0..n {
            let phase = match c.u8_in(0, 3) {
                0 => Phase::Submit,
                1 => Phase::Routed {
                    outlier: c.bool_with(0.2),
                },
                2 => Phase::IrqFire,
                _ => Phase::Complete,
            };
            let ev = TraceEvent {
                t: SimTime::from_nanos(i as u64),
                rq: i as u64,
                tenant: c.u64_in(0, 8),
                sla: if c.bool_with(0.5) { Sla::L } else { Sla::T },
                phase,
                core: c.u16_in(0, 4),
                nsq: if c.bool_with(0.5) {
                    Some(c.u16_in(0, 16))
                } else {
                    None
                },
            };
            sink.record(ev);
            if mask & phase.bit() != 0 {
                selected.push(ev);
            }
        }
        let expect_dropped = selected.len().saturating_sub(cap) as u64;
        prop_assert_eq!(sink.dropped(), expect_dropped, "dropped count exact");
        prop_assert_eq!(sink.len(), selected.len().min(cap), "buffered count exact");
        // Harvest: exactly the newest `min(n_selected, cap)` events,
        // oldest first.
        let events = sink.into_events();
        let tail = &selected[selected.len() - events.len()..];
        prop_assert_eq!(
            events.as_slice(),
            tail,
            "ring keeps the newest events in order"
        );
        Ok(())
    });
}

/// The reference fault schedule: 32-byte [`FaultEvent`]s pushed one by one
/// in the generator's draw order (class by class; start, then target),
/// then a stable sort on the derived `(at, kind)` order.
fn reference_schedule(
    spec: &simkit::FaultSpec,
    geometry: simkit::FaultGeometry,
    horizon: simkit::SimDuration,
) -> Vec<simkit::FaultEvent> {
    use simkit::{FaultEvent, FaultKind};
    let mut rng = SimRng::new(spec.seed ^ 0xFA17_FA17_FA17_FA17);
    let horizon_ns = horizon.as_nanos().max(1);
    let count = (horizon_ns / spec.period.as_nanos().max(1)).max(1);
    let mut events = Vec::new();
    if spec.classes.die_spikes && geometry.dies > 0 {
        for _ in 0..count {
            events.push(FaultEvent {
                at: SimTime::from_nanos(rng.gen_range(horizon_ns)),
                kind: FaultKind::DieSpike {
                    die: rng.gen_range(geometry.dies as u64) as u32,
                    mult: spec.spike_mult,
                    dur: spec.spike_dur,
                },
            });
        }
    }
    if spec.classes.irq_loss && geometry.cqs > 0 {
        for _ in 0..count {
            events.push(FaultEvent {
                at: SimTime::from_nanos(rng.gen_range(horizon_ns)),
                kind: FaultKind::VectorLoss {
                    cq: rng.gen_range(geometry.cqs as u64) as u16,
                    dur: spec.loss_dur,
                },
            });
        }
    }
    if spec.classes.nsq_stalls && geometry.sqs > 0 {
        for _ in 0..count {
            events.push(FaultEvent {
                at: SimTime::from_nanos(rng.gen_range(horizon_ns)),
                kind: FaultKind::NsqStall {
                    sq: rng.gen_range(geometry.sqs as u64) as u16,
                    dur: spec.stall_dur,
                },
            });
        }
    }
    events.sort();
    events
}

/// The reference activation state: a cursor over the sorted event list,
/// applying each due event to per-target windows as it passes.
struct RefFaults {
    events: Vec<simkit::FaultEvent>,
    cursor: usize,
    die_until: Vec<(SimTime, u32)>,
    cq_until: Vec<SimTime>,
    sq_until: Vec<SimTime>,
    stats: simkit::FaultStats,
}

impl RefFaults {
    fn new(events: Vec<simkit::FaultEvent>, geo: simkit::FaultGeometry) -> Self {
        RefFaults {
            events,
            cursor: 0,
            die_until: vec![(SimTime::ZERO, 1); geo.dies as usize],
            cq_until: vec![SimTime::ZERO; geo.cqs as usize],
            sq_until: vec![SimTime::ZERO; geo.sqs as usize],
            stats: simkit::FaultStats::default(),
        }
    }

    fn advance(&mut self, now: SimTime) {
        use simkit::FaultKind;
        while let Some(ev) = self.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            match ev.kind {
                FaultKind::DieSpike { die, mult, dur } => {
                    let slot = &mut self.die_until[die as usize];
                    *slot = (slot.0.max(ev.at + dur), slot.1.max(mult));
                    if slot.0 <= now {
                        *slot = (SimTime::ZERO, 1);
                    }
                }
                FaultKind::VectorLoss { cq, dur } => {
                    let slot = &mut self.cq_until[cq as usize];
                    *slot = (*slot).max(ev.at + dur);
                }
                FaultKind::NsqStall { sq, dur } => {
                    let slot = &mut self.sq_until[sq as usize];
                    *slot = (*slot).max(ev.at + dur);
                    self.stats.stalls_engaged += 1;
                }
            }
            self.cursor += 1;
        }
    }

    fn die_spike(&mut self, now: SimTime, die: u32) -> Option<u32> {
        self.advance(now);
        let (until, mult) = self.die_until[die as usize];
        (now < until).then(|| {
            self.stats.spikes_applied += 1;
            mult
        })
    }

    fn loses_irq(&mut self, now: SimTime, cq: u16) -> bool {
        self.advance(now);
        let lost = now < self.cq_until[cq as usize];
        self.stats.vectors_lost += u64::from(lost);
        lost
    }

    fn sq_stalled(&self, now: SimTime, sq: u16) -> bool {
        now < self.sq_until[sq as usize]
    }
}

/// Drives `plans` and `reference` through one random monotone query
/// sequence spanning about 1.5× `horizon_ns`: each plan must answer every
/// `die_spike`, `loses_irq` and `sq_stalled` as the reference does and
/// keep its `stats()` at every step.
fn same_answers(
    c: &mut dd_check::Case,
    reference: &mut RefFaults,
    plans: &mut [simkit::FaultPlan],
    geo: simkit::FaultGeometry,
    horizon_ns: u64,
) -> dd_check::CheckResult {
    let steps = c.usize_in(1, 400);
    let mut now = 0u64;
    for step in 0..steps {
        now += c.u64_in(0, (3 * horizon_ns / steps as u64).max(2));
        let t = SimTime::from_nanos(now);
        match c.u8_in(0, 4) {
            0 if geo.dies > 0 => {
                let die = c.u32_in(0, geo.dies);
                let want = reference.die_spike(t, die);
                for plan in plans.iter_mut() {
                    prop_assert_eq!(plan.die_spike(t, die), want, "die_spike at step {}", step);
                }
            }
            1 if geo.cqs > 0 => {
                let cq = c.u16_in(0, geo.cqs);
                let want = reference.loses_irq(t, cq);
                for plan in plans.iter_mut() {
                    prop_assert_eq!(plan.loses_irq(t, cq), want, "loses_irq at step {}", step);
                }
            }
            2 if geo.sqs > 0 => {
                let sq = c.u16_in(0, geo.sqs);
                reference.advance(t);
                let want = reference.sq_stalled(t, sq);
                for plan in plans.iter_mut() {
                    plan.advance(t);
                    prop_assert_eq!(plan.sq_stalled(t, sq), want, "sq_stalled at step {}", step);
                }
            }
            _ => {
                reference.advance(t);
                for plan in plans.iter_mut() {
                    plan.advance(t);
                }
            }
        }
        for plan in plans.iter() {
            prop_assert_eq!(plan.stats(), reference.stats, "stats at step {}", step);
        }
    }
    Ok(())
}

/// A random geometry; any count may be zero, so a class can have no target.
fn fault_geometry(c: &mut dd_check::Case) -> simkit::FaultGeometry {
    simkit::FaultGeometry {
        dies: c.u32_in(0, 64),
        sqs: c.u16_in(0, 32),
        cqs: c.u16_in(0, 16),
    }
}

/// The compact fault schedule is the reference one. Over random specs
/// (any class subset; windows of 1 ns–1 ms; periods of 2–400 µs, or of
/// 1–64 ns so that many events share a start), geometries and horizons
/// of up to 3 000 periods, `generate` decodes to exactly the reference's
/// sorted 32-byte events, and so does `from_events` fed those events.
/// Both plans then answer a random monotone query sequence exactly as
/// the reference does (`same_answers`).
#[test]
fn fault_plan_matches_reference_schedule() {
    use simkit::{FaultClasses, FaultPlan, FaultSpec, SimDuration};
    check("fault_plan_matches_reference_schedule", |c| {
        let classes = FaultClasses {
            die_spikes: c.bool_with(0.7),
            irq_loss: c.bool_with(0.7),
            nsq_stalls: c.bool_with(0.7),
        };
        let mut spec = FaultSpec::new(classes, c.any_u64());
        let dur = |c: &mut dd_check::Case| SimDuration::from_nanos(c.u64_in(1, 1_000_000));
        let period = if c.bool_with(0.3) {
            c.u64_in(1, 65)
        } else {
            c.u64_in(2_000, 400_000)
        };
        spec.period = SimDuration::from_nanos(period);
        spec.spike_mult = c.u32_in(1, 32);
        spec.spike_dur = dur(c);
        spec.loss_dur = dur(c);
        spec.stall_dur = dur(c);
        let geo = fault_geometry(c);
        let horizon_ns = period * c.u64_in(0, 3_000) + c.u64_in(1, period + 1);
        let horizon = SimDuration::from_nanos(horizon_ns);
        let want = reference_schedule(&spec, geo, horizon);
        let generated = FaultPlan::generate(&spec, geo, horizon);
        prop_assert_eq!(generated.events(), want.clone(), "generate");
        let listed = FaultPlan::from_events(want.clone(), geo).map_err(dd_check::Failure::new)?;
        prop_assert_eq!(listed.events(), want.clone(), "from_events");
        let mut reference = RefFaults::new(want, geo);
        same_answers(c, &mut reference, &mut [generated, listed], geo, horizon_ns)
    });
}

/// `from_events` with a shape per event, as the device properties draw
/// them: a few starts, so events of one class and target often share a
/// start and differ only in multiplier or window, and half the windows
/// are short enough to end between two queries. The plan decodes to
/// the sorted list, activates in that order and so answers a random
/// monotone query sequence exactly as the reference does.
#[test]
fn fault_plan_from_events_matches_reference() {
    use simkit::{FaultEvent, FaultKind, FaultPlan, SimDuration};
    check("fault_plan_from_events_matches_reference", |c| {
        let geo = fault_geometry(c);
        let horizon_ns = c.u64_in(1, 200_000);
        let starts = c.vec_of(1, 8, |c| c.u64_in(0, horizon_ns));
        let drawn = c.vec_of(0, 200, |c| {
            let at = SimTime::from_nanos(starts[c.usize_in(0, starts.len())]);
            let longest = if c.bool_with(0.5) { 2_000 } else { 100_000 };
            let dur = SimDuration::from_nanos(c.u64_in(1, longest));
            let kind = match c.u8_in(0, 3) {
                0 if geo.dies > 0 => FaultKind::DieSpike {
                    die: c.u32_in(0, geo.dies.min(3)),
                    mult: c.u32_in(1, 5),
                    dur,
                },
                1 if geo.cqs > 0 => FaultKind::VectorLoss {
                    cq: c.u16_in(0, geo.cqs.min(3)),
                    dur,
                },
                _ if geo.sqs > 0 => FaultKind::NsqStall {
                    sq: c.u16_in(0, geo.sqs.min(3)),
                    dur,
                },
                _ => return None,
            };
            Some(FaultEvent { at, kind })
        });
        let mut events: Vec<FaultEvent> = drawn.into_iter().flatten().collect();
        let plan = FaultPlan::from_events(events.clone(), geo).map_err(dd_check::Failure::new)?;
        events.sort();
        prop_assert_eq!(plan.events(), events.clone());
        let mut reference = RefFaults::new(events, geo);
        same_answers(c, &mut reference, &mut [plan], geo, horizon_ns)
    });
}
