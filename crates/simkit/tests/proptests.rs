//! Property-based tests for the simulation kit (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq};
use simkit::event::{GRANULE_SHIFT, NEAR_BUCKETS};
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

/// Width of the near-lane window in nanoseconds.
const WINDOW_NS: u64 = (NEAR_BUCKETS as u64) << GRANULE_SHIFT;

/// The bucketed [`EventQueue`] is order-equivalent to the single-heap
/// reference ([`HeapQueue`]) under random push/pop interleavings whose
/// horizons deliberately straddle the near-lane window: deltas from 0 ns
/// up to milliseconds ahead of (and occasionally behind) the drain point.
/// Quiet-gap steps drain everything inside the window and then push only
/// beyond it, so the ring empties, the cursor jumps, and far timers
/// migrate in across many windows over a script of up to ~2 000 steps.
#[test]
fn event_queue_matches_heap_reference() {
    check("event_queue_matches_heap_reference", |c| {
        let steps = c.vec_of(1, 2000, |c| {
            // (is_pop, horizon-class, delta-within-class)
            let pop = c.bool_with(0.45);
            let class = c.u32_in(0, 5);
            let delta = c.u64_in(0, 4095);
            (pop, class, delta)
        });
        let mut bucketed: EventQueue<u64> = EventQueue::new();
        let mut reference: HeapQueue<u64> = HeapQueue::new();
        // `now` trails the last popped time, as in a simulation — but
        // pushes may also land *behind* it (class 3) to exercise the
        // behind-cursor path.
        let mut now: u64 = 0;
        for (i, &(pop, class, delta)) in steps.iter().enumerate() {
            if pop {
                let a = bucketed.pop();
                let b = reference.pop();
                prop_assert_eq!(a, b, "pop #{i} diverged: bucketed={a:?} reference={b:?}");
                if let Some((t, _)) = a {
                    now = now.max(t.as_nanos());
                }
            } else if class == 4 {
                // Quiet gap: drain the near work, then arm one timer
                // one to ~16 windows past the end of the window.
                while reference
                    .peek_time()
                    .is_some_and(|t| t.as_nanos() < now + WINDOW_NS)
                {
                    let a = bucketed.pop();
                    let b = reference.pop();
                    prop_assert_eq!(a, b, "gap drain at step #{i} diverged");
                    now = now.max(a.expect("peeked").0.as_nanos());
                }
                let at = now + WINDOW_NS + (delta << 10);
                bucketed.push(SimTime::from_nanos(at), i as u64);
                reference.push(SimTime::from_nanos(at), i as u64);
            } else {
                let at = match class {
                    0 => now + delta,               // near: ≤ ~4 µs ahead
                    1 => now + (delta << 8),        // mid: ≤ ~1 ms ahead
                    2 => now + (delta << 16),       // far beyond the window
                    _ => now.saturating_sub(delta), // behind the drain point
                };
                bucketed.push(SimTime::from_nanos(at), i as u64);
                reference.push(SimTime::from_nanos(at), i as u64);
            }
            prop_assert_eq!(bucketed.len(), reference.len());
            prop_assert_eq!(bucketed.peek_time(), reference.peek_time());
        }
        // Drain both to empty: the tails must agree too.
        loop {
            let a = bucketed.pop();
            let b = reference.pop();
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(bucketed.pushed_total(), reference.pushed_total());
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
                1 => Phase::Routed { outlier: c.bool_with(0.2) },
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
        prop_assert_eq!(events.as_slice(), tail, "ring keeps the newest events in order");
        Ok(())
    });
}
