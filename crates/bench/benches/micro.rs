//! Micro-benchmarks of the hot-path data structures (dd-check runner).
//!
//! These measure the *wall-clock* cost of the mechanisms the paper argues
//! must be lightweight: the merit-heap scheduling of nqreg (MRU-gated vs.
//! per-query resorts), troute's routing decision, and the simulation
//! substrate itself (event queue, latency histogram, flash dispatch).
//!
//! Runs under `cargo bench -p bench --bench micro`; accepts `--smoke`
//! (reduced samples) and a positional substring filter — see
//! `dd_check::bench`.

use std::hint::black_box;

use blkstack::bio::{Bio, BioId, ReqFlags};
use blkstack::nsqlock::NsqLockTable;
use blkstack::{IoPriorityClass, Pid, TaskStruct};
use daredevil::{DaredevilConfig, NqReg, PolicySpec, Priority, Troute};
use dd_check::bench::BenchSet;
use dd_cpu::{CpuSystem, WorkClass};
use dd_metrics::LatencyHistogram;
use dd_nvme::arbiter::{Arbiter, SqPriorityClass};
use dd_nvme::flash::{FlashBackend, FlashConfig};
use dd_nvme::{
    CommandId, CqEntry, DeviceOutput, HostTag, IoOpcode, NamespaceId, NvmeCommand, NvmeConfig,
    NvmeDevice, SqId,
};
use simkit::{EventQueue, FaultPlan, SimDuration, SimRng, SimTime};

#[path = "../../simkit/tests/support/heap_queue.rs"]
mod heap_queue;
use heap_queue::HeapQueue;

fn device(sqs: u16, cqs: u16) -> NvmeDevice {
    let mut cfg = NvmeConfig::sv_m();
    cfg.nr_sqs = sqs;
    cfg.nr_cqs = cqs;
    NvmeDevice::new(cfg, 8)
}

fn bench_nq_scheduling(set: &mut BenchSet) {
    // The WS-M shape: 128 NSQs over 24 NCQs, both scheduling steps active.
    // The device's NSQ depth, 1 024, is every merit heap's MRU budget.
    let dev = device(128, 24);
    let locks = NsqLockTable::new(128);

    let mut reg = NqReg::new(&DaredevilConfig::default(), &dev);
    set.bench("nqreg/schedule_mru_hit", || {
        black_box(reg.schedule(Priority::High, 1, &dev, &locks))
    });
    // Spending the whole budget per query re-sorts both steps every query.
    let mut reg = NqReg::new(&DaredevilConfig::default(), &dev);
    let m = reg.mru();
    set.bench("nqreg/schedule_with_resort", || {
        black_box(reg.schedule(Priority::High, m, &dev, &locks))
    });
    let mut reg = NqReg::new(&DaredevilConfig::base(), &dev);
    set.bench("nqreg/schedule_round_robin", || {
        black_box(reg.schedule(Priority::Low, 1, &dev, &locks))
    });
}

fn bench_troute(set: &mut BenchSet) {
    let dev = device(64, 64);
    let locks = NsqLockTable::new(64);

    {
        let mut reg = NqReg::new(&DaredevilConfig::default(), &dev);
        let mut tr = Troute::new();
        tr.register(
            &TaskStruct::new(Pid(1), 0, IoPriorityClass::RealTime, NamespaceId(1), "L"),
            &mut reg,
            &dev,
            &locks,
        );
        let bio = Bio {
            id: BioId(1),
            tenant: Pid(1),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: 0,
            bytes: 4096,
            flags: ReqFlags::NONE,
            ioprio: IoPriorityClass::RealTime,
            issued_at: SimTime::ZERO,
        };
        set.bench("troute/route_default", || {
            black_box(tr.route(&bio, SimTime::ZERO, &mut reg, &dev, &locks))
        });
    }
    {
        // Under the default policy a stream of outliers earns its tenant
        // the outlier tag after one profiling window, and from then on
        // takes the tagged table path. The `sizeclass` policy sends every
        // request of at most 32 KiB, this 4 KiB sync write included,
        // through a per-request high-group query (`m = 1`) whatever the
        // tag, so every iteration times that query path.
        let cfg = DaredevilConfig {
            policy: PolicySpec::SizeClass,
            ..DaredevilConfig::default()
        };
        let mut reg = NqReg::new(&cfg, &dev);
        let mut tr = Troute::new();
        tr.register(
            &TaskStruct::new(Pid(2), 0, IoPriorityClass::BestEffort, NamespaceId(1), "T"),
            &mut reg,
            &dev,
            &locks,
        );
        let bio = Bio {
            id: BioId(1),
            tenant: Pid(2),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Write,
            offset_blocks: 0,
            bytes: 4096,
            flags: ReqFlags::SYNC,
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        };
        set.bench("troute/route_outlier_per_request", || {
            black_box(tr.route(&bio, SimTime::ZERO, &mut reg, &dev, &locks))
        });
    }
}

fn bench_substrate(set: &mut BenchSet) {
    {
        let mut rng = SimRng::new(1);
        set.bench_batched(
            "substrate/event_queue_push_pop",
            || {
                let mut q = EventQueue::with_capacity(1024);
                for _ in 0..512 {
                    q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000), 0u32);
                }
                q
            },
            |mut q| {
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
        );
    }
    {
        let mut h = LatencyHistogram::new();
        let mut rng = SimRng::new(2);
        set.bench("substrate/histogram_record", || {
            h.record(SimDuration::from_nanos(rng.gen_range(100_000_000) + 1));
        });
        black_box(h.count());
    }
    {
        // A Zipf-tail fleet tenant: a handful of completions, then the
        // digest's p99.9 over a histogram built from scratch.
        let mut rng = SimRng::new(3);
        set.bench("substrate/histogram_sparse_p999", || {
            let mut h = LatencyHistogram::new();
            for _ in 0..3 {
                h.record(SimDuration::from_nanos(rng.gen_range(10_000_000) + 1_000));
            }
            black_box(h.p999())
        });
    }
    {
        let mut dev = dd_nvme::flash::FlashBackend::new(dd_nvme::flash::FlashConfig::enterprise());
        let mut faults = simkit::fault::FaultPlan::disabled();
        let mut now = SimTime::ZERO;
        let mut lba = 0u64;
        set.bench("substrate/flash_dispatch_4k", || {
            now += SimDuration::from_nanos(500);
            lba = lba.wrapping_add(97);
            black_box(dev.dispatch_page(now, lba, IoOpcode::Read, &mut faults))
        });
    }
    {
        let mut locks = NsqLockTable::new(16);
        let mut now = SimTime::ZERO;
        set.bench("substrate/nsq_lock_acquire", || {
            now += SimDuration::from_nanos(100);
            black_box(locks.acquire(SqId(3), now, SimDuration::from_nanos(150)))
        });
    }
}

/// Two-lane [`EventQueue`] vs the reference [`HeapQueue`] under five
/// event shapes, most at two depths: 20 pending events, the `hol` depth
/// (the simulator's near lane holds 17.5 on average over the quick
/// figures, 35 at most), and 512, the `max_inflight_pages` bound, where
/// the near lane's O(k) insert is at its worst.
///
/// * `hol_*` — the `hol` hop pattern: 20 I/Os in flight, each cycling
///   through ~2 µs of submit work, the device's 262–524 µs to its
///   completion, a core dispatch at `now`, ~2 µs of completion work and
///   a re-issue at `now`. Most pending events are device completions, so
///   short hops insert at the near lane's tail and one push in five scans
///   past most of it: k ≈ 2.5 steps a push, as measured on `hol`.
/// * `churn_*` — steady state: one pop, one push per iteration, 95 % of
///   them within 64 µs of `now` and 5 % 1–2 ms out (beyond the horizon).
///   A synthetic mix, not the simulator's. `churn_20_fat` is the same
///   shape with an 80-byte payload, the size of an event that carries a
///   `BioCompletion` inline: every entry is moved on each insert and
///   heap sift, so entry size is a cost of its own.
/// * `open_loop_*` — the `fleet10k` host shape: ~2.5 k tenant arrival
///   timers pending 0.4–0.6 s out, each pop of one re-arming it and
///   starting a five-hop I/O chain at 20–40 µs spacing, so events fire
///   ~30 µs apart and one push in six goes beyond the horizon.
/// * `drain_*` — batch fill then full drain, measuring amortized
///   per-event cost when the queue depth spikes (storm reschedules).
/// * `same_instant_*` — the machine's dispatch pattern over pending work
///   completions: an iteration pops a completion at `t`, pushes a core
///   dispatch at `t`, pops it, and pushes the next completion 0.5–64.5 µs
///   later. The near lane inserts the dispatch at its tail.
fn bench_event_queues(set: &mut BenchSet) {
    macro_rules! hol {
        ($name:literal, $ty:ident) => {{
            // Payload: the hop an I/O is at. Popping hop h schedules hop
            // h + 1 (mod 5) after hop h's delay.
            let mut q: $ty<u32> = $ty::with_capacity(1024);
            let mut rng = SimRng::new(3);
            for _ in 0..20 {
                q.push(SimTime::from_nanos(rng.next_u64() % 524_000), 2u32);
            }
            set.bench($name, move || {
                let (now, hop) = q.pop().expect("I/Os cycle forever");
                let delta = match hop {
                    0 | 3 => 1_000 + rng.next_u64() % 2_000,
                    1 => 262_000 + rng.next_u64() % 262_000,
                    _ => 0,
                };
                q.push(now + SimDuration::from_nanos(delta), (hop + 1) % 5);
                black_box(q.len())
            });
        }};
    }
    hol!("event_queue/hol", EventQueue);
    hol!("event_queue/hol_heap", HeapQueue);

    macro_rules! churn {
        ($name:literal, $ty:ident, $payload:expr, $depth:literal) => {{
            let mut q = $ty::with_capacity(1024);
            let mut rng = SimRng::new(7);
            for _ in 0..$depth {
                q.push(SimTime::from_nanos(rng.next_u64() % 64_000), $payload);
            }
            set.bench($name, move || {
                let (at, _) = q.pop().expect("churn queue never empties");
                let delta = if rng.next_u64() % 100 < 5 {
                    1_000_000 + rng.next_u64() % 1_000_000
                } else {
                    rng.next_u64() % 64_000
                };
                q.push(at + SimDuration::from_nanos(delta), $payload);
                black_box(q.len())
            });
        }};
    }
    churn!("event_queue/churn_20", EventQueue, 0u32, 20);
    churn!("event_queue/churn_20_fat", EventQueue, [0u64; 10], 20);
    churn!("event_queue/churn_20_heap", HeapQueue, 0u32, 20);
    churn!("event_queue/churn_512", EventQueue, 0u32, 512);
    churn!("event_queue/churn_512_heap", HeapQueue, 0u32, 512);

    macro_rules! open_loop {
        ($name:literal, $ty:ident) => {{
            // Payload: 0 is an arrival timer, k > 0 an I/O hop with k hops
            // left in its chain.
            let mut q: $ty<u32> = $ty::with_capacity(4096);
            let mut rng = SimRng::new(13);
            for _ in 0..2_500 {
                q.push(SimTime::from_nanos(rng.next_u64() % 500_000_000), 0u32);
            }
            set.bench($name, move || {
                let (now, hops) = q.pop().expect("timers re-arm forever");
                let left = if hops == 0 {
                    let rearm = 400_000_000 + rng.next_u64() % 200_000_000;
                    q.push(now + SimDuration::from_nanos(rearm), 0);
                    5
                } else {
                    hops - 1
                };
                if left > 0 {
                    let hop = 20_000 + rng.next_u64() % 20_000;
                    q.push(now + SimDuration::from_nanos(hop), left);
                }
                black_box(q.len())
            });
        }};
    }
    open_loop!("event_queue/open_loop", EventQueue);
    open_loop!("event_queue/open_loop_heap", HeapQueue);

    macro_rules! drain {
        ($name:literal, $ty:ident, $depth:literal) => {{
            let mut rng = SimRng::new(9);
            set.bench_batched(
                $name,
                move || {
                    let mut q: $ty<u32> = $ty::with_capacity(1024);
                    for _ in 0..$depth {
                        let delta = if rng.next_u64() % 100 < 5 {
                            1_000_000 + rng.next_u64() % 1_000_000
                        } else {
                            rng.next_u64() % 64_000
                        };
                        q.push(SimTime::from_nanos(delta), 0u32);
                    }
                    q
                },
                |mut q| {
                    while let Some(e) = q.pop() {
                        black_box(e);
                    }
                },
            );
        }};
    }
    drain!("event_queue/drain_20", EventQueue, 20);
    drain!("event_queue/drain_20_heap", HeapQueue, 20);
    drain!("event_queue/drain_512", EventQueue, 512);
    drain!("event_queue/drain_512_heap", HeapQueue, 512);

    macro_rules! same_instant {
        ($name:literal, $ty:ident, $depth:literal) => {{
            // Payload: 0 is a work completion, 1 a core dispatch.
            let mut q: $ty<u32> = $ty::with_capacity(1024);
            let mut rng = SimRng::new(5);
            for _ in 0..$depth {
                q.push(SimTime::from_nanos(rng.next_u64() % 64_000), 0u32);
            }
            set.bench($name, move || {
                for _ in 0..2 {
                    let (at, kind) = q.pop().expect("completions re-arm forever");
                    if kind == 0 {
                        // A core finishes its work and dispatches the next
                        // item at the same instant...
                        q.push(at, 1);
                    } else {
                        // ...which runs and completes Δ later.
                        let cost = 500 + rng.next_u64() % 64_000;
                        q.push(at + SimDuration::from_nanos(cost), 0);
                    }
                }
                black_box(q.len())
            });
        }};
    }
    same_instant!("event_queue/same_instant_20", EventQueue, 20);
    same_instant!("event_queue/same_instant_20_heap", HeapQueue, 20);
    same_instant!("event_queue/same_instant_512", EventQueue, 512);
    same_instant!("event_queue/same_instant_512_heap", HeapQueue, 512);

    // Batched insertion vs a loop of singleton pushes — the drain_effects
    // shape: a burst of already-time-ordered device events entering the
    // queue at once. `push_batch` hoists the seq/counter bookkeeping out of
    // the loop; the looped variant pays it per event. Same 512 sorted events
    // either way, all before the horizon: ascending order is the near lane's
    // worst case, as every insert scans to its front.
    {
        fn sorted_burst() -> Vec<(SimTime, u32)> {
            let mut rng = SimRng::new(11);
            let mut burst: Vec<(SimTime, u32)> = (0..512)
                .map(|i| (SimTime::from_nanos(rng.next_u64() % 64_000), i))
                .collect();
            burst.sort_by_key(|(at, _)| *at);
            burst
        }
        let burst = sorted_burst();
        set.bench_batched(
            "event/push_batch_512_sorted",
            move || (EventQueue::with_capacity(1024), burst.clone()),
            |(mut q, burst)| {
                q.push_batch(burst);
                black_box(q.len());
            },
        );
        let burst = sorted_burst();
        set.bench_batched(
            "event/push_looped_512_sorted",
            move || (EventQueue::with_capacity(1024), burst.clone()),
            |(mut q, burst)| {
                for (at, e) in burst {
                    q.push(at, e);
                }
                black_box(q.len());
            },
        );
    }
}

/// `RunArena` recycling vs allocating fresh structures per run.
///
/// One iteration is one "machine teardown + next machine build" for a
/// representative structure pair (event queue + scratch vector):
///
/// * `arena/recycle_roundtrip` — park (`put` runs `ArenaReset`: logical
///   clears, capacity kept) then adopt (`take`: two hash probes), exactly
///   the sweep worker's cell-to-cell path;
/// * `arena/fresh_build` — the pre-arena path: allocate both structures
///   from scratch, drop them at the end.
///
/// The gap is the tentpole's per-cell saving, isolated from simulation
/// work. Both variants do the same 64 pushes so only the memory model
/// differs.
fn bench_arena(set: &mut BenchSet) {
    use simkit::RunArena;

    let mut arena = RunArena::new();
    arena.put(0, EventQueue::<u32>::with_capacity(1024));
    arena.put(0, Vec::<u64>::with_capacity(256));
    set.bench("arena/recycle_roundtrip", move || {
        let mut q: EventQueue<u32> = arena.take(0);
        let mut scratch: Vec<u64> = arena.take(0);
        for i in 0..64u32 {
            q.push(SimTime::from_nanos(i as u64 * 100), i);
            scratch.push(i as u64);
        }
        let n = q.len();
        arena.put(0, q);
        arena.put(0, scratch);
        black_box(n)
    });
    set.bench("arena/fresh_build", move || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
        let mut scratch: Vec<u64> = Vec::with_capacity(256);
        for i in 0..64u32 {
            q.push(SimTime::from_nanos(i as u64 * 100), i);
            scratch.push(i as u64);
        }
        black_box(q.len())
    });
}

/// The CPU model's dispatch protocol on the shipped [`CpuSystem`].
///
/// One iteration is one scheduler step on an 8-core system: enqueue one
/// item on the next core (1/8 hard-IRQ, 7/8 task traffic, so the IRQ class
/// is usually empty — the realistic skew), then `take_next` → `begin` →
/// `finish` on that core. Every core holds a backlog of 8 items, so each
/// step dispatches without the core going idle.
fn bench_workqueue_dispatch(set: &mut BenchSet) {
    const CORES: u16 = 8;
    let mut sys: CpuSystem<u32> = CpuSystem::new(CORES);
    for i in 0..64u32 {
        sys.enqueue(i as u16 % CORES, WorkClass::Task, i);
    }
    let mut rng = SimRng::new(21);
    let mut core = 0u16;
    let mut now = SimTime::ZERO;
    set.bench("workqueue/dispatch", move || {
        core = (core + 1) % CORES;
        let class = if rng.next_u64().is_multiple_of(8) {
            WorkClass::HardIrq
        } else {
            WorkClass::Task
        };
        sys.enqueue(core, class, u32::from(core));
        let (_, item) = sys.take_next(core).expect("core has a backlog");
        now = sys.begin(core, now, SimDuration::from_nanos(500));
        assert!(sys.finish(core, now), "backlog keeps the core dispatching");
        black_box(item)
    });
}

/// Request-map churn: the slab-backed [`RequestMap`] vs the HashMap shape
/// it replaced.
///
/// One iteration is one request lifecycle at a steady outstanding depth of
/// 64 — insert a bio, allocate its request id, then retire the oldest
/// in-flight request — i.e. the per-I/O map traffic every submit/complete
/// pair pays on the hot path. The `hashmap` variant reproduces the old
/// implementation (u64 counters into two `HashMap`s) as the baseline; the
/// slab variant must win on both the id allocation (free-list pop vs hash +
/// possible rehash) and the completion lookup (indexed load vs probe).
fn bench_reqmap(set: &mut BenchSet) {
    use blkstack::reqmap::RequestMap;
    use std::collections::HashMap;

    fn bio(id: u64) -> Bio {
        Bio {
            id: BioId(id),
            tenant: Pid(1),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: id * 8,
            bytes: 4096,
            flags: ReqFlags::NONE,
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::ZERO,
        }
    }

    const DEPTH: usize = 64;
    {
        let mut map = RequestMap::new();
        let mut inflight = std::collections::VecDeque::with_capacity(DEPTH + 1);
        let mut next = 0u64;
        for _ in 0..DEPTH {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h));
            next += 1;
        }
        set.bench("reqmap/churn_slab", move || {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h));
            next += 1;
            let rq = inflight.pop_front().expect("steady depth");
            black_box(map.complete_rq(rq))
        });
    }
    {
        // The pre-slab shape: monotonically growing u64 ids hashed into two
        // maps (bio table + request table), exactly what `RequestMap` was
        // before the port.
        struct HashReqMap {
            bios: HashMap<u64, (Bio, u32)>,
            rqs: HashMap<u64, u64>,
            next_bio: u64,
            next_rq: u64,
        }
        impl HashReqMap {
            fn insert_bio(&mut self, bio: Bio, nr: u32) -> u64 {
                let id = self.next_bio;
                self.next_bio += 1;
                self.bios.insert(id, (bio, nr));
                id
            }
            fn alloc_rq(&mut self, bio: u64) -> u64 {
                let id = self.next_rq;
                self.next_rq += 1;
                self.rqs.insert(id, bio);
                id
            }
            fn complete_rq(&mut self, rq: u64) -> Option<Bio> {
                let bio_id = self.rqs.remove(&rq)?;
                let (_, nr) = self.bios.get_mut(&bio_id)?;
                *nr -= 1;
                if *nr == 0 {
                    return self.bios.remove(&bio_id).map(|(b, _)| b);
                }
                None
            }
        }
        let mut map = HashReqMap {
            bios: HashMap::new(),
            rqs: HashMap::new(),
            next_bio: 0,
            next_rq: 0,
        };
        let mut inflight = std::collections::VecDeque::with_capacity(DEPTH + 1);
        let mut next = 0u64;
        for _ in 0..DEPTH {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h));
            next += 1;
        }
        set.bench("reqmap/churn_hashmap", move || {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h));
            next += 1;
            let rq = inflight.pop_front().expect("steady depth");
            black_box(map.complete_rq(rq))
        });
    }

    // The per-bio tenant lookup on the submit path: dense open-addressing
    // table vs HashMap, 32 live tenants (a busy WS-M node).
    {
        let mut dense: simkit::DenseMap<Pid, u32> = simkit::DenseMap::new();
        let mut hash: HashMap<Pid, u32> = HashMap::new();
        for p in 0..32u64 {
            dense.insert(Pid(p), p as u32);
            hash.insert(Pid(p), p as u32);
        }
        let mut i = 0u64;
        set.bench("reqmap/tenant_lookup_dense", move || {
            i = (i + 7) % 32;
            black_box(dense.get(Pid(i)).copied())
        });
        let mut i = 0u64;
        set.bench("reqmap/tenant_lookup_hashmap", move || {
            i = (i + 7) % 32;
            black_box(hash.get(&Pid(i)).copied())
        });
    }
}

/// Cost of the structured trace API on the simulation hot path.
///
/// * `trace/off_guarded_record` — the exact shape every instrumentation
///   point compiles to with tracing off: one predictable `enabled()`
///   branch, no event construction. This is the "zero overhead when
///   disabled" claim at the instruction level; `scripts/verify.sh` gates
///   the same claim end to end with `tests/perf_gate.rs`, which holds an
///   untraced cell's ns/event, corrected by a reference kernel timed in
///   the same process, under a committed ceiling.
/// * `trace/on_record` — recording into a pre-sized ring (never
///   allocates): the steady-state cost a traced run pays per phase.
/// * `trace/on_record_wrapping` — same with the ring full, so every
///   record overwrites the oldest entry (the drop-oldest path).
/// * `trace/span_table_build_4k_events` — post-processing: stitching a
///   4096-event harvest into per-request spans.
fn bench_trace(set: &mut BenchSet) {
    use dd_metrics::SpanTable;
    use simkit::{Phase, Sla, TraceEvent, TraceSink};

    const LIFECYCLE: [Phase; 8] = [
        Phase::Submit,
        Phase::NsqEnqueue,
        Phase::DoorbellRing,
        Phase::DeviceFetch,
        Phase::FlashDone,
        Phase::CqePosted,
        Phase::IrqFire,
        Phase::Complete,
    ];
    fn ev(rq: u64, phase: Phase, t: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(t),
            rq,
            tenant: rq % 8,
            sla: if rq.is_multiple_of(8) { Sla::L } else { Sla::T },
            phase,
            core: (rq % 4) as u16,
            nsq: Some((rq % 16) as u16),
        }
    }

    {
        let sink = TraceSink::disabled();
        let mut i = 0u64;
        set.bench("trace/off_guarded_record", move || {
            i += 1;
            // The guard every instrumentation point uses; the event is
            // never built when it fails.
            if sink.enabled() {
                unreachable!("sink is disabled");
            }
            black_box(i)
        });
    }
    {
        let mut sink = TraceSink::enabled_all(1 << 20);
        let mut i = 0u64;
        set.bench("trace/on_record", move || {
            i += 1;
            if sink.enabled() {
                sink.record(ev(i, LIFECYCLE[(i % 8) as usize], i));
            }
            black_box(sink.len())
        });
    }
    {
        let mut sink = TraceSink::enabled_all(1024);
        for i in 0..1024u64 {
            sink.record(ev(i, Phase::Submit, i));
        }
        let mut i = 1024u64;
        set.bench("trace/on_record_wrapping", move || {
            i += 1;
            sink.record(ev(i, LIFECYCLE[(i % 8) as usize], i));
            black_box(sink.dropped())
        });
    }
    {
        let mut events = Vec::with_capacity(4096);
        for rq in 0..512u64 {
            for (k, phase) in LIFECYCLE.iter().enumerate() {
                events.push(ev(rq, *phase, rq * 100 + k as u64));
            }
        }
        set.bench("trace/span_table_build_4k_events", move || {
            let table = SpanTable::build(&events);
            black_box(table.len())
        });
    }
}

fn bench_arbiter_pick(set: &mut BenchSet) {
    // The O(1) bitmask pick across device widths, every SQ in one class
    // (the round-robin shape of every stack but overprov). One in eight
    // SQs has visible work (the steady-state shape of a partially loaded
    // device); the pick does not consume the work, so every sample sees
    // the same occupancy and only the pick cost varies.
    for n in [8u16, 64, 1024] {
        let mut arb = Arbiter::new(n);
        for sq in (0..n).step_by(8) {
            arb.note_ready(SqId(sq));
        }
        let name = format!("arbiter/pick_bitmask_{n}sq");
        set.bench(&name, move || black_box(arb.pick(|_| false)));
    }
    // overprov's shape: 32 pairs of a high-class L-queue and a low-class
    // T-queue, both queues of every fourth pair with visible work (again
    // one SQ in eight), so picks move between the classes by credit.
    let mut arb = Arbiter::new(64);
    for pair in 0..32u16 {
        arb.set_class(SqId(pair * 2), SqPriorityClass::High);
        arb.set_class(SqId(pair * 2 + 1), SqPriorityClass::Low);
    }
    for pair in (0..32u16).step_by(4) {
        arb.note_ready(SqId(pair * 2));
        arb.note_ready(SqId(pair * 2 + 1));
    }
    set.bench("arbiter/pick_two_class_64sq", move || {
        black_box(arb.pick(|_| false))
    });
}

fn bench_device_cmd_lifecycle(set: &mut BenchSet) {
    // One command's whole stay in the device, eight at a time: push onto
    // eight consecutive NSQs (the cursor sweeps every NSQ), ring their
    // doorbells, run the device dry, and reap the bound CQs as the ISR
    // does. 4 KiB reads spaced 2 ms apart, so flash never queues and only
    // the device's own bookkeeping varies. SV-M and WS-M queue shapes.
    const BATCH: u64 = 8;
    for (sqs, cqs) in [(64u16, 64u16), (128, 24)] {
        let mut dev = device(sqs, cqs);
        let mut out = DeviceOutput::new();
        let mut q = EventQueue::new();
        let mut cqes: Vec<CqEntry> = Vec::new();
        let (mut now, mut cid) = (SimTime::ZERO, 0u64);
        let name = format!("device/cmd_lifecycle_{sqs}sq");
        set.bench(&name, move || {
            now += SimDuration::from_millis(2);
            for _ in 0..BATCH {
                let sq = SqId((cid % sqs as u64) as u16);
                let cmd = NvmeCommand {
                    cid: CommandId(cid),
                    nsid: NamespaceId(1),
                    opcode: IoOpcode::Read,
                    slba: cid * 8,
                    nlb: 1,
                    host: HostTag {
                        rq_id: cid,
                        ..HostTag::default()
                    },
                };
                dev.push_command(sq, cmd)
                    .expect("the cycle drains every NSQ");
                dev.ring_doorbell(sq, now, &mut out);
                cid += 1;
            }
            loop {
                for (at, ev) in out.events.drain(..) {
                    q.push(at, ev);
                }
                out.irqs.clear();
                let Some((at, ev)) = q.pop() else { break };
                now = at;
                dev.handle_event(ev, now, &mut out);
            }
            let mut reaped = 0;
            for k in cid - BATCH..cid {
                let cq = dev.cq_of_sq(SqId((k % sqs as u64) as u16));
                reaped += dev.isr_pop_into(cq, usize::MAX, &mut cqes);
                dev.isr_done(cq, now, &mut out);
            }
            out.irqs.clear();
            black_box(reaped)
        });
    }
}

fn bench_flash_burst(set: &mut BenchSet) {
    // A 64-page command on the enterprise geometry: the one-pass burst
    // dispatch vs the per-page reference loop. `now` advances past the
    // service horizon each sample so queueing never accumulates across
    // iterations.
    const PAGES: u32 = 64;
    const STEP: u64 = 2_000_000;
    {
        let mut f = FlashBackend::new(FlashConfig::enterprise());
        let mut faults = FaultPlan::disabled();
        let mut t = 0u64;
        set.bench("flash/dispatch_burst_64", move || {
            t += STEP;
            black_box(f.dispatch_burst(
                SimTime::from_nanos(t),
                t,
                PAGES,
                IoOpcode::Read,
                &mut faults,
            ))
        });
    }
    {
        let mut f = FlashBackend::new(FlashConfig::enterprise());
        let mut faults = FaultPlan::disabled();
        let mut t = 0u64;
        set.bench("flash/dispatch_page_64_looped", move || {
            t += STEP;
            let now = SimTime::from_nanos(t);
            let mut last = now;
            for i in 0..PAGES as u64 {
                last = last.max(f.dispatch_page(now, t + i, IoOpcode::Read, &mut faults));
            }
            black_box(last)
        });
    }
    // The `hol` shape: 32-page reads every 20 µs, each starting 8 pages
    // after the last, so every die is hit by four commands in a row and
    // three pages in four find their die busy. Dies are 75 % and buses
    // 80 % utilised, so the backlog stays bounded.
    {
        let mut f = FlashBackend::new(FlashConfig::enterprise());
        let mut faults = FaultPlan::disabled();
        let mut k = 0u64;
        set.bench("flash/dispatch_burst_32_busy", move || {
            k += 1;
            black_box(f.dispatch_burst(
                SimTime::from_nanos(k * 20_000),
                k * 8,
                32,
                IoOpcode::Read,
                &mut faults,
            ))
        });
    }
}

fn bench_daredevil_config(set: &mut BenchSet) {
    let dev = device(128, 24);
    set.bench("construction/daredevil_stack_for_device", || {
        black_box(daredevil::DaredevilStack::new(
            DaredevilConfig::default(),
            &dev,
        ))
    });
}

fn main() {
    let mut set = BenchSet::from_args("micro");
    bench_nq_scheduling(&mut set);
    bench_troute(&mut set);
    bench_substrate(&mut set);
    bench_event_queues(&mut set);
    bench_arena(&mut set);
    bench_workqueue_dispatch(&mut set);
    bench_reqmap(&mut set);
    bench_trace(&mut set);
    bench_arbiter_pick(&mut set);
    bench_flash_burst(&mut set);
    bench_device_cmd_lifecycle(&mut set);
    bench_daredevil_config(&mut set);
    set.finish();
}
