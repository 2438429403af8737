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
use daredevil::policy::DefaultPolicy;
use daredevil::{DaredevilConfig, NqReg, Priority, ProxyTable, Troute};
use dd_check::bench::BenchSet;
use dd_metrics::LatencyHistogram;
use dd_nvme::arbiter::RoundRobinArbiter;
use dd_nvme::flash::{FlashBackend, FlashConfig};
use dd_nvme::{IoOpcode, NamespaceId, NvmeConfig, NvmeDevice, SqId};
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

fn proxies(dev: &NvmeDevice) -> ProxyTable {
    let prios = daredevil::nqreg::divide_priorities(dev.nr_cqs());
    ProxyTable::new(
        dev.nr_sqs(),
        |i| dev.cq_of_sq(SqId(i)),
        |i| prios[dev.cq_of_sq(SqId(i)).index()],
    )
}

fn bench_nq_scheduling(set: &mut BenchSet) {
    // The WS-M shape: 128 NSQs over 24 NCQs, both scheduling steps active.
    let dev = device(128, 24);
    let locks = NsqLockTable::new(128);
    let prox = proxies(&dev);

    let mut reg = NqReg::new(0.8, 1024, true, 128, 24, |i| i % 24);
    let mut pol = DefaultPolicy::default();
    set.bench("nqreg/schedule_mru_hit", || {
        black_box(reg.schedule(&mut pol, Priority::High, 1, &dev, &locks, &prox))
    });
    let mut reg = NqReg::new(0.8, 1, true, 128, 24, |i| i % 24);
    set.bench("nqreg/schedule_with_resort", || {
        black_box(reg.schedule(&mut pol, Priority::High, 1, &dev, &locks, &prox))
    });
    let mut reg = NqReg::new(0.8, 1024, false, 128, 24, |i| i % 24);
    set.bench("nqreg/schedule_round_robin", || {
        black_box(reg.schedule(&mut pol, Priority::Low, 1, &dev, &locks, &prox))
    });
}

fn bench_troute(set: &mut BenchSet) {
    let dev = device(64, 64);
    let locks = NsqLockTable::new(64);

    {
        let mut prox = proxies(&dev);
        let mut reg = NqReg::new(0.8, 1024, true, 64, 64, |i| i);
        let mut tr = Troute::new(1024, 64);
        let mut pol = DefaultPolicy::default();
        tr.register(
            &TaskStruct::new(Pid(1), 0, IoPriorityClass::RealTime, NamespaceId(1), "L"),
            &mut pol,
            &mut reg,
            &dev,
            &locks,
            &mut prox,
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
            issued_at: SimTime::ZERO,
        };
        set.bench("troute/route_default", || {
            black_box(tr.route(&bio, SimTime::ZERO, &mut pol, &mut reg, &dev, &locks, &mut prox))
        });
    }
    {
        let mut prox = proxies(&dev);
        let mut reg = NqReg::new(0.8, 1024, true, 64, 64, |i| i);
        let mut tr = Troute::new(1024, u64::MAX);
        let mut pol = DefaultPolicy::default();
        tr.register(
            &TaskStruct::new(Pid(2), 0, IoPriorityClass::BestEffort, NamespaceId(1), "T"),
            &mut pol,
            &mut reg,
            &dev,
            &locks,
            &mut prox,
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
            issued_at: SimTime::ZERO,
        };
        set.bench("troute/route_outlier_per_request", || {
            black_box(tr.route(&bio, SimTime::ZERO, &mut pol, &mut reg, &dev, &locks, &mut prox))
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

/// Bucketed [`EventQueue`] vs the reference [`HeapQueue`] under three
/// event shapes.
///
/// * `churn_*` — steady state: one pop, one push per iteration, 95 % of
///   them within 64 µs of `now` and 5 % 1–2 ms out. A synthetic mix, not
///   the simulator's: a probe of one ddbench pass at seed 42 counted
///   9.2 % of pushes going to the far heap on `hol`, 20.1 % on
///   `fleet10k` and 1.6 % on `apps`.
/// * `open_loop_*` — the `fleet10k` host shape: ~2.5 k tenant arrival
///   timers pending 0.4–0.6 s out, each pop of one re-arming it and
///   starting a five-hop I/O chain at 20–40 µs spacing, so events fire
///   ~30 µs apart and one push in six goes beyond the window.
/// * `drain_*` — batch fill then full drain, measuring amortized
///   per-event cost when the queue depth spikes (storm reschedules).
fn bench_event_queues(set: &mut BenchSet) {
    macro_rules! churn {
        ($name:literal, $ty:ident) => {{
            let mut q: $ty<u32> = $ty::with_capacity(1024);
            let mut rng = SimRng::new(7);
            for _ in 0..512 {
                q.push(SimTime::from_nanos(rng.next_u64() % 64_000), 0u32);
            }
            set.bench($name, move || {
                let (at, _) = q.pop().expect("churn queue never empties");
                let delta = if rng.next_u64() % 100 < 5 {
                    1_000_000 + rng.next_u64() % 1_000_000
                } else {
                    rng.next_u64() % 64_000
                };
                q.push(at + SimDuration::from_nanos(delta), 0u32);
                black_box(q.len())
            });
        }};
    }
    churn!("event_queue/churn_bucketed", EventQueue);
    churn!("event_queue/churn_heap", HeapQueue);

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
    open_loop!("event_queue/open_loop_bucketed", EventQueue);
    open_loop!("event_queue/open_loop_heap", HeapQueue);

    macro_rules! drain {
        ($name:literal, $ty:ident) => {{
            let mut rng = SimRng::new(9);
            set.bench_batched(
                $name,
                move || {
                    let mut q: $ty<u32> = $ty::with_capacity(1024);
                    for _ in 0..512 {
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
    drain!("event_queue/drain_bucketed", EventQueue);
    drain!("event_queue/drain_heap", HeapQueue);

    // Batched insertion vs a loop of singleton pushes — the drain_effects
    // shape: a burst of already-time-ordered device events entering the
    // queue at once. `push_batch` hoists the seq/counter bookkeeping out of
    // the loop and hits the monotone-append fast path; the looped variant pays
    // them per event. Same 512 sorted events either way.
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

/// Struct-of-arrays vs array-of-structs for the per-core work queues.
///
/// One iteration is one scheduler step on an 8-core system: enqueue one
/// item (mostly Task-class, so the two higher-priority classes are usually
/// empty — the realistic skew) and dispatch one from the next core. The
/// AoS variant reproduces the old `Vec<CpuCore>` layout and walks the
/// class array per dispatch; the SoA variant is the shipped
/// `CpuSystem` layout — class-major queue columns plus a per-core
/// non-empty-class bitmask resolved with `trailing_zeros`.
fn bench_workqueue_scan(set: &mut BenchSet) {
    use std::collections::VecDeque;

    const CORES: usize = 8;
    const CLASSES: usize = 3;
    // 0 = Irq, 1 = Dispatch, 2 = Task: 1/8, 1/8, 6/8 of traffic.
    fn pick_class(rng: &mut SimRng) -> usize {
        match rng.next_u64() % 8 {
            0 => 0,
            1 => 1,
            _ => 2,
        }
    }

    {
        struct AosCore {
            queues: [VecDeque<u32>; CLASSES],
            pending: u32,
        }
        let mut cores: Vec<AosCore> = (0..CORES)
            .map(|_| AosCore {
                queues: Default::default(),
                pending: 0,
            })
            .collect();
        let mut rng = SimRng::new(21);
        for i in 0..64u32 {
            let c = (i as usize) % CORES;
            cores[c].queues[2].push_back(i);
            cores[c].pending += 1;
        }
        let mut turn = 0usize;
        set.bench("workqueue/scan_aos", move || {
            turn = (turn + 1) % CORES;
            let class = pick_class(&mut rng);
            cores[turn].queues[class].push_back(turn as u32);
            cores[turn].pending += 1;
            let core = &mut cores[turn];
            for q in core.queues.iter_mut() {
                if let Some(item) = q.pop_front() {
                    core.pending -= 1;
                    return black_box(item);
                }
            }
            unreachable!("core always has pending work")
        });
    }
    {
        let mut queues: [Vec<VecDeque<u32>>; CLASSES] = Default::default();
        for col in queues.iter_mut() {
            col.resize_with(CORES, VecDeque::new);
        }
        let mut class_mask = vec![0u8; CORES];
        let mut pending = vec![0u32; CORES];
        for i in 0..64u32 {
            let c = (i as usize) % CORES;
            queues[2][c].push_back(i);
            class_mask[c] |= 1 << 2;
            pending[c] += 1;
        }
        let mut rng = SimRng::new(21);
        let mut turn = 0usize;
        set.bench("workqueue/scan_soa", move || {
            turn = (turn + 1) % CORES;
            let class = pick_class(&mut rng);
            queues[class][turn].push_back(turn as u32);
            class_mask[turn] |= 1 << class;
            pending[turn] += 1;
            let next = class_mask[turn].trailing_zeros() as usize;
            let q = &mut queues[next][turn];
            let item = q.pop_front().expect("mask bit set for empty queue");
            if q.is_empty() {
                class_mask[turn] &= !(1 << next);
            }
            pending[turn] -= 1;
            black_box(item)
        });
    }
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
            inflight.push_back(map.alloc_rq(h, 8));
            next += 1;
        }
        set.bench("reqmap/churn_slab", move || {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h, 8));
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
            rqs: HashMap<u64, (u64, u32)>,
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
            fn alloc_rq(&mut self, bio: u64, nlb: u32) -> u64 {
                let id = self.next_rq;
                self.next_rq += 1;
                self.rqs.insert(id, (bio, nlb));
                id
            }
            fn complete_rq(&mut self, rq: u64) -> Option<Bio> {
                let (bio_id, _) = self.rqs.remove(&rq)?;
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
            inflight.push_back(map.alloc_rq(h, 8));
            next += 1;
        }
        set.bench("reqmap/churn_hashmap", move || {
            let h = map.insert_bio(bio(next), 1);
            inflight.push_back(map.alloc_rq(h, 8));
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
            sla: if rq % 8 == 0 { Sla::L } else { Sla::T },
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
    // O(1) bitmask pick vs the predicate scan it replaced, across device
    // widths. One in eight SQs has visible work (the steady-state shape of
    // a partially loaded device); neither variant consumes the work, so
    // every sample sees the same occupancy and only the pick cost varies.
    for n in [8u16, 64, 1024] {
        {
            let mut arb = RoundRobinArbiter::new(n, 1);
            for sq in (0..n).step_by(8) {
                arb.note_ready(SqId(sq));
            }
            let name = format!("arbiter/pick_bitmask_{n}sq");
            set.bench(&name, move || black_box(arb.pick(|_| false)));
        }
        {
            let mut arb = RoundRobinArbiter::new(n, 1);
            let name = format!("arbiter/pick_scan_{n}sq");
            set.bench(&name, move || black_box(arb.next(|q| q.0 % 8 == 0)));
        }
    }
}

fn bench_flash_burst(set: &mut BenchSet) {
    // A 64-page command on the enterprise geometry: grouped burst dispatch
    // (one cursor load/store per die and channel group) vs the per-page
    // reference loop. `now` advances past the service horizon each sample
    // so queueing never accumulates across iterations.
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
}

fn bench_irq_delivery(set: &mut BenchSet) {
    // Sixteen CQs raising at one instant toward one core — the fig7-style
    // interrupt storm. The shared-core fire pushes ONE event carrying a
    // bitmask of extra CQs and fans out to ISR work items at delivery; the
    // per-CQ reference pushes sixteen events through the queue.
    const CQS: u16 = 16;
    {
        let mut queue: EventQueue<(u16, u64)> = EventQueue::with_capacity(64);
        let mut isr_work: Vec<u16> = Vec::with_capacity(CQS as usize);
        let mut t = 0u64;
        set.bench("irq/fire_shared_core", move || {
            t += 1_000;
            let at = SimTime::from_nanos(t);
            let mut more = 0u64;
            for cq in 1..CQS {
                more |= 1u64 << cq;
            }
            queue.push(at, (0, more));
            isr_work.clear();
            while let Some((_, (head, rest))) = queue.pop() {
                isr_work.push(head);
                let mut r = rest;
                while r != 0 {
                    isr_work.push(r.trailing_zeros() as u16);
                    r &= r - 1;
                }
            }
            black_box(isr_work.len())
        });
    }
    {
        let mut queue: EventQueue<(u16, u64)> = EventQueue::with_capacity(64);
        let mut isr_work: Vec<u16> = Vec::with_capacity(CQS as usize);
        let mut t = 0u64;
        set.bench("irq/fire_per_cq", move || {
            t += 1_000;
            let at = SimTime::from_nanos(t);
            for cq in 0..CQS {
                queue.push(at, (cq, 0));
            }
            isr_work.clear();
            while let Some((_, (cq, _))) = queue.pop() {
                isr_work.push(cq);
            }
            black_box(isr_work.len())
        });
    }
}

fn bench_daredevil_config(set: &mut BenchSet) {
    let dev = device(128, 24);
    set.bench("construction/daredevil_stack_for_device", || {
        black_box(daredevil::DaredevilStack::for_device(
            DaredevilConfig::default(),
            8,
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
    bench_workqueue_scan(&mut set);
    bench_reqmap(&mut set);
    bench_trace(&mut set);
    bench_arbiter_pick(&mut set);
    bench_flash_burst(&mut set);
    bench_irq_delivery(&mut set);
    bench_daredevil_config(&mut set);
    set.finish();
}
