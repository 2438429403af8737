//! Integration tests asserting the paper's *qualitative* claims end to end.
//!
//! These run reduced-scale versions of the evaluation scenarios and check
//! the direction and rough magnitude of every headline result — who wins,
//! where the crossovers are — not absolute numbers.

use daredevil_repro::prelude::*;

fn quick(stack: StackSpec, nr_l: u16, nr_t: u16, cores: u16) -> RunOutput {
    let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, cores, MachinePreset::SvM);
    s.knobs.warmup = SimDuration::from_millis(10);
    s.knobs.measure = SimDuration::from_millis(120);
    daredevil_repro::testbed::run(s)
}

/// §3.1 / Fig. 2: co-locating L and T in the same NQs inflates L latency;
/// partitioning the same NQ budget removes most of it.
#[test]
fn fig2_interference_is_real_and_separable() {
    let interfered = quick(StackSpec::vanilla_queues(4), 4, 16, 4);
    let separated = quick(StackSpec::vanilla_partitioned(4), 4, 16, 4);
    let ratio = interfered.l_avg_ms() / separated.l_avg_ms().max(1e-9);
    assert!(
        ratio > 2.0,
        "NQ partitioning must cut L latency by >2x, got {ratio:.2}x \
         ({} vs {})",
        interfered.l_avg_ms(),
        separated.l_avg_ms()
    );
}

/// §7.1 / Fig. 6: under high T-pressure Daredevil cuts the L-tenant tail
/// and average latency by a large factor versus vanilla, at comparable
/// T-throughput.
#[test]
fn fig6_daredevil_beats_vanilla_under_pressure() {
    let vanilla = quick(StackSpec::vanilla(), 4, 16, 4);
    let dare = quick(StackSpec::daredevil(), 4, 16, 4);
    let tail_gain = vanilla.l_p999_ms() / dare.l_p999_ms().max(1e-9);
    let avg_gain = vanilla.l_avg_ms() / dare.l_avg_ms().max(1e-9);
    assert!(tail_gain > 3.0, "tail gain {tail_gain:.1}x too small");
    assert!(avg_gain > 3.0, "avg gain {avg_gain:.1}x too small");
    // Throughput within 30% of vanilla ("comparable and stable").
    let tput_ratio = dare.t_mbps() / vanilla.t_mbps().max(1e-9);
    assert!(
        tput_ratio > 0.7 && tput_ratio < 1.3,
        "T throughput not comparable: {tput_ratio:.2}"
    );
}

/// §7.1: vanilla's L latency grows with T-pressure; Daredevil's stays
/// nearly flat.
#[test]
fn fig6_scaling_with_pressure() {
    let v_low = quick(StackSpec::vanilla(), 4, 2, 4);
    let v_high = quick(StackSpec::vanilla(), 4, 32, 4);
    assert!(
        v_high.l_avg_ms() > v_low.l_avg_ms() * 4.0,
        "vanilla must degrade with pressure: {} -> {}",
        v_low.l_avg_ms(),
        v_high.l_avg_ms()
    );
    let d_low = quick(StackSpec::daredevil(), 4, 2, 4);
    let d_high = quick(StackSpec::daredevil(), 4, 32, 4);
    assert!(
        d_high.l_avg_ms() < d_low.l_avg_ms() * 4.0,
        "daredevil must stay nearly flat: {} -> {}",
        d_low.l_avg_ms(),
        d_high.l_avg_ms()
    );
}

/// §7.1: blk-switch helps at low T-pressure (cross-core scheduling space
/// suffices) but collapses once the tenant count overwhelms it.
#[test]
fn blk_switch_fails_under_overload() {
    let low = quick(StackSpec::blk_switch(), 4, 4, 4);
    let vanilla_low = quick(StackSpec::vanilla(), 4, 4, 4);
    assert!(
        low.l_avg_ms() < vanilla_low.l_avg_ms(),
        "blk-switch must beat vanilla at low pressure: {} vs {}",
        low.l_avg_ms(),
        vanilla_low.l_avg_ms()
    );
    let high = quick(StackSpec::blk_switch(), 4, 32, 4);
    let dare_high = quick(StackSpec::daredevil(), 4, 32, 4);
    assert!(
        high.l_p999_ms() > dare_high.l_p999_ms() * 3.0,
        "blk-switch must collapse under overload: {} vs daredevil {}",
        high.l_p999_ms(),
        dare_high.l_p999_ms()
    );
}

/// §7.2 / Fig. 10: per-class namespaces do not isolate under vanilla, but
/// Daredevil's device-level view does.
#[test]
fn fig10_multi_namespace() {
    let mk = |stack| {
        let mut s = Scenario::multi_namespace(stack, 4, 4, MachinePreset::SvM);
        s.knobs.warmup = SimDuration::from_millis(10);
        s.knobs.measure = SimDuration::from_millis(120);
        daredevil_repro::testbed::run(s)
    };
    let vanilla = mk(StackSpec::vanilla());
    let dare = mk(StackSpec::daredevil());
    let gain = vanilla.l_avg_ms() / dare.l_avg_ms().max(1e-9);
    assert!(
        gain > 3.0,
        "daredevil must win in multi-namespace: {gain:.1}x ({} vs {})",
        vanilla.l_avg_ms(),
        dare.l_avg_ms()
    );
}

/// §7.3 / Fig. 11: dare-base already resists HOL blocking; scheduling and
/// dispatching refine it. All variants stay within a small factor of full.
#[test]
fn fig11_ablation_ordering() {
    let base = quick(StackSpec::dare_base(), 4, 16, 4);
    let sched = quick(StackSpec::dare_sched(), 4, 16, 4);
    let full = quick(StackSpec::daredevil(), 4, 16, 4);
    let vanilla = quick(StackSpec::vanilla(), 4, 16, 4);
    // Even dare-base must beat vanilla by a wide margin.
    assert!(
        base.l_avg_ms() * 2.0 < vanilla.l_avg_ms(),
        "dare-base {} vs vanilla {}",
        base.l_avg_ms(),
        vanilla.l_avg_ms()
    );
    // The full stack must be in the same league as its ablations (the
    // paper's decomposition shows modest deltas between variants).
    assert!(full.l_avg_ms() < base.l_avg_ms() * 3.0);
    assert!(full.l_avg_ms() < sched.l_avg_ms() * 3.0);
}

/// §7.5 / Fig. 14: ionice update storms degrade L-tenant IOPS
/// monotonically as the interval shrinks, and trigger re-scheduling.
#[test]
fn fig14_storm_degrades_gracefully() {
    let mk = |interval: Option<SimDuration>| {
        let mut s = Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 4, 4, MachinePreset::SvM);
        s.knobs.warmup = SimDuration::from_millis(10);
        s.knobs.measure = SimDuration::from_millis(120);
        s.ionice_storm = interval;
        daredevil_repro::testbed::run(s)
    };
    let baseline = mk(None);
    let slow = mk(Some(SimDuration::from_millis(10)));
    let fast = mk(Some(SimDuration::from_micros(50)));
    assert_eq!(baseline.troute_reassignments, 0);
    assert!(slow.troute_reassignments > 0);
    let slow_iops = slow.l_kiops();
    let fast_iops = fast.l_kiops();
    let base_iops = baseline.l_kiops();
    assert!(
        fast_iops < slow_iops && slow_iops <= base_iops * 1.1,
        "storm degradation must be monotone: base={base_iops:.1} slow={slow_iops:.1} fast={fast_iops:.1}"
    );
    assert!(
        fast_iops < base_iops * 0.5,
        "a 50us storm must cost most of the IOPS: {fast_iops:.1} vs {base_iops:.1}"
    );
}

/// §7.5 / Fig. 13: Daredevil's cross-core accesses show up as remote
/// completions, but it still matches or beats vanilla's L latency.
#[test]
fn fig13_cross_core_overheads_bounded() {
    let mk = |stack: StackSpec, storm: bool| {
        let mut s = Scenario::new("fig13", MachinePreset::SvM, stack);
        s.core_pool = 4;
        for i in 0..8u16 {
            s.tenants.push(TenantSpec {
                class_label: if i < 4 { "L" } else { "TL" },
                ionice: IoPriorityClass::RealTime,
                core: i % 4,
                nsid: NamespaceId(1),
                slo: None,
                kind: TenantKind::Fio(if i < 4 {
                    daredevil_repro::workload::tenants::l_tenant_job()
                } else {
                    daredevil_repro::workload::tenants::t_tenant_job()
                }),
            });
        }
        if storm {
            s.migrate_storm = Some(SimDuration::from_millis(2));
        }
        s.knobs.warmup = SimDuration::from_millis(10);
        s.knobs.measure = SimDuration::from_millis(120);
        daredevil_repro::testbed::run(s)
    };
    let vanilla = mk(StackSpec::vanilla(), false);
    let dare = mk(StackSpec::daredevil(), true);
    // The cross-core channel exists...
    assert!(dare.stack_stats.remote_completions > vanilla.stack_stats.remote_completions);
    // ...but does not cost Daredevil its advantage.
    assert!(
        dare.l_avg_ms() < vanilla.l_avg_ms() * 1.5,
        "daredevil {} vs vanilla {}",
        dare.l_avg_ms(),
        vanilla.l_avg_ms()
    );
}

/// Root cause, decomposed: vanilla's latency inflation under T-pressure
/// lives in the in-NSQ wait (the head-of-line blocking of §2.3), while the
/// device-service phase — the in-SSD interference of §8.1 — is comparable
/// across stacks. Daredevil removes the queue wait, not the flash physics.
#[test]
fn latency_inflation_is_in_queue_wait() {
    use daredevil_repro::metrics::span::Span;
    use daredevil_repro::metrics::SpanTable;
    use daredevil_repro::simkit::{Phase, SimTime, Sla, TraceSpec};

    // Trace the four breakdown anchors and stitch spans (the structured
    // replacement for the old bespoke per-completion phase plumbing).
    let traced = |stack: StackSpec| {
        let mask = Phase::Submit.bit()
            | Phase::DeviceFetch.bit()
            | Phase::FlashDone.bit()
            | Phase::Complete.bit();
        let mut s = Scenario::multi_tenant_fio(stack, 4, 16, 4, MachinePreset::SvM);
        s.knobs.warmup = SimDuration::from_millis(10);
        s.knobs.measure = SimDuration::from_millis(120);
        s.knobs.trace = Some(TraceSpec { cap: 1 << 20, mask });
        daredevil_repro::testbed::run(s)
    };
    let window_start = SimTime::from_millis(10);
    let l_in_window =
        |s: &Span| s.sla == Sla::L && s.completed_at().is_some_and(|t| t >= window_start);
    // (queue wait, device service, delivery) averages in ms for L spans.
    let breakdown = |out: &RunOutput| {
        let spans = SpanTable::build(&out.trace);
        assert_eq!(out.trace_dropped, 0, "trace ring must not wrap");
        (
            spans
                .segment_stats(Phase::Submit, Phase::DeviceFetch, l_in_window)
                .avg_ms(),
            spans
                .segment_stats(Phase::DeviceFetch, Phase::FlashDone, l_in_window)
                .avg_ms(),
            spans
                .segment_stats(Phase::FlashDone, Phase::Complete, l_in_window)
                .avg_ms(),
        )
    };
    let vanilla = traced(StackSpec::vanilla());
    let dare = traced(StackSpec::daredevil());
    let (v_wait, v_service, v_delivery) = breakdown(&vanilla);
    let (d_wait, d_service, _) = breakdown(&dare);
    // Vanilla: queue wait dominates end-to-end latency.
    assert!(
        v_wait > vanilla.l_avg_ms() * 0.8,
        "vanilla's inflation must be in-queue: wait={} total={}",
        v_wait,
        vanilla.l_avg_ms()
    );
    // Daredevil: queue wait collapses by >10x.
    assert!(
        d_wait * 10.0 < v_wait,
        "daredevil must remove the queue wait: {d_wait} vs {v_wait}"
    );
    // Device service is a property of the flash, not the stack: within 30%.
    let ratio = d_service / v_service.max(1e-9);
    assert!(
        (0.7..1.3).contains(&ratio),
        "device service must be stack-independent: ratio {ratio:.2}"
    );
    // Phases partition the total (within the batching-delivery slack).
    let sum = v_wait + v_service + v_delivery;
    assert!(
        (sum - vanilla.l_avg_ms()).abs() / vanilla.l_avg_ms() < 0.05,
        "phases must partition the total: {sum} vs {}",
        vanilla.l_avg_ms()
    );
}

/// §7.4 / Fig. 12: each app runs to completion beside 8 streaming
/// T-tenants (the sweep panics if a ceiling cuts one off), every op cell
/// of the figure is measured on every stack, and Daredevil beats vanilla
/// on every device-bound op. The op counts are the figure's quick counts
/// cut to a fifth.
#[test]
fn fig12_device_bound_ops_beat_vanilla() {
    use bench::figures::fig12;
    use daredevil_repro::workload::{OpKind, YcsbMix};

    const DEVICE_BOUND: [OpKind; 5] = [
        OpKind::Update,
        OpKind::Insert,
        OpKind::ReadModifyWrite,
        OpKind::Fsync,
        OpKind::Delete,
    ];
    let opts = bench::Opts::new(true, false, 2);
    let results = fig12::sweep(300, 200).run(&opts);
    let stacks = bench::figures::paper_stacks();
    let mut checked = 0;
    type Stat = fn(&LatencyHistogram) -> SimDuration;
    let mut check = |app: &str, op: OpKind, outs: &[(Option<YcsbMix>, RunOutput)], stat: Stat| {
        let lat: Vec<SimDuration> = outs
            .iter()
            .zip(&stacks)
            .map(|((_, out), stack)| match out.op_latencies.get(&op) {
                Some(h) if h.count() > 0 => stat(h),
                _ => panic!("{app} {op:?} has no samples on {}", stack.name()),
            })
            .collect();
        if DEVICE_BOUND.contains(&op) {
            assert!(
                lat[2] < lat[0],
                "{app} {op:?}: daredevil {:?} must beat vanilla {:?}",
                lat[2],
                lat[0]
            );
        }
        checked += 1;
    };
    // One app's cells per chunk, one per stack; the Mailserver is keyed `None`.
    for outs in results.chunk_by(|a, b| a.0 == b.0) {
        match outs[0].0 {
            Some(mix) => {
                for &op in fig12::mix_ops(mix) {
                    check(mix.as_str(), op, outs, LatencyHistogram::p999);
                }
            }
            None => {
                for op in [OpKind::Fsync, OpKind::Delete] {
                    check("mailserver", op, outs, LatencyHistogram::mean);
                }
            }
        }
    }
    assert_eq!(checked, 10, "8 YCSB op rows, then fsync and delete");
}
