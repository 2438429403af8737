//! Integration tests for the extension tier: I/O schedulers, the
//! static-overprovision baseline, virtio guests, interrupt coalescing, and
//! rate-limited workloads.

use daredevil_repro::blkstack::iosched::SchedKind;
use daredevil_repro::prelude::*;

fn durations(mut s: Scenario) -> Scenario {
    s.knobs.warmup = SimDuration::from_millis(10);
    s.knobs.measure = SimDuration::from_millis(120);
    s
}

/// Write-pressure scenario for the elevator comparisons.
fn write_pressure(stack: StackSpec, nr_t: u16) -> Scenario {
    let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
    for i in 0..nr_t {
        s.tenants.push(TenantSpec {
            class_label: "T",
            ionice: IoPriorityClass::BestEffort,
            core: i % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(daredevil_repro::workload::tenants::t_tenant_write_job()),
            slo: None,
        });
    }
    durations(s)
}

/// SLA-blind elevators help reads against write floods, but NQ-level
/// separation beats the best of them.
#[test]
fn io_schedulers_help_but_do_not_solve_multi_tenancy() {
    let vanilla = daredevil_repro::testbed::run(write_pressure(StackSpec::vanilla(), 16));
    let kyber = daredevil_repro::testbed::run(write_pressure(
        StackSpec::vanilla_sched(SchedKind::Kyber),
        16,
    ));
    let dare = daredevil_repro::testbed::run(write_pressure(StackSpec::daredevil(), 16));
    assert!(
        kyber.l_avg_ms() < vanilla.l_avg_ms(),
        "kyber must improve on noop: {} vs {}",
        kyber.l_avg_ms(),
        vanilla.l_avg_ms()
    );
    assert!(
        dare.l_avg_ms() < kyber.l_avg_ms(),
        "NQ-level separation must beat the elevator: {} vs {}",
        dare.l_avg_ms(),
        kyber.l_avg_ms()
    );
}

/// mq-deadline bounds the read backlog instead of letting it grow with the
/// write flood: under a flood that starves noop's readers entirely within
/// the window, deadline keeps them flowing.
#[test]
fn mq_deadline_bounds_read_latency() {
    let noop_hi = daredevil_repro::testbed::run(write_pressure(StackSpec::vanilla(), 32));
    let dl_hi = daredevil_repro::testbed::run(write_pressure(
        StackSpec::vanilla_sched(SchedKind::MqDeadline),
        32,
    ));
    let noop_ios = noop_hi.summary.class("L").ios_completed;
    let dl_ios = dl_hi.summary.class("L").ios_completed;
    assert!(
        dl_ios > 5 * noop_ios.max(1),
        "deadline must keep reads flowing: {dl_ios} vs {noop_ios} completions"
    );
    assert!(
        dl_hi.l_avg_ms() > 0.0 && dl_hi.l_avg_ms() < 60.0,
        "deadline read latency must be bounded: {}",
        dl_hi.l_avg_ms()
    );
}

/// The overprovision baseline separates as well as Daredevil with even
/// placement, but a skewed placement overflows its static pair while
/// Daredevil's decoupled routing never parks a request.
#[test]
fn overprov_static_pairs_overflow_under_skew() {
    let mk = |stack: StackSpec, skewed: bool| {
        let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
        for i in 0..40u16 {
            s.tenants.push(TenantSpec {
                class_label: "T",
                ionice: IoPriorityClass::BestEffort,
                core: if skewed { 0 } else { i % 4 },
                nsid: NamespaceId(1),
                slo: None,
                kind: TenantKind::Fio(daredevil_repro::workload::tenants::t_tenant_job()),
            });
        }
        daredevil_repro::testbed::run(durations(s))
    };
    let over_even = mk(StackSpec::overprov(), false);
    let over_skew = mk(StackSpec::overprov(), true);
    let dare_skew = mk(StackSpec::daredevil(), true);
    assert_eq!(over_even.stack_stats.requeues, 0);
    assert!(
        over_skew.stack_stats.requeues > 1000,
        "skewed overprov must overflow its pair, got {}",
        over_skew.stack_stats.requeues
    );
    assert_eq!(
        dare_skew.stack_stats.requeues, 0,
        "daredevil spreads the skew"
    );
    // L-separation itself still works for overprov (it has WRR hardware).
    assert!(over_even.l_avg_ms() < 1.0);
    let vanilla_skew = mk(StackSpec::vanilla(), true);
    let switch_skew = mk(StackSpec::blk_switch(), true);
    let host = |out| daredevil_repro::testbed::FleetOutput { hosts: vec![out] };
    // No figure golden parks a command; this scenario parks thousands on
    // every stack but Daredevil, so its digests pin the queue-full requeue
    // path (park, unpark on completion, doorbell and lock accounting).
    // The last two entries pin blk-switch's two steering regimes: an
    // overloaded Zipfian fleet, and a 4 L + 4 T machine within the
    // cross-core scheduling capacity — the only regime whose request
    // steering reads the per-queue L-tenant counts.
    for (name, fleet, requeues, steering, digest) in [
        (
            "vanilla",
            host(vanilla_skew),
            6413,
            0,
            17504154525677626761u64,
        ),
        (
            "blk-switch",
            host(switch_skew),
            2234,
            9,
            5615041166381761904,
        ),
        ("overprov", host(over_skew), 6382, 0, 14062094940252577379),
        ("daredevil", host(dare_skew), 0, 0, 1267609866143129755),
        (
            "blk-switch fleet",
            blk_switch_fleet(),
            0,
            14,
            4395063449282237365,
        ),
        (
            "blk-switch 4L+4T",
            host(blk_switch_within_capacity()),
            0,
            667,
            12698270464007049151,
        ),
    ] {
        let stats = || fleet.hosts.iter().map(|h| h.stack_stats);
        assert_eq!(
            stats().map(|s| s.requeues).sum::<u64>(),
            requeues,
            "{name} requeues"
        );
        assert_eq!(
            stats().map(|s| s.steering_actions).sum::<u64>(),
            steering,
            "{name} steering actions"
        );
        assert_eq!(fleet.digest(), digest, "{name} digest");
    }
}

/// blk-switch on a 1k-tenant Zipfian fleet of two SV-M hosts (the
/// `ext_fleet` shape, cut down): ~500 tenants per 4-core host, far past
/// the cross-core scheduling capacity.
fn blk_switch_fleet() -> daredevil_repro::testbed::FleetOutput {
    use daredevil_repro::testbed::{FleetSpec, RunArena, TenantPopulation};
    let mut f = FleetSpec::new(
        "switch-fleet",
        2,
        MachinePreset::SvM,
        StackSpec::blk_switch(),
        TenantPopulation::zipfian(1_000, 20_000.0),
    );
    f.knobs.warmup = SimDuration::from_millis(10);
    f.knobs.measure = SimDuration::from_millis(60);
    daredevil_repro::testbed::run_fleet(&f, &mut RunArena::new())
}

/// blk-switch with 4 L + 4 T tenants on 4 cores: within its cross-core
/// scheduling capacity (`paper_claims::blk_switch_fails_under_overload`'s
/// low-pressure point), so it partitions cores by class and steers
/// T-requests by per-queue L-tenant count and outstanding bytes.
fn blk_switch_within_capacity() -> RunOutput {
    let s = Scenario::multi_tenant_fio(StackSpec::blk_switch(), 4, 4, 4, MachinePreset::SvM);
    daredevil_repro::testbed::run(durations(s))
}

/// Guest SLAs only reach the host through SLA-aware virtqueues.
#[test]
fn virtio_sla_awareness_end_to_end() {
    let mk = |stack: StackSpec| {
        let mut s = Scenario::new("vm", MachinePreset::SvM, stack);
        s.core_pool = 4;
        s.nvme = s.nvme.with_namespaces(2);
        for vm in 1..=2u32 {
            for i in 0..2u16 {
                s.tenants.push(TenantSpec {
                    class_label: "L",
                    ionice: IoPriorityClass::RealTime,
                    core: i % 4,
                    nsid: NamespaceId(vm),
                    kind: TenantKind::Fio(daredevil_repro::workload::tenants::l_tenant_job()),
                    slo: None,
                });
            }
            for i in 0..6u16 {
                s.tenants.push(TenantSpec {
                    class_label: "T",
                    ionice: IoPriorityClass::BestEffort,
                    core: (2 + i) % 4,
                    nsid: NamespaceId(vm),
                    kind: TenantKind::Fio(daredevil_repro::workload::tenants::t_tenant_job()),
                    slo: None,
                });
            }
        }
        daredevil_repro::testbed::run(durations(s))
    };
    let naive = mk(StackSpec::virtio(StackSpec::daredevil(), false));
    let sla = mk(StackSpec::virtio(StackSpec::daredevil(), true));
    assert!(
        sla.l_avg_ms() * 5.0 < naive.l_avg_ms(),
        "per-SLA VQs must restore separation: {} vs {}",
        sla.l_avg_ms(),
        naive.l_avg_ms()
    );
    // Guest identity must survive the layer: every guest tenant completes.
    for t in &sla.summary.tenants {
        assert!(t.ios_completed > 0, "guest tenant {} starved", t.tenant_id);
    }
}

/// Interrupt coalescing hurts L latency where it is visible — at low
/// pressure, where a QD-1 L-tenant never reaches the aggregation threshold
/// and eats the full aggregation window on every I/O. Daredevil's full
/// variant opts its high-priority vectors out and keeps native latency.
#[test]
fn daredevil_opts_high_priority_vectors_out_of_coalescing() {
    let mk = |stack: StackSpec, coalesce: bool| {
        let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
        if coalesce {
            s.nvme = s
                .nvme
                .with_irq_coalescing(16, SimDuration::from_micros(250));
        }
        daredevil_repro::testbed::run(durations(s))
    };
    let base = mk(StackSpec::vanilla(), false);
    let vanilla_coal = mk(StackSpec::vanilla(), true);
    let dare_coal = mk(StackSpec::daredevil(), true);
    assert!(
        vanilla_coal.l_avg_ms() > base.l_avg_ms() + 0.2,
        "coalescing must add ~the aggregation window on vanilla: {} vs {}",
        vanilla_coal.l_avg_ms(),
        base.l_avg_ms()
    );
    assert!(
        dare_coal.l_avg_ms() < base.l_avg_ms() + 0.05,
        "daredevil's opt-out must keep native latency: {} vs base {}",
        dare_coal.l_avg_ms(),
        base.l_avg_ms()
    );
}

/// Rate-limited FIO jobs respect their cap and stay deterministic.
#[test]
fn rate_limited_jobs_pace_themselves() {
    let mk = || {
        let mut s = Scenario::new("rate", MachinePreset::Small, StackSpec::vanilla());
        s.tenants.push(TenantSpec {
            class_label: "L",
            ionice: IoPriorityClass::RealTime,
            core: 0,
            nsid: NamespaceId(1),
            slo: None,
            kind: TenantKind::Fio(
                daredevil_repro::workload::FioJob::new(
                    daredevil_repro::workload::RwPattern::RandRead,
                    4096,
                    1,
                )
                .with_rate_iops(2000),
            ),
        });
        daredevil_repro::testbed::run(durations(s))
    };
    let out = mk();
    let iops = out.summary.class("L").iops(out.summary.window_secs());
    // Unconstrained this machine does >10k IOPS; the cap must bind (with
    // slack for the exponential pacing).
    assert!(iops < 2600.0, "rate cap must bind: measured {iops:.0} IOPS");
    assert!(iops > 800.0, "pacing must not stall the job: {iops:.0}");
    let again = mk();
    assert_eq!(
        out.summary.class("L").ios_completed,
        again.summary.class("L").ios_completed,
        "rate pacing must be deterministic"
    );
}

/// The intro's motivating co-location: latency-sensitive tenants against a
/// checkpointing trainer. The trainer is throughput-class; its checkpoint
/// flush is a sync outlier that troute routes to the high-priority group,
/// while its bulk writes stay in the low group — L-tenants barely notice
/// the checkpoints under Daredevil.
#[test]
fn checkpoint_trainer_co_location() {
    use daredevil_repro::workload::checkpoint::CheckpointConfig;
    use daredevil_repro::workload::OpKind;
    let mk = |stack: StackSpec| {
        let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
        for i in 0..2u16 {
            s.tenants.push(TenantSpec {
                class_label: "T",
                ionice: IoPriorityClass::BestEffort,
                core: i % 4,
                nsid: NamespaceId(1),
                slo: None,
                kind: TenantKind::App(AppKind::Checkpoint {
                    config: CheckpointConfig::default(),
                    checkpoints: 1_000_000, // Runs for the whole window.
                }),
            });
        }
        daredevil_repro::testbed::run(durations(s))
    };
    let vanilla = mk(StackSpec::vanilla());
    let dare = mk(StackSpec::daredevil());
    // Checkpoints actually ran and their latency was measured.
    let ckpt = dare
        .op_latencies
        .get(&OpKind::Checkpoint)
        .expect("checkpoints recorded");
    assert!(ckpt.count() > 5, "checkpoints ran: {}", ckpt.count());
    // The trainer's bulk writes interfere under vanilla, not daredevil.
    assert!(
        dare.l_avg_ms() < vanilla.l_avg_ms(),
        "daredevil must shield L from checkpoints: {} vs {}",
        dare.l_avg_ms(),
        vanilla.l_avg_ms()
    );
    // The trainer still makes progress under daredevil (bandwidth intact).
    let dare_ckpts = dare.op_latencies[&OpKind::Checkpoint].count();
    let vanilla_ckpts = vanilla.op_latencies[&OpKind::Checkpoint].count();
    assert!(
        dare_ckpts as f64 > vanilla_ckpts as f64 * 0.6,
        "checkpoint progress must stay comparable: {dare_ckpts} vs {vanilla_ckpts}"
    );
}

/// §8.1's in-SSD residual, aged-drive edition: with garbage collection
/// enabled (write-triggered erases), even Daredevil's L latency floor
/// rises — NQ-level separation cannot fix flash physics — but it still
/// beats vanilla by the same structural margin.
#[test]
fn gc_raises_the_floor_for_everyone() {
    use daredevil_repro::nvme::flash::GcConfig;
    let mk = |stack: StackSpec, gc: bool| {
        let mut s = Scenario::multi_tenant_fio(stack, 4, 0, 4, MachinePreset::SvM);
        // Write-heavy T-tenants to feed the collector.
        for i in 0..8u16 {
            s.tenants.push(TenantSpec {
                class_label: "T",
                ionice: IoPriorityClass::BestEffort,
                core: i % 4,
                nsid: NamespaceId(1),
                kind: TenantKind::Fio(daredevil_repro::workload::tenants::t_tenant_write_job()),
                slo: None,
            });
        }
        if gc {
            s.nvme.flash = s.nvme.flash.with_gc(GcConfig {
                write_threshold_pages: 64,
                erase_latency: SimDuration::from_millis(3),
            });
        }
        daredevil_repro::testbed::run(durations(s))
    };
    let dare_fresh = mk(StackSpec::daredevil(), false);
    let dare_aged = mk(StackSpec::daredevil(), true);
    let vanilla_aged = mk(StackSpec::vanilla(), true);
    // GC raises Daredevil's own floor (device service, not queueing).
    // The margin is modest — erases spread over 128 dies — but real.
    assert!(
        dare_aged.l_avg_ms() > dare_fresh.l_avg_ms() * 1.03,
        "GC must raise the floor: {} vs {}",
        dare_aged.l_avg_ms(),
        dare_fresh.l_avg_ms()
    );
    // (The phase attribution of the GC penalty is entangled: erases slow
    // the writers, which shifts backlog between the flash and the NSQs, so
    // no single phase monotonically absorbs it — only the total is
    // asserted here.)
    // The structural win over vanilla survives ageing.
    assert!(
        dare_aged.l_avg_ms() * 2.0 < vanilla_aged.l_avg_ms(),
        "separation must still win on an aged drive: {} vs {}",
        dare_aged.l_avg_ms(),
        vanilla_aged.l_avg_ms()
    );
}
