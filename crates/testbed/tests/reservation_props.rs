//! Property: every reservation the machine makes is a bound (dd-check
//! harness).
//!
//! `Machine::new_in` reserves the request slabs, the CQE scratch, the
//! elevator FIFOs, virtio's in-flight map and the device's command slab
//! from `Scenario::io_bounds`, and each event-queue lane from the
//! machine's event bound. If those bounds are bounds, a closed-loop run
//! never grows any of them: the capacity probe taken when the run ends
//! equals the one taken right after construction — not only the one taken
//! at warm-up end, which a reservation outgrown during warm-up would pass.
//!
//! Open-loop tenants stay out. Their arrivals do not wait for completions,
//! so nothing bounds the I/Os they keep in flight: the reservation gives
//! them one share of the device's page budget, and an overloaded
//! open-loop cell outgrows it by design. `fleet_props.rs` checks
//! open-loop hosts below the budget.

use blkstack::iosched::SchedKind;
use dd_check::{check, prop_assert_eq};
use dd_nvme::flash::GcConfig;
use dd_nvme::NamespaceId;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{FioJob, RwPattern, YcsbMix};
use simkit::{FaultClasses, FaultSpec, SimDuration};
use testbed::scenario::{AppKind, MachinePreset, Scenario, StackSpec, TenantKind, TenantSpec};
use testbed::{Machine, RunArena};

fn random_stack(c: &mut dd_check::Case) -> StackSpec {
    match c.u8_in(0, 8) {
        0 => StackSpec::vanilla(),
        1 => StackSpec::vanilla_sched(SchedKind::MqDeadline),
        2 => StackSpec::vanilla_sched(SchedKind::Kyber),
        3 => StackSpec::blk_switch(),
        4 => StackSpec::overprov(),
        5 => StackSpec::daredevil(),
        6 => StackSpec::virtio(StackSpec::daredevil(), true),
        _ => StackSpec::virtio(StackSpec::daredevil(), false),
    }
}

/// A closed-loop FIO job of random pattern, size (up to 512 KiB, so bios
/// split) and depth.
fn random_job(c: &mut dd_check::Case) -> FioJob {
    let rw = match c.u8_in(0, 5) {
        0 => RwPattern::RandRead,
        1 => RwPattern::RandWrite,
        2 => RwPattern::SeqRead,
        3 => RwPattern::SeqWrite,
        _ => RwPattern::RandMix {
            read_pct: c.u8_in(0, 101),
        },
    };
    let block_size = 4096 << c.u32_in(0, 8);
    FioJob::new(rw, block_size, c.u32_in(1, 65)).with_sync_pct(c.u8_in(0, 30))
}

/// A small app: a YCSB mix over a store whose memtable flushes and whose
/// cache misses often, or a mailserver with a small page cache.
fn random_app(c: &mut dd_check::Case) -> AppKind {
    let ops = c.u64_in(50, 400);
    if c.bool_with(0.7) {
        let mix = [YcsbMix::A, YcsbMix::B, YcsbMix::E, YcsbMix::F][c.usize_in(0, 4)];
        AppKind::Ycsb {
            mix,
            config: KvConfig {
                keys: 20_000,
                cache_blocks: c.u64_in(16, 2_000),
                memtable_entries: c.u64_in(4, 64),
                flush_writes: c.u32_in(1, 16),
                compaction_writes: c.u32_in(1, 48),
                scan_blocks: c.u32_in(1, 80),
                ..KvConfig::default()
            },
            ops,
        }
    } else {
        AppKind::Mailserver {
            config: MailConfig {
                files: 2_000,
                file_blocks: c.u32_in(1, 48),
                cache_blocks: c.u64_in(8, 512),
                ..MailConfig::default()
            },
            ops,
        }
    }
}

/// Random closed-loop scenario: any stack, a Small or SV-M machine, a
/// random §7.1 population whose T-jobs are redrawn, up to two apps, any
/// fault classes, GC on or off, and storms on or off.
fn random_scenario(c: &mut dd_check::Case) -> Scenario {
    let stack = random_stack(c);
    let preset = if c.bool_with(0.5) {
        MachinePreset::Small
    } else {
        MachinePreset::SvM
    };
    let cores = c.u16_in(1, 5);
    let mut s = Scenario::multi_tenant_fio(stack, c.u16_in(0, 4), c.u16_in(0, 5), cores, preset);
    for t in &mut s.tenants {
        if t.class_label == "T" {
            t.kind = TenantKind::Fio(random_job(c));
        }
    }
    let apps = c.usize_in(0, 3);
    for i in 0..apps.max(usize::from(s.tenants.is_empty())) {
        s.tenants.push(TenantSpec {
            class_label: "app",
            ionice: blkstack::IoPriorityClass::RealTime,
            core: i as u16 % cores,
            nsid: NamespaceId(1),
            kind: TenantKind::App(random_app(c)),
            slo: None,
        });
    }
    let classes = FaultClasses {
        die_spikes: c.bool_with(0.3),
        irq_loss: c.bool_with(0.3),
        nsq_stalls: c.bool_with(0.3),
    };
    if classes.any() {
        let seed = c.any_u64();
        s.knobs.faults = Some(if c.bool_with(0.5) {
            FaultSpec::aggressive(classes, seed)
        } else {
            FaultSpec::new(classes, seed)
        });
    }
    if c.bool_with(0.3) {
        s.nvme.flash = s.nvme.flash.with_gc(GcConfig {
            write_threshold_pages: c.u64_in(16, 512),
            ..GcConfig::default()
        });
    }
    if c.bool_with(0.2) {
        s.ionice_storm = Some(SimDuration::from_micros(c.u64_in(300, 3_000)));
    }
    if c.bool_with(0.2) {
        s.migrate_storm = Some(SimDuration::from_micros(c.u64_in(300, 3_000)));
    }
    s.knobs.seed = c.any_u64();
    s.knobs.warmup = SimDuration::from_millis(c.u64_in(0, 3));
    s.knobs.measure = SimDuration::from_millis(c.u64_in(4, 12));
    s.sample_width = SimDuration::from_millis(1);
    s
}

/// A closed-loop run ends with the capacity probe it was built with: no
/// reservation grows, before or after warm-up.
#[test]
fn closed_loop_runs_never_grow_a_reservation() {
    check("closed_loop_runs_never_grow_a_reservation", |c| {
        let s = random_scenario(c);
        let name = s.stack.name();
        let mut arena = RunArena::new();
        let mut machine = Machine::new_in(s, &mut arena);
        let built = machine.capacity_probe();
        let out = machine.run_in(&mut arena);
        prop_assert_eq!(out.cap_warmup, built, "{}: grew during warm-up", name);
        prop_assert_eq!(out.cap_end, built, "{}: grew after warm-up", name);
        Ok(())
    });
}
