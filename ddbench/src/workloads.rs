//! The four workloads, each a fixed list of cells built only through
//! `testbed`'s public scenario API. See the crate docs for why each exists.

use blkstack::IoPriorityClass;
use dd_nvme::NamespaceId;
use dd_workload::kvsim::KvConfig;
use dd_workload::mailserver::MailConfig;
use dd_workload::{tenants, YcsbMix};
use simkit::{FaultClasses, FaultSpec, SimDuration, TraceSpec};
use testbed::scenario::AppKind;
use testbed::{
    FleetSpec, MachinePreset, Scenario, StackSpec, TenantKind, TenantPopulation, TenantSpec,
};

/// Workload names, in the order a full run measures them.
pub const NAMES: [&str; 4] = ["hol", "fleet10k", "apps", "hostile"];

// Sizes: one full pass of each workload takes 0.8–1.5 s of host time on an
// unloaded 2-core 2.1 GHz x86-64 host, so a 20 s run holds 7–20 passes to
// take medians over.

/// How much more a workload's host time stretches than the reference
/// kernel's when the host is loaded, as the exponent of
/// `calib::time_scale`. `fleet10k` waits on memory for its per-tenant
/// state as the kernel does; the others keep their hot state in the caches
/// and slow more (`calib.rs` has the measurements).
pub fn sensitivity(name: &str) -> f64 {
    if name == "fleet10k" {
        1.0
    } else {
        1.3
    }
}

/// Warm-up before every measured window.
const WARMUP: SimDuration = SimDuration::from_millis(100);
/// Measured window of each `hol` cell.
const HOL_MEASURE: SimDuration = SimDuration::from_secs(4);
/// Measured window of each `fleet10k` cell.
const FLEET_MEASURE: SimDuration = SimDuration::from_secs(4);
/// Measured window of each mixed (4 L + 8 T) `hostile` cell.
const HOSTILE_MEASURE: SimDuration = SimDuration::from_secs(4);
/// Measured window of each L-only `hostile` cell.
const SPARSE_MEASURE: SimDuration = SimDuration::from_secs(2);
/// YCSB-A operations per `apps` cell.
const YCSB_OPS: u64 = 2_700;
/// Mailserver operations per `apps` cell.
const MAIL_OPS: u64 = 2_000;
/// Ceiling for the run-to-completion `apps` cells; every app finishes
/// long before it.
const APP_CEILING: SimDuration = SimDuration::from_secs(120);

/// Share of sync reads of the two outlier T-tenants of an `apps` cell.
/// troute tags a tenant when, over a 64-request window, outliers are at
/// least a tenth of the rest; at 10 % about 63 % of windows cross that
/// line, so the tag flips often and both outlier paths run.
const OUTLIER_SYNC_PCT: u8 = 10;

/// The L-tenant SLO (2 ms, as in the paper's §7.1 tail budget).
const L_SLO: SimDuration = SimDuration::from_millis(2);

/// What one cell runs.
pub enum Spec {
    /// One machine.
    Machine(Scenario),
    /// A fleet: `FleetSpec::expand` gives one machine per host.
    Fleet(FleetSpec),
}

/// One cell of a workload.
pub struct Cell {
    /// Stable label (`"daredevil"`, `"daredevil-ycsb"`, …).
    pub label: String,
    /// The stack crate that serves the cell (its per-layer `run_s` name).
    pub layer: &'static str,
    /// The scenario or fleet.
    pub spec: Spec,
}

/// The stack crate a spec exercises.
fn layer(stack: &StackSpec) -> &'static str {
    match stack {
        StackSpec::Vanilla(_) => "vanilla",
        StackSpec::BlkSwitch(_) => "blkswitch",
        StackSpec::Overprov => "overprov",
        StackSpec::Daredevil(_) => "daredevil",
        StackSpec::Virtio { .. } => "virtio",
    }
}

fn four_stacks() -> [StackSpec; 4] {
    [
        StackSpec::vanilla(),
        StackSpec::blk_switch(),
        StackSpec::overprov(),
        StackSpec::daredevil(),
    ]
}

/// `window / div`, never below one microsecond.
fn cut(window: SimDuration, div: u32) -> SimDuration {
    SimDuration::from_nanos((window.as_nanos() / div as u64).max(1_000))
}

/// The §7.1 population (`nr_l` L-tenants with the 2 ms SLO, `nr_t`
/// T-tenants) on 4 SV-M cores.
fn fio_cell(stack: StackSpec, nr_l: u16, nr_t: u16, measure: SimDuration) -> Cell {
    let layer = layer(&stack);
    let label = stack.name().to_string();
    let mut s = Scenario::multi_tenant_fio(stack, nr_l, nr_t, 4, MachinePreset::SvM);
    for t in &mut s.tenants {
        if t.class_label == "L" {
            t.slo = Some(L_SLO);
        }
    }
    s.knobs.measure = measure;
    Cell {
        label,
        layer,
        spec: Spec::Machine(s),
    }
}

/// The Fig. 12 shape: one real-time app tenant beside 8 streaming 128 KiB
/// QD32 T-tenants on 4 SV-M cores, run until the app finishes. Two of the
/// T-tenants flag [`OUTLIER_SYNC_PCT`] % of their reads sync, so troute's
/// outlier profiler tags and untags them and both outlier paths (the
/// tagged NSQ and the per-request query) carry traffic.
fn app_cell(stack: StackSpec, app: AppKind, name: &str) -> Cell {
    let layer = layer(&stack);
    let label = format!("{}-{name}", stack.name());
    let mut s = Scenario::new(label.clone(), MachinePreset::SvM, stack);
    s.tenants.push(TenantSpec {
        class_label: "app",
        ionice: IoPriorityClass::RealTime,
        core: 0,
        nsid: NamespaceId(1),
        kind: TenantKind::App(app),
        slo: None,
    });
    for i in 0..8u16 {
        let sync_pct = if i < 6 { 0 } else { OUTLIER_SYNC_PCT };
        let job = tenants::streaming_job().with_sync_pct(sync_pct);
        s.tenants.push(TenantSpec {
            class_label: "T",
            ionice: IoPriorityClass::BestEffort,
            core: (1 + i) % 4,
            nsid: NamespaceId(1),
            kind: TenantKind::Fio(job),
            slo: None,
        });
    }
    s.core_pool = 4;
    s.stop_when_apps_done = true;
    s.knobs.measure = APP_CEILING;
    Cell {
        label,
        layer,
        spec: Spec::Machine(s),
    }
}

/// A `hostile` cell: the 4 L-tenants with every fault class on, an ionice
/// storm every 1 ms and a migrate storm every 2 ms. `mixed` adds 8
/// T-tenants under the default fault schedule; otherwise the L-tenants run
/// alone under the aggressive one.
fn hostile_cell(stack: StackSpec, mixed: bool, seed: u64, div: u32) -> Cell {
    let fs = fault_seed(seed);
    let (nr_t, faults, measure, name) = if mixed {
        (
            8,
            FaultSpec::new(FaultClasses::ALL, fs),
            HOSTILE_MEASURE,
            "mixed",
        )
    } else {
        (
            0,
            FaultSpec::aggressive(FaultClasses::ALL, fs),
            SPARSE_MEASURE,
            "l-only",
        )
    };
    let mut c = fio_cell(stack, 4, nr_t, cut(measure, div));
    c.label = format!("{}-{name}", c.label);
    if let Spec::Machine(s) = &mut c.spec {
        s.knobs.faults = Some(faults);
        s.ionice_storm = Some(SimDuration::from_millis(1));
        s.migrate_storm = Some(SimDuration::from_millis(2));
    }
    c
}

/// The fault seed of a run, derived from its workload seed.
fn fault_seed(seed: u64) -> u64 {
    seed.rotate_left(17) ^ 0xDD
}

/// Builds workload `name` from `seed`, with warm-up and measured windows
/// (and app op counts) cut to `1/div` and every machine traced with
/// `trace`.
/// `None` for an unknown name.
pub fn cells(name: &str, seed: u64, div: u32, trace: Option<TraceSpec>) -> Option<Vec<Cell>> {
    let mut cells: Vec<Cell> = match name {
        "hol" => {
            let mut stacks = four_stacks().to_vec();
            stacks.push(StackSpec::virtio(StackSpec::daredevil(), true));
            stacks
                .into_iter()
                .map(|stack| fio_cell(stack, 4, 16, cut(HOL_MEASURE, div)))
                .collect()
        }
        "fleet10k" => four_stacks()
            .into_iter()
            .map(|stack| {
                let layer = layer(&stack);
                let label = stack.name().to_string();
                let mut f = FleetSpec::new(
                    format!("fleet10k-{label}"),
                    4,
                    MachinePreset::SvM,
                    stack,
                    TenantPopulation::zipfian(10_000, 20_000.0),
                );
                f.knobs.measure = cut(FLEET_MEASURE, div);
                Cell {
                    label,
                    layer,
                    spec: Spec::Fleet(f),
                }
            })
            .collect(),
        "apps" => {
            let kv = KvConfig {
                keys: 200_000,
                cache_blocks: 40_000,
                memtable_entries: 500,
                ..KvConfig::default()
            };
            let ycsb_ops = (YCSB_OPS / div as u64).max(1);
            let mail_ops = (MAIL_OPS / div as u64).max(1);
            // No blk-switch: when its apps finish, and so its host time,
            // depends on the seed (its run time spread by 21 %, quartile
            // distance over median, across ten seeds), so this workload's
            // host time would mostly measure the seed.
            [StackSpec::vanilla(), StackSpec::daredevil()]
                .into_iter()
                .flat_map(|stack| {
                    let ycsb = AppKind::Ycsb {
                        mix: YcsbMix::A,
                        config: kv,
                        ops: ycsb_ops,
                    };
                    let mail = AppKind::Mailserver {
                        config: MailConfig::default(),
                        ops: mail_ops,
                    };
                    [
                        app_cell(stack.clone(), ycsb, "ycsb"),
                        app_cell(stack, mail, "mail"),
                    ]
                })
                .collect()
        }
        // Two cells per stack. In the mixed cell T pressure keeps the fetch
        // engine busy, so the stall watchdog never has to redrive. The
        // L-only cell, under the aggressive fault schedule, leaves the
        // engine idle behind stalled NSQs, which is when redrives fire.
        "hostile" => four_stacks()
            .into_iter()
            .flat_map(|stack| {
                [
                    hostile_cell(stack.clone(), true, seed, div),
                    hostile_cell(stack, false, seed, div),
                ]
            })
            .collect(),
        _ => return None,
    };
    for c in &mut cells {
        let knobs = match &mut c.spec {
            Spec::Machine(s) => &mut s.knobs,
            Spec::Fleet(f) => &mut f.knobs,
        };
        knobs.seed = seed;
        knobs.warmup = cut(WARMUP, div);
        knobs.trace = trace;
    }
    Some(cells)
}
