//! Quickstart: run one multi-tenant scenario under Daredevil and print the
//! paper's headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use daredevil_repro::prelude::*;

fn main() {
    // 4 latency-sensitive tenants (4 KiB random reads, queue depth 1,
    // real-time ionice) against 8 throughput tenants (128 KiB, depth 32)
    // sharing 4 cores — the paper's §7.1 population at one pressure stage.
    let mut scenario =
        Scenario::multi_tenant_fio(StackSpec::daredevil(), 4, 8, 4, MachinePreset::SvM);
    scenario.knobs.warmup = SimDuration::from_millis(20);
    scenario.knobs.measure = SimDuration::from_millis(200);

    let out = daredevil_repro::testbed::run(scenario);

    println!("{}", out.summary.headline());
    let l = out.summary.class("L");
    println!(
        "L-tenants: p50={} p99={} p99.9={} over {} I/Os",
        l.latency.p50(),
        l.latency.p99(),
        l.latency.p999(),
        l.ios_completed
    );
    let t = out.summary.class("T");
    println!(
        "T-tenants: {:.0} MB/s over {} I/Os",
        t.throughput_mbps(out.summary.window_secs()),
        t.ios_completed
    );
    println!(
        "simulator: {} events, flash queue delay {}",
        out.summary.events_processed, out.flash_queue_delay
    );
}
