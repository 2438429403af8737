//! Property-based tests of the fleet layer (dd-check harness).
//!
//! The fleet contract (DESIGN "Fleet layer"): a [`FleetSpec`] is a pure
//! description — expansion, placement, per-host seeding, and the open-loop
//! arrival schedules are all derived deterministically from the spec — so
//! a fleet run's [`testbed::FleetOutput::digest`] must be identical across
//! re-runs, across host execution orders, and across warm vs cold
//! [`RunArena`]s (the `--jobs 1` vs `--jobs N` witness). These properties
//! check that against live simulations, plus the statistical contract of
//! the Zipfian sampler the population model leans on and the
//! capacity-stability claim behind the 10k-tenant scale point.

use dd_check::{check, prop_assert, prop_assert_eq};
use simkit::{SimDuration, SimRng, Zipfian};
use testbed::fleet::{FleetSpec, TenantPopulation};
use testbed::scenario::{MachinePreset, StackSpec};
use testbed::{FleetOutput, Machine, RunArena};

/// Random-but-small fleet spec: 2–4 hosts, up to a few hundred tenants,
/// short windows — cheap enough for a dd-check
/// case corpus while exercising the same expansion paths as 10k tenants.
fn random_fleet(c: &mut dd_check::Case) -> FleetSpec {
    let hosts = c.u16_in(2, 4);
    let tenants = c.u32_in(hosts as u32 * 8, 400);
    let stack = match c.u8_in(0, 4) {
        0 => StackSpec::vanilla(),
        1 => StackSpec::blk_switch(),
        2 => StackSpec::overprov(),
        _ => StackSpec::daredevil(),
    };
    let mut pop = TenantPopulation::zipfian(tenants, 2_000.0 + c.u64_in(0, 10_000) as f64);
    pop.theta = 0.5 + c.u64_in(0, 45) as f64 / 100.0;
    let mut f = FleetSpec::new("prop", hosts, MachinePreset::Small, stack, pop);
    f.knobs.seed = c.any_u64();
    f.knobs.warmup = SimDuration::from_millis(1);
    f.knobs.measure = SimDuration::from_millis(c.u64_in(4, 8));
    f
}

/// The Zipfian sampler is deterministic per seed and its empirical rank
/// frequencies track the analytic `1/(r+1)^θ / ζ(n,θ)` weights: the head
/// ranks appear with their predicted mass (within sampling tolerance) and
/// popularity is monotone down the head of the distribution.
#[test]
fn zipfian_rank_frequencies_match_theta() {
    check("zipfian_rank_frequencies_match_theta", |c| {
        let n = c.u64_in(50, 2_000);
        let theta = 0.5 + c.u64_in(0, 45) as f64 / 100.0;
        let seed = c.any_u64();
        let z = Zipfian::new(n, theta);

        // Determinism: the same seed replays the same sample stream.
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(z.sample(&mut a), z.sample(&mut b), "seeded replay diverged");
        }

        // Frequencies: counts of the head ranks vs their analytic shares.
        let samples = 60_000u64;
        let mut rng = SimRng::new(seed ^ 0xDECAF);
        let head = 8usize.min(n as usize);
        let mut counts = vec![0u64; head];
        for _ in 0..samples {
            let r = z.sample(&mut rng);
            prop_assert!(r < n, "sample {} out of domain {}", r, n);
            if (r as usize) < head {
                counts[r as usize] += 1;
            }
        }
        let zeta: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        for (r, &cnt) in counts.iter().enumerate() {
            let expect = samples as f64 / ((r + 1) as f64).powf(theta) / zeta;
            let got = cnt as f64;
            // 20 % relative + small absolute slack covers sampling noise
            // on the thinner head ranks across the whole (n, θ) range.
            prop_assert!(
                (got - expect).abs() <= 0.2 * expect + 60.0,
                "rank {} of n={} θ={}: {} samples vs {:.1} expected",
                r,
                n,
                theta,
                cnt,
                expect
            );
        }
        for r in 1..head {
            prop_assert!(
                counts[r - 1] + 60 >= counts[r],
                "rank {} more popular than rank {} (θ={})",
                r,
                r - 1,
                theta
            );
        }
        Ok(())
    });
}

/// A fleet run's digest is a pure function of its spec: re-running the
/// same spec — fresh arenas, warm arenas, hosts executed in reverse order
/// — always produces the same digest. This is the serial-vs-parallel
/// witness behind the `--jobs 1` vs `--jobs N` byte-identity gate.
#[test]
fn fleet_digest_is_deterministic() {
    check("fleet_digest_is_deterministic", |c| {
        let f = random_fleet(c);

        let mut arena = RunArena::new();
        let first = testbed::run_fleet(&f, &mut arena);
        // Same warm arena re-run: recycled capacity must not leak state.
        let second = testbed::run_fleet(&f, &mut arena);
        prop_assert_eq!(
            first.digest(),
            second.digest(),
            "warm-arena re-run changed the digest"
        );

        // Reverse host order on fresh per-host arenas — the execution
        // binding a parallel sweep produces — reassembled in host order.
        let mut hosts: Vec<_> = f.expand().into_iter().enumerate().collect();
        hosts.reverse();
        let mut outs: Vec<_> = hosts
            .into_iter()
            .map(|(i, s)| {
                let mut fresh = RunArena::new();
                (i, testbed::run_in(s, &mut fresh))
            })
            .collect();
        outs.sort_by_key(|(i, _)| *i);
        let reversed = FleetOutput {
            hosts: outs.into_iter().map(|(_, o)| o).collect(),
        };
        prop_assert_eq!(
            first.digest(),
            reversed.digest(),
            "host execution order leaked into the digest"
        );
        prop_assert!(
            first.ios_completed() > 0,
            "fleet completed nothing — load too low to test anything"
        );
        Ok(())
    });
}

/// An open-loop host below the device's page budget never grows a
/// reservation. `Scenario::io_bounds` gives the open-loop tenants one
/// share of the budget between them, not an allowance each, and this is
/// where that share is checked: random L-only fleets (every command one
/// page) on the Small preset, at up to 40k IOPS across the fleet, end each
/// host's run with the capacity probe taken right after `Machine::new_in`.
#[test]
fn open_loop_hosts_below_the_page_budget_never_grow() {
    check("open_loop_hosts_below_the_page_budget_never_grow", |c| {
        let mut f = random_fleet(c);
        f.population.l_fraction = 1.0;
        f.population.fleet_iops = c.u64_in(2_000, 40_001) as f64;
        let mut arena = RunArena::new();
        let mut hosts = Vec::new();
        for s in f.expand() {
            let name = s.name.clone();
            let mut machine = Machine::new_in(s, &mut arena);
            let built = machine.capacity_probe();
            let out = machine.run_in(&mut arena);
            prop_assert_eq!(out.cap_warmup, built, "{}: grew during warm-up", name);
            prop_assert_eq!(out.cap_end, built, "{}: grew after warm-up", name);
            hosts.push(out);
        }
        prop_assert!(
            FleetOutput { hosts }.ios_completed() > 0,
            "fleet completed nothing — load too low to test anything"
        );
        Ok(())
    });
}

/// The 10k-tenant scale point of the paper's fleet figure: one fixed
/// 4-host daredevil fleet at 10 000 tenants runs to the same digest twice
/// (fresh vs warm arena), and no per-I/O slab or event-queue backbone
/// grows between end-of-warmup and end-of-run on any host — allocation
/// reaches steady state during warmup even at fleet scale.
#[test]
fn ten_k_tenants_deterministic_and_capacity_stable() {
    let mut f = FleetSpec::new(
        "10k",
        4,
        MachinePreset::SvM,
        StackSpec::daredevil(),
        TenantPopulation::zipfian(10_000, 20_000.0),
    );
    f.knobs.warmup = SimDuration::from_millis(5);
    f.knobs.measure = SimDuration::from_millis(20);

    let mut arena = RunArena::new();
    let first = testbed::run_fleet(&f, &mut arena);
    let second = testbed::run_fleet(&f, &mut arena);
    assert_eq!(
        first.digest(),
        second.digest(),
        "10k-tenant fleet digest not reproducible"
    );
    assert!(first.ios_completed() > 0, "10k fleet completed nothing");

    for (h, host) in first.hosts.iter().enumerate() {
        assert_eq!(
            host.cap_warmup.io_slots, host.cap_end.io_slots,
            "host {h}: per-I/O slab capacity grew mid-run \
             ({} -> {} slots)",
            host.cap_warmup.io_slots, host.cap_end.io_slots
        );
        assert_eq!(
            host.cap_warmup.events, host.cap_end.events,
            "host {h}: event-queue capacity grew mid-run \
             ({} -> {} slots)",
            host.cap_warmup.events, host.cap_end.events
        );
        assert_eq!(
            host.cap_warmup.device_cmds, host.cap_end.device_cmds,
            "host {h}: device command-slab capacity grew mid-run \
             ({} -> {} commands)",
            host.cap_warmup.device_cmds, host.cap_end.device_cmds
        );
    }
}
