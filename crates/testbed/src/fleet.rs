//! Fleet-scale tenancy: one sweep cell = many hosts, thousands of tenants.
//!
//! A [`FleetSpec`] describes a *fleet*: `hosts` independent machines (each
//! its own [`crate::Machine`] event loop, recycled through the per-worker
//! [`simkit::RunArena`]), a [`TenantPopulation`] that expands 1k–10k
//! tenants from a Zipfian(θ) popularity skew over L/T SLA classes and
//! places them round-robin over the hosts, and an [`ArrivalSpec`] that
//! turns each tenant's popularity share into an
//! open-loop [`dd_workload::ArrivalModel`] (diurnal sinusoid × bursty
//! on/off, per-tenant phases) instead of the closed-loop tenant specs
//! single-machine scenarios use.
//!
//! [`FleetSpec::expand`] is a pure function of the spec: it derives every
//! random choice (SLA class, diurnal/burst phases) from `knobs.seed` via a
//! dedicated expansion RNG, and gives each host a distinct derived seed —
//! so the same spec always expands to the same per-host [`Scenario`]s, and
//! hosts can run serially, in any worker order, or on different processes
//! with byte-identical results ([`crate::FleetOutput::digest`] is the
//! property-tested witness). Determinism rules for the open-loop arrivals
//! themselves are documented in `DESIGN.md` §"Fleet layer".

use dd_nvme::NamespaceId;
use dd_workload::{ArrivalModel, FioJob, RwPattern};
use simkit::SimDuration;

use crate::scenario::{MachinePreset, RunKnobs, Scenario, StackSpec, TenantKind, TenantSpec};

/// SplitMix64-style avalanche used to derive per-host seeds and the
/// expansion RNG seed from `knobs.seed` without correlating the streams.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet's tenant population, expanded from a Zipfian popularity skew.
///
/// Tenant *rank* 0 is the most popular: rank `r` receives a share of
/// `fleet_iops` proportional to `1/(r+1)^θ`. Each tenant is independently
/// latency-critical (class `"L"`, 4 KiB random reads, real-time ionice,
/// `l_slo`) with probability `l_fraction`, otherwise bulk (`"T"`, 128 KiB
/// writes, best-effort ionice, `t_slo`) — the QWin-style consolidation of
/// tail-sensitive and throughput tenants on shared backends.
#[derive(Clone, Copy, Debug)]
pub struct TenantPopulation {
    /// Total tenants across the fleet (the paper-scale axis: 1k–10k).
    pub tenants: u32,
    /// Zipfian skew θ ∈ (0, 1); 0.99 is the YCSB-canonical setting.
    pub theta: f64,
    /// Aggregate offered load across the whole fleet, in I/Os per second.
    pub fleet_iops: f64,
    /// Probability a tenant is latency-critical, in `[0, 1]`.
    pub l_fraction: f64,
    /// Latency SLO for L-tenants (per-completion violation threshold).
    pub l_slo: SimDuration,
    /// Latency SLO for T-tenants.
    pub t_slo: SimDuration,
}

impl TenantPopulation {
    /// A population of `tenants` with YCSB skew, 20 % latency-critical,
    /// 2 ms / 50 ms class SLOs, offered `fleet_iops` in aggregate.
    pub fn zipfian(tenants: u32, fleet_iops: f64) -> Self {
        TenantPopulation {
            tenants,
            theta: 0.99,
            fleet_iops,
            l_fraction: 0.2,
            l_slo: SimDuration::from_millis(2),
            t_slo: SimDuration::from_millis(50),
        }
    }
}

/// Shape of the open-loop arrival modulation shared by every tenant; each
/// tenant gets its own diurnal/burst *phases* (drawn from the expansion
/// RNG) so the fleet does not synchronise.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalSpec {
    /// Diurnal swing as a fraction of the tenant's base rate, `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of the simulated "day" (scaled to run lengths: milliseconds
    /// here stand in for hours of wall clock).
    pub diurnal_period: SimDuration,
    /// Period of the on/off burst wave.
    pub burst_period: SimDuration,
    /// Fraction of each burst period spent "on".
    pub burst_duty: f64,
    /// Rate multiplier while "on" (`duty × multiplier ≤ 1`).
    pub burst_multiplier: f64,
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec {
            diurnal_amplitude: 0.4,
            diurnal_period: SimDuration::from_millis(200),
            burst_period: SimDuration::from_millis(20),
            burst_duty: 0.2,
            burst_multiplier: 3.0,
        }
    }
}

/// A fleet cell: N hosts, a Zipfian tenant population placed round-robin
/// (rank `r` on host `r mod hosts`, so popularity spreads evenly, as a
/// well-run fleet scheduler places it), open-loop arrivals, and the same [`RunKnobs`] a single-machine
/// [`Scenario`] owns — reused verbatim, so every cross-cutting knob
/// (durations, seed, tracing, faults) applies to each host without
/// re-plumbing.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Fleet label; host `h` runs as scenario `"{name}-h{h}"`.
    pub name: String,
    /// Number of hosts (independent machines).
    pub hosts: u16,
    /// Machine preset every host uses.
    pub preset: MachinePreset,
    /// Storage stack every host runs.
    pub stack: StackSpec,
    /// The tenant population expanded over the fleet.
    pub population: TenantPopulation,
    /// Open-loop arrival modulation shape.
    pub arrival: ArrivalSpec,
    /// Cross-cutting run knobs, shared verbatim with [`Scenario`]. The
    /// seed feeds both the expansion RNG and the per-host machine seeds.
    pub knobs: RunKnobs,
}

impl FleetSpec {
    /// A fleet with default arrival modulation and default knobs.
    pub fn new(
        name: impl Into<String>,
        hosts: u16,
        preset: MachinePreset,
        stack: StackSpec,
        population: TenantPopulation,
    ) -> Self {
        assert!(hosts > 0, "fleet needs at least one host");
        assert!(
            population.tenants >= hosts as u32,
            "fewer tenants than hosts leaves empty machines"
        );
        FleetSpec {
            name: name.into(),
            hosts,
            preset,
            stack,
            population,
            arrival: ArrivalSpec::default(),
            knobs: RunKnobs::default(),
        }
    }

    /// Expands the fleet into one [`Scenario`] per host, deterministically
    /// from the spec (see the module docs). Host `h` of the result runs as
    /// an independent machine; run them in any order.
    pub fn expand(&self) -> Vec<Scenario> {
        let pop = &self.population;
        assert!(
            (0.0..1.0).contains(&pop.theta) && pop.theta > 0.0,
            "theta must be in (0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&pop.l_fraction),
            "l_fraction must be in [0, 1]"
        );
        assert!(pop.fleet_iops > 0.0, "fleet_iops must be positive");

        // Zipfian popularity: rank r's share of the fleet load.
        let weights: Vec<f64> = (0..pop.tenants)
            .map(|r| 1.0 / ((r + 1) as f64).powf(pop.theta))
            .collect();
        let total: f64 = weights.iter().sum();

        // Every random expansion choice comes from this one stream, drawn
        // in rank order, so the expansion is reproducible.
        let mut xrng = simkit::SimRng::new(mix_seed(self.knobs.seed, 0xF1EE7));

        let mut scenarios: Vec<Scenario> = (0..self.hosts)
            .map(|h| {
                let mut s = Scenario::new(
                    format!("{}-h{}", self.name, h),
                    self.preset,
                    self.stack.clone(),
                );
                s.knobs = self.knobs.clone();
                // Distinct machine seed per host, derived — not sequential —
                // so host RNG streams never overlap.
                s.knobs.seed = mix_seed(self.knobs.seed, 1 + h as u64);
                // Rank r lands on host r % hosts: exactly this many.
                let n = pop.tenants as usize;
                let hosts = self.hosts as usize;
                s.tenants
                    .reserve_exact(n / hosts + usize::from((h as usize) < n % hosts));
                s
            })
            .collect();
        let mut next_core = vec![0u16; self.hosts as usize];

        for rank in 0..pop.tenants {
            let share = weights[rank as usize] / total;
            let rate = pop.fleet_iops * share;
            let is_l = xrng.gen_bool(pop.l_fraction);
            let diurnal_phase = xrng.gen_f64();
            let burst_phase = xrng.gen_f64();

            let model = ArrivalModel::open(rate)
                .with_diurnal(
                    self.arrival.diurnal_amplitude,
                    self.arrival.diurnal_period,
                    diurnal_phase,
                )
                .with_bursts(
                    self.arrival.burst_period,
                    self.arrival.burst_duty,
                    self.arrival.burst_multiplier,
                    burst_phase,
                );
            let (class_label, ionice, job, slo) = if is_l {
                (
                    "L",
                    blkstack::IoPriorityClass::RealTime,
                    FioJob::new(RwPattern::RandRead, 4096, 1).with_arrival(model),
                    pop.l_slo,
                )
            } else {
                (
                    "T",
                    blkstack::IoPriorityClass::BestEffort,
                    FioJob::new(RwPattern::RandWrite, 128 * 1024, 1).with_arrival(model),
                    pop.t_slo,
                )
            };

            let host = (rank % self.hosts as u32) as usize;
            let s = &mut scenarios[host];
            let core = next_core[host] % s.core_pool;
            next_core[host] = next_core[host].wrapping_add(1);
            s.tenants.push(TenantSpec {
                class_label,
                ionice,
                core,
                nsid: NamespaceId(1),
                kind: TenantKind::Fio(job),
                slo: Some(slo),
            });
        }

        for s in &scenarios {
            assert!(
                !s.tenants.is_empty(),
                "host {} got no tenant — use more tenants or fewer hosts",
                s.name
            );
        }
        scenarios
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(tenants: u32, hosts: u16) -> FleetSpec {
        let mut f = FleetSpec::new(
            "t",
            hosts,
            MachinePreset::Small,
            StackSpec::daredevil(),
            TenantPopulation::zipfian(tenants, 50_000.0),
        );
        f.knobs.warmup = SimDuration::from_millis(2);
        f.knobs.measure = SimDuration::from_millis(5);
        f
    }

    #[test]
    fn expand_is_deterministic() {
        let f = quick_spec(200, 4);
        let a = f.expand();
        let b = f.expand();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.knobs.seed, y.knobs.seed);
            assert_eq!(x.tenants.len(), y.tenants.len());
            for (tx, ty) in x.tenants.iter().zip(&y.tenants) {
                assert_eq!(tx.class_label, ty.class_label);
                assert_eq!(tx.core, ty.core);
                assert_eq!(tx.slo, ty.slo);
            }
        }
    }

    #[test]
    fn expand_reserves_each_host_exactly() {
        // 203 tenants over 4 hosts: 51, 51, 51, 50.
        for (i, s) in quick_spec(203, 4).expand().iter().enumerate() {
            assert_eq!(s.tenants.len(), if i < 3 { 51 } else { 50 });
            assert_eq!(s.tenants.capacity(), s.tenants.len());
        }
    }

    #[test]
    fn class_split_tracks_l_fraction() {
        let f = quick_spec(2000, 4);
        let l: usize = f
            .expand()
            .iter()
            .map(|s| s.tenants.iter().filter(|t| t.class_label == "L").count())
            .sum();
        let frac = l as f64 / 2000.0;
        assert!((frac - 0.2).abs() < 0.05, "L fraction {frac}");
    }

    #[test]
    fn round_robin_balances() {
        let f = quick_spec(1000, 4);
        let sizes: Vec<usize> = f.expand().iter().map(|s| s.tenants.len()).collect();
        assert!(sizes.iter().all(|&n| n == 250), "{sizes:?}");
    }

    #[test]
    fn expanded_scenarios_validate_and_seed_differs() {
        let f = quick_spec(64, 4);
        let hosts = f.expand();
        let mut seeds: Vec<u64> = hosts.iter().map(|s| s.knobs.seed).collect();
        for s in &hosts {
            s.validate().unwrap();
            for t in &s.tenants {
                match &t.kind {
                    TenantKind::Fio(j) => assert!(j.arrival.is_some(), "fleet jobs are open-loop"),
                    other => panic!("unexpected tenant kind {other:?}"),
                }
                assert!(t.slo.is_some(), "every fleet tenant has an SLO");
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), hosts.len(), "per-host seeds must differ");
    }
}
