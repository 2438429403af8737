//! Property-based tests of the pluggable policy layer against live runs
//! (dd-check harness).
//!
//! The policy layer's whole-stack contract (DESIGN "Policy layer"): a
//! policy changes *which queue a request takes and when doorbells ring* —
//! never whether a request survives. Every built-in policy must conserve
//! requests on any scenario, replay bit-for-bit (including stateful
//! policies like fairshare's quota counter), and selecting
//! `PolicySpec::Default` explicitly must be indistinguishable from not
//! touching the policy knob at all. Checked against real simulations, not
//! the unit-level truth tables in `daredevil::policy`.

use daredevil::PolicySpec;
use dd_check::{check, prop_assert};
use simkit::SimDuration;
use testbed::scenario::{MachinePreset, Scenario, StackSpec, TenantKind};
use testbed::RunOutput;

fn random_policy(c: &mut dd_check::Case) -> PolicySpec {
    PolicySpec::ALL[c.u8_in(0, PolicySpec::ALL.len() as u8) as usize]
}

/// Random multi-tenant scenario on the Daredevil stack with a random
/// built-in policy and zero warmup (so conservation is exact over the
/// whole run).
fn random_policy_scenario(c: &mut dd_check::Case) -> Scenario {
    let nr_l = c.u16_in(1, 3);
    let nr_t = c.u16_in(0, 3);
    let cores = c.u16_in(1, 4);
    let seed = c.any_u64();
    let measure_ms = c.u64_in(5, 10);
    let mut s = Scenario::multi_tenant_fio(
        StackSpec::daredevil(),
        nr_l,
        nr_t,
        cores,
        MachinePreset::Small,
    );
    s.knobs.seed = seed;
    s.knobs.warmup = SimDuration::ZERO;
    s.knobs.measure = SimDuration::from_millis(measure_ms);
    s.stack = s.stack.with_policy(random_policy(c));
    s
}

/// Closed-loop conservation: everything issued is completed or within the
/// tenant's queue depth, and nothing completes twice — no matter which
/// policy routed it.
fn assert_conservation(s: &Scenario, out: &RunOutput) -> Result<(), dd_check::Failure> {
    for t in &out.summary.tenants {
        let spec = &s.tenants[(t.tenant_id - 1) as usize];
        let TenantKind::Fio(job) = &spec.kind else {
            continue;
        };
        prop_assert!(
            t.ios_completed <= t.ios_issued,
            "tenant {}: completed {} > issued {} (double completion)",
            t.tenant_id,
            t.ios_completed,
            t.ios_issued
        );
        let in_flight = t.ios_issued - t.ios_completed;
        prop_assert!(
            in_flight <= job.iodepth as u64,
            "tenant {}: {} in flight > iodepth {} (lost request)",
            t.tenant_id,
            in_flight,
            job.iodepth
        );
    }
    Ok(())
}

/// No request is lost or double-completed under any built-in policy, and
/// every run makes real progress. A policy that routes into a queue
/// nothing drains, or whose doorbell mode never rings, fails here.
#[test]
fn no_request_lost_under_any_policy() {
    check("no_request_lost_under_any_policy", |c| {
        let s = random_policy_scenario(c);
        let out = testbed::run(s.clone());
        assert_conservation(&s, &out)?;
        let total: u64 = out.summary.tenants.iter().map(|t| t.ios_completed).sum();
        prop_assert!(total > 0, "policy run completed nothing");
        Ok(())
    });
}

/// Policy decisions are fully deterministic: the same scenario with the
/// same policy replays bit-for-bit — identical event counts, identical
/// tenant tallies, identical routing-path counters. This is what lets
/// `scripts/verify.sh` hold the ext_policy figure to a byte-exact golden,
/// and it covers stateful policies (fairshare's quota counter) too.
#[test]
fn policy_runs_are_deterministic() {
    check("policy_runs_are_deterministic", |c| {
        let s = random_policy_scenario(c);
        let a = testbed::run(s.clone());
        let b = testbed::run(s);
        prop_assert!(
            a.events_processed == b.events_processed,
            "event counts diverge: {} vs {}",
            a.events_processed,
            b.events_processed
        );
        prop_assert!(
            a.route_stats == b.route_stats,
            "routing counters diverge: {:?} vs {:?}",
            a.route_stats,
            b.route_stats
        );
        for (ta, tb) in a.summary.tenants.iter().zip(b.summary.tenants.iter()) {
            prop_assert!(
                ta.ios_issued == tb.ios_issued && ta.ios_completed == tb.ios_completed,
                "tenant {} tallies diverge: {}/{} vs {}/{}",
                ta.tenant_id,
                ta.ios_issued,
                ta.ios_completed,
                tb.ios_issued,
                tb.ios_completed
            );
        }
        Ok(())
    });
}

/// `PolicySpec::Default` is the identity: asking for the default policy
/// explicitly produces the same run — same events, tallies, latencies,
/// and routing split — as never touching the policy knob. This is the
/// live-run half of the refactor-equivalence argument (the committed
/// figure goldens are the other half): extracting troute/nqreg decisions
/// behind the `Policy` trait changed no behaviour.
#[test]
fn explicit_default_policy_is_identity() {
    check("explicit_default_policy_is_identity", |c| {
        let nr_l = c.u16_in(1, 3);
        let nr_t = c.u16_in(0, 3);
        let cores = c.u16_in(1, 4);
        let seed = c.any_u64();
        let measure = SimDuration::from_millis(c.u64_in(4, 8));
        let mut base = Scenario::multi_tenant_fio(
            StackSpec::daredevil(),
            nr_l,
            nr_t,
            cores,
            MachinePreset::Small,
        );
        base.knobs.seed = seed;
        base.knobs.warmup = SimDuration::ZERO;
        base.knobs.measure = measure;
        let untouched = testbed::run(base.clone());
        base.stack = base.stack.with_policy(PolicySpec::Default);
        let explicit = testbed::run(base);
        prop_assert!(
            untouched.events_processed == explicit.events_processed,
            "event counts diverge: {} vs {}",
            untouched.events_processed,
            explicit.events_processed
        );
        prop_assert!(
            untouched.route_stats == explicit.route_stats,
            "routing counters diverge: {:?} vs {:?}",
            untouched.route_stats,
            explicit.route_stats
        );
        prop_assert!(
            untouched.summary.stack == explicit.summary.stack,
            "stack name changed by explicit default: {} vs {}",
            untouched.summary.stack,
            explicit.summary.stack
        );
        for (tu, te) in untouched
            .summary
            .tenants
            .iter()
            .zip(explicit.summary.tenants.iter())
        {
            prop_assert!(
                tu.ios_issued == te.ios_issued
                    && tu.ios_completed == te.ios_completed
                    && tu.bytes_completed == te.bytes_completed,
                "tenant {} differs under explicit default policy",
                tu.tenant_id
            );
        }
        prop_assert!(
            (untouched.l_p999_ms() - explicit.l_p999_ms()).abs() < 1e-12,
            "L p99.9 differs under explicit default policy: {} vs {}",
            untouched.l_p999_ms(),
            explicit.l_p999_ms()
        );
        Ok(())
    });
}

/// Each non-default policy is actually *plugged in*: on a fixed busy
/// scenario, every alternative produces a routing split that differs from
/// the default's, and the stack reports the policy's name. Guards against
/// a regression where `--policy` parses but the stack silently keeps
/// the default policy.
#[test]
fn alternative_policies_take_effect() {
    let scenario = |spec: PolicySpec| {
        let mut s =
            Scenario::multi_tenant_fio(StackSpec::daredevil(), 2, 2, 4, MachinePreset::Small);
        s.knobs.seed = 42;
        s.knobs.warmup = SimDuration::ZERO;
        s.knobs.measure = SimDuration::from_millis(10);
        s.stack = s.stack.with_policy(spec);
        s
    };
    let default = testbed::run(scenario(PolicySpec::Default));
    assert_eq!(default.summary.stack, "daredevil");
    for spec in [
        PolicySpec::Deadline,
        PolicySpec::SizeClass,
        PolicySpec::FairShare,
    ] {
        let out = testbed::run(scenario(spec));
        assert_eq!(
            out.summary.stack,
            format!("dare-{}", spec.name()),
            "stack name must surface the active policy"
        );
        assert_ne!(
            out.route_stats,
            default.route_stats,
            "{} produced the default routing split — policy not plugged in",
            spec.name()
        );
        assert!(
            out.route_stats.policy_queries > 0,
            "{} never took the explicit-query path: {:?}",
            spec.name(),
            out.route_stats
        );
    }
}
