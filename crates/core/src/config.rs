//! Daredevil configuration and ablation variants.

use crate::policy::PolicySpec;

/// Which subset of Daredevil's techniques is active (the §7.3 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// `dare-base`: the decoupled block layer only; requests route to the
    /// SLA-matching NQGroup but NQs inside the group are picked round-robin,
    /// and the I/O service routines stay kernel-default (batched).
    Base,
    /// `dare-sched`: `dare-base` plus merit-based NQ scheduling.
    Sched,
    /// `dare-full`: `dare-sched` plus SLA-aware I/O service dispatching
    /// (immediate doorbells and per-request completion for high priority).
    Full,
}

/// Tunables of the Daredevil stack.
#[derive(Clone, Copy, Debug)]
pub struct DaredevilConfig {
    /// Exponential smoothing weight α of the merit calculation. The paper
    /// uses 0.8 (best balance between history and recency, §7).
    pub alpha: f64,
    /// Initial MRU budget of every merit heap. The paper sets it to the NQ
    /// depth (1024 on the tested SSDs).
    pub mru: u32,
    /// Active technique subset.
    pub variant: Variant,
    /// Profiling window: outlier-tendency tags are re-evaluated every this
    /// many requests of a T-tenant.
    pub profile_window: u64,
    /// Which built-in scheduling policy drives routing, merit, and batching
    /// decisions (`--policy NAME` on the figures; see
    /// [`crate::policy`]). The default is the paper's Algorithm 1/2 +
    /// SLA-aware dispatching.
    pub policy: PolicySpec,
}

impl Default for DaredevilConfig {
    fn default() -> Self {
        DaredevilConfig {
            alpha: 0.8,
            mru: 1024,
            variant: Variant::Full,
            profile_window: 64,
            policy: PolicySpec::Default,
        }
    }
}

impl DaredevilConfig {
    /// The `dare-base` ablation.
    pub fn base() -> Self {
        DaredevilConfig {
            variant: Variant::Base,
            ..Default::default()
        }
    }

    /// The `dare-sched` ablation.
    pub fn sched() -> Self {
        DaredevilConfig {
            variant: Variant::Sched,
            ..Default::default()
        }
    }

    /// The stack's display name for this variant and policy. The paper's
    /// policy keeps the §7.3 ablation names; another policy appends its
    /// name to the ablation's (`dare-sched-deadline`), and its full variant
    /// is `dare-<policy>`.
    pub fn stack_name(&self) -> &'static str {
        match (self.variant, self.policy) {
            (Variant::Base, PolicySpec::Default) => "dare-base",
            (Variant::Sched, PolicySpec::Default) => "dare-sched",
            (Variant::Full, PolicySpec::Default) => "daredevil",
            (Variant::Base, PolicySpec::Deadline) => "dare-base-deadline",
            (Variant::Sched, PolicySpec::Deadline) => "dare-sched-deadline",
            (Variant::Full, PolicySpec::Deadline) => "dare-deadline",
            (Variant::Base, PolicySpec::SizeClass) => "dare-base-sizeclass",
            (Variant::Sched, PolicySpec::SizeClass) => "dare-sched-sizeclass",
            (Variant::Full, PolicySpec::SizeClass) => "dare-sizeclass",
            (Variant::Base, PolicySpec::FairShare) => "dare-base-fairshare",
            (Variant::Sched, PolicySpec::FairShare) => "dare-sched-fairshare",
            (Variant::Full, PolicySpec::FairShare) => "dare-fairshare",
        }
    }

    /// Validates the tunables.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.5 && self.alpha < 1.0) {
            return Err(format!("alpha must be in (0.5, 1), got {}", self.alpha));
        }
        if self.mru == 0 {
            return Err("mru must be >= 1".into());
        }
        if self.profile_window == 0 {
            return Err("profile window must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DaredevilConfig::default();
        assert_eq!(c.alpha, 0.8);
        assert_eq!(c.mru, 1024);
        assert_eq!(c.variant, Variant::Full);
        assert_eq!(c.policy, PolicySpec::Default);
        c.validate().unwrap();
    }

    #[test]
    fn ablation_constructors() {
        assert_eq!(DaredevilConfig::base().variant, Variant::Base);
        assert_eq!(DaredevilConfig::sched().variant, Variant::Sched);
    }

    #[test]
    fn alpha_range_enforced() {
        let at = |alpha| DaredevilConfig {
            alpha,
            ..DaredevilConfig::default()
        };
        assert!(at(0.5).validate().is_err());
        assert!(at(1.0).validate().is_err());
        assert!(at(0.9).validate().is_ok());
    }

    #[test]
    fn zero_mru_rejected() {
        let c = DaredevilConfig {
            mru: 0,
            ..DaredevilConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
