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

/// The Daredevil stack's choices: which ablation variant and which policy.
///
/// The paper's constants are not settings: the merit smoothing weight is
/// [`crate::nqreg::ALPHA`], the MRU budget is the device's NSQ depth
/// (§5.2), and the outlier profiling window is
/// [`crate::troute::PROFILE_WINDOW`].
#[derive(Clone, Copy, Debug)]
pub struct DaredevilConfig {
    /// Active technique subset.
    pub variant: Variant,
    /// Which built-in scheduling policy drives routing, merit, and batching
    /// decisions (`--policy NAME` on the figures; see
    /// [`crate::policy`]). The default is the paper's Algorithm 1/2 +
    /// SLA-aware dispatching.
    pub policy: PolicySpec,
}

impl Default for DaredevilConfig {
    fn default() -> Self {
        DaredevilConfig {
            variant: Variant::Full,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DaredevilConfig::default();
        assert_eq!(c.variant, Variant::Full);
        assert_eq!(c.policy, PolicySpec::Default);
        assert_eq!(crate::nqreg::ALPHA, 0.8);
        assert_eq!(crate::troute::PROFILE_WINDOW, 64);
    }

    #[test]
    fn ablation_constructors() {
        assert_eq!(DaredevilConfig::base().variant, Variant::Base);
        assert_eq!(DaredevilConfig::sched().variant, Variant::Sched);
    }
}
