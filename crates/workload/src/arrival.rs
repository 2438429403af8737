//! Open-loop arrival models for fleet-scale runs.
//!
//! Closed-loop jobs ([`crate::fio::FioJob`] with an `iodepth`) keep a fixed
//! number of I/Os in flight, so offered load self-throttles as the stack
//! slows down — fine for single-machine latency curves, wrong for a fleet
//! where thousands of tenants submit on their own schedule regardless of
//! backend health. An [`ArrivalModel`] describes that open-loop schedule:
//! a base rate modulated by a diurnal sinusoid (daily traffic swell) and a
//! bursty on/off square wave (think periodic batch uploads), both phased
//! per tenant so a fleet does not synchronise.
//!
//! The model is a pure function of simulated time: `rate_at(t)` never
//! consults an RNG, so two runs with the same seed see identical rate
//! envelopes and gap draws (the testbed draws gaps as
//! `Exp(mean_gap(now))` from the tenant's own RNG stream). All fields are
//! `Copy`; the model rides inside [`crate::fio::FioJob`] without boxing.

use simkit::{SimDuration, SimTime};

/// Deterministic open-loop arrival-rate envelope.
///
/// The instantaneous rate is
///
/// ```text
/// rate(t) = base_iops
///         × (1 + diurnal_amplitude · sin(2π(t/diurnal_period + diurnal_phase)))
///         × burst_factor(t)
/// ```
///
/// where `burst_factor` is a duty-weighted square wave: during the "on"
/// fraction of each burst period the rate is multiplied by
/// `burst_multiplier`, and during the "off" fraction it is scaled down so
/// the long-run mean stays `base_iops` (the diurnal term also averages to
/// 1 over a full period).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalModel {
    /// Long-run mean arrival rate in I/Os per second.
    pub base_iops: f64,
    /// Diurnal swing as a fraction of the base rate, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid (a simulated "day").
    pub diurnal_period: SimDuration,
    /// Phase offset of the sinusoid, in turns `[0, 1)`.
    pub diurnal_phase: f64,
    /// Period of the on/off burst square wave.
    pub burst_period: SimDuration,
    /// Fraction of each burst period spent "on", in `(0, 1]`.
    pub burst_duty: f64,
    /// Rate multiplier while "on"; the "off" rate is derived so the
    /// duty-weighted mean over a period is 1. Requires
    /// `burst_duty * burst_multiplier <= 1`.
    pub burst_multiplier: f64,
    /// Phase offset of the square wave, in turns `[0, 1)`.
    pub burst_phase: f64,
}

impl ArrivalModel {
    /// A flat open-loop Poisson process at `base_iops` (no modulation).
    pub fn open(base_iops: f64) -> Self {
        assert!(base_iops > 0.0, "arrival rate must be positive");
        ArrivalModel {
            base_iops,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_secs(1),
            diurnal_phase: 0.0,
            burst_period: SimDuration::from_secs(1),
            burst_duty: 1.0,
            burst_multiplier: 1.0,
            burst_phase: 0.0,
        }
    }

    /// Adds a diurnal sinusoid: `amplitude` in `[0, 1)`, `phase` in turns.
    pub fn with_diurnal(mut self, amplitude: f64, period: SimDuration, phase: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0,1)"
        );
        assert!(!period.is_zero(), "diurnal period must be positive");
        self.diurnal_amplitude = amplitude;
        self.diurnal_period = period;
        self.diurnal_phase = phase.rem_euclid(1.0);
        self
    }

    /// Adds on/off bursts: during the `duty` fraction of each `period` the
    /// rate is multiplied by `multiplier`; the off fraction is scaled down
    /// so the long-run mean is unchanged. `duty * multiplier` must be ≤ 1.
    pub fn with_bursts(
        mut self,
        period: SimDuration,
        duty: f64,
        multiplier: f64,
        phase: f64,
    ) -> Self {
        assert!(!period.is_zero(), "burst period must be positive");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0,1]");
        assert!(multiplier >= 1.0, "burst multiplier must be >= 1");
        assert!(
            duty * multiplier <= 1.0,
            "duty*multiplier must be <= 1 so the off-phase rate stays >= 0"
        );
        self.burst_period = period;
        self.burst_duty = duty;
        self.burst_multiplier = multiplier;
        self.burst_phase = phase.rem_euclid(1.0);
        self
    }

    /// Burst square-wave factor at `t` (duty-weighted mean 1).
    fn burst_factor(&self, t: SimTime) -> f64 {
        if self.burst_duty >= 1.0 || self.burst_multiplier <= 1.0 {
            return 1.0;
        }
        let period = self.burst_period.as_nanos() as f64;
        let pos = ((t.as_nanos() as f64 / period) + self.burst_phase).rem_euclid(1.0);
        if pos < self.burst_duty {
            self.burst_multiplier
        } else {
            // Solve duty·on + (1−duty)·off = 1 for the off-phase factor.
            (1.0 - self.burst_duty * self.burst_multiplier) / (1.0 - self.burst_duty)
        }
    }

    /// Instantaneous arrival rate (I/Os per second) at simulated time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mut rate = self.base_iops;
        if self.diurnal_amplitude > 0.0 {
            let period = self.diurnal_period.as_nanos() as f64;
            let turns = (t.as_nanos() as f64 / period) + self.diurnal_phase;
            rate *= 1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * turns).sin();
        }
        rate * self.burst_factor(t)
    }

    /// Mean inter-arrival gap at `t` — the exponential mean the testbed
    /// feeds to the tenant RNG when scheduling the next arrival.
    pub fn mean_gap(&self, t: SimTime) -> SimDuration {
        let rate = self.rate_at(t).max(1e-9);
        let nanos = (1e9 / rate).round().max(1.0);
        SimDuration::from_nanos(nanos as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_model_is_flat() {
        let m = ArrivalModel::open(1000.0);
        for ns in [0u64, 17, 1_000_000_007] {
            let t = SimTime::ZERO + SimDuration::from_nanos(ns);
            assert_eq!(m.rate_at(t), 1000.0);
        }
        assert_eq!(m.mean_gap(SimTime::ZERO).as_nanos(), 1_000_000);
    }

    #[test]
    fn diurnal_averages_to_base() {
        let m = ArrivalModel::open(1000.0).with_diurnal(0.5, SimDuration::from_secs(1), 0.25);
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_nanos(i * 1_000_000_000 / n);
            sum += m.rate_at(t);
        }
        let mean = sum / n as f64;
        assert!((mean - 1000.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn bursts_preserve_mean_and_flip_state() {
        let m = ArrivalModel::open(1000.0).with_bursts(SimDuration::from_millis(10), 0.2, 4.0, 0.0);
        // On-phase at t=1ms, off-phase at t=5ms.
        let on = m.rate_at(SimTime::ZERO + SimDuration::from_millis(1));
        let off = m.rate_at(SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(on, 4000.0);
        assert!(off < 1000.0);
        let mean = 0.2 * on + 0.8 * off;
        assert!((mean - 1000.0).abs() < 1e-6, "mean={mean}");
    }

    #[test]
    fn deterministic_per_inputs() {
        let a = ArrivalModel::open(500.0)
            .with_diurnal(0.3, SimDuration::from_millis(50), 0.125)
            .with_bursts(SimDuration::from_millis(7), 0.25, 3.0, 0.5);
        let b = a;
        for ns in [0u64, 123_456, 999_999_999] {
            let t = SimTime::ZERO + SimDuration::from_nanos(ns);
            assert_eq!(a.rate_at(t).to_bits(), b.rate_at(t).to_bits());
            assert_eq!(a.mean_gap(t), b.mean_gap(t));
        }
    }

    #[test]
    #[should_panic(expected = "duty*multiplier")]
    fn overcommitted_burst_rejected() {
        let _ = ArrivalModel::open(1.0).with_bursts(SimDuration::from_secs(1), 0.5, 3.0, 0.0);
    }
}
