//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a *pre-computed, seeded schedule* of device
//! misbehaviour: per-die latency spikes, IRQ-vector raise loss, and NSQ
//! fetch stalls. The plan is generated once from a [`FaultSpec`] before a
//! simulation starts — purely from the seed, the device geometry, and the
//! run horizon — so the same spec always produces the same fault schedule
//! regardless of wall-clock, thread count, or host machine. Fault
//! activation is driven by *virtual* time through a monotone cursor, which
//! keeps runs with faults exactly as deterministic as runs without.
//!
//! The plan mirrors the [`crate::trace::TraceSink`] threading contract:
//! the device owns one plan, every injection point is behind a single
//! [`FaultPlan::enabled`] branch, and a disabled plan allocates nothing —
//! faults off must be byte-identical to a build that never heard of
//! faults.
//!
//! # Storage
//!
//! A schedule costs 16 bytes per event and nothing transient. Each entry
//! keeps only its start, target, class and a `u16` index into the plan's
//! table of `(multiplier, window)` shapes; [`FaultPlan::generate`] holds
//! one shape per class, [`FaultPlan::from_events`] one per distinct pair.
//! `generate` reserves the schedule once at its exact length (enabled
//! classes × `horizon / period`) and sorts it in place with an unstable
//! sort on one `u128` key — start, class, target, shape — which is
//! [`FaultEvent`]'s derived order, so events activate exactly as a
//! sorted list of `FaultEvent`s would. `advance` compares the clock with
//! one cached start time and leaves the decoding to an out-of-line cold
//! path. The aggressive spec over ddbench `hostile`'s 2.1 s horizon
//! schedules 15 750 events, 246 KiB.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Which fault classes a [`FaultSpec`] enables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultClasses {
    /// Per-die latency spikes: a die serves pages `spike_mult`× slower for
    /// `spike_dur`.
    pub die_spikes: bool,
    /// IRQ-vector loss: raises on a chosen NCQ vector are silently dropped
    /// for `loss_dur` (the vector latches `Raised` and never fires again
    /// until the host polls it back to `Idle`).
    pub irq_loss: bool,
    /// NSQ stalls: the controller stops fetching from a chosen NSQ for
    /// `stall_dur`.
    pub nsq_stalls: bool,
}

impl FaultClasses {
    /// No classes enabled.
    pub const NONE: FaultClasses = FaultClasses {
        die_spikes: false,
        irq_loss: false,
        nsq_stalls: false,
    };

    /// All three classes enabled.
    pub const ALL: FaultClasses = FaultClasses {
        die_spikes: true,
        irq_loss: true,
        nsq_stalls: true,
    };

    /// True if any class is enabled.
    pub fn any(self) -> bool {
        self.die_spikes || self.irq_loss || self.nsq_stalls
    }

    /// Parses a comma-separated class list: `spikes`, `irqloss`, `stalls`,
    /// or the shorthands `all` / `none`.
    pub fn from_list(spec: &str) -> Result<FaultClasses, String> {
        let mut classes = FaultClasses::NONE;
        for word in spec.split(',').map(str::trim).filter(|w| !w.is_empty()) {
            match word {
                "spikes" => classes.die_spikes = true,
                "irqloss" => classes.irq_loss = true,
                "stalls" => classes.nsq_stalls = true,
                "all" => classes = FaultClasses::ALL,
                "none" => classes = FaultClasses::NONE,
                other => {
                    return Err(format!(
                    "unknown fault class '{other}' (expected spikes, irqloss, stalls, all, none)"
                ))
                }
            }
        }
        Ok(classes)
    }
}

/// Declarative fault-injection request, carried by a scenario.
///
/// Everything a [`FaultPlan`] needs apart from the device geometry and the
/// run horizon. The defaults are sized so that a quick (tens of ms) run
/// sees a couple dozen fault events per enabled class, each long enough to
/// be visible in tail latency but short against the measurement window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which fault classes to schedule.
    pub classes: FaultClasses,
    /// Seed for the fault schedule (independent of the workload seed).
    pub seed: u64,
    /// Mean interval between consecutive events of each enabled class.
    pub period: SimDuration,
    /// Die-spike service-latency multiplier.
    pub spike_mult: u32,
    /// Die-spike window length.
    pub spike_dur: SimDuration,
    /// IRQ-loss window length (raises during the window are swallowed).
    pub loss_dur: SimDuration,
    /// NSQ-stall window length.
    pub stall_dur: SimDuration,
    /// Host-side ISR-watchdog scan period (recovery machinery cadence).
    pub watchdog_period: SimDuration,
}

impl FaultSpec {
    /// A spec with the default intensity knobs.
    pub fn new(classes: FaultClasses, seed: u64) -> FaultSpec {
        FaultSpec {
            classes,
            seed,
            period: SimDuration::from_millis(2),
            spike_mult: 8,
            spike_dur: SimDuration::from_micros(500),
            loss_dur: SimDuration::from_micros(200),
            stall_dur: SimDuration::from_micros(300),
            watchdog_period: SimDuration::from_micros(50),
        }
    }

    /// An aggressive spec for stress tests: events every few hundred µs,
    /// longer windows, a faster watchdog.
    pub fn aggressive(classes: FaultClasses, seed: u64) -> FaultSpec {
        FaultSpec {
            classes,
            seed,
            period: SimDuration::from_micros(400),
            spike_mult: 16,
            spike_dur: SimDuration::from_micros(800),
            loss_dur: SimDuration::from_micros(400),
            stall_dur: SimDuration::from_micros(500),
            watchdog_period: SimDuration::from_micros(20),
        }
    }
}

/// The device geometry a plan schedules faults over.
#[derive(Clone, Copy, Debug)]
pub struct FaultGeometry {
    /// Total flash dies (spike targets).
    pub dies: u32,
    /// Submission queues (stall targets).
    pub sqs: u16,
    /// Completion queues / IRQ vectors (loss targets).
    pub cqs: u16,
}

/// One scheduled fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Die `die` serves pages `mult`× slower until `at + dur`.
    DieSpike {
        /// Global die index (channel-major, as `FlashBackend` numbers them).
        die: u32,
        /// Service-latency multiplier.
        mult: u32,
        /// Window length.
        dur: SimDuration,
    },
    /// Raises on CQ vector `cq` are swallowed until `at + dur`.
    VectorLoss {
        /// Completion-queue index.
        cq: u16,
        /// Window length.
        dur: SimDuration,
    },
    /// The controller skips SQ `sq` when arbitrating fetches until
    /// `at + dur`.
    NsqStall {
        /// Submission-queue index.
        sq: u16,
        /// Window length.
        dur: SimDuration,
    },
}

/// A scheduled fault: what happens and when it starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Start of the fault window.
    pub at: SimTime,
    /// The fault itself.
    pub kind: FaultKind,
}

/// Counters of faults that actually took effect (satellite: exposed
/// through `dd_metrics` so figures and tests can assert on them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Page operations whose die service latency was multiplied.
    pub spikes_applied: u64,
    /// IRQ raises swallowed by an active loss window.
    pub vectors_lost: u64,
    /// Stall windows that became active.
    pub stalls_engaged: u64,
}

/// A fault's class, in [`FaultKind`]'s variant order (the sort key's
/// second field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Class {
    DieSpike,
    VectorLoss,
    NsqStall,
}

/// What [`FaultPlan::generate`] holds constant per class: a multiplier
/// (die spikes only; 0 for the other classes) and a window length.
/// Ordered like [`FaultKind`]'s fields after the target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Shape {
    mult: u32,
    dur: SimDuration,
}

/// One scheduled fault: its start, its target (die, CQ or SQ), its class
/// and the index of its [`Shape`] in the plan's table.
#[derive(Clone, Copy, Debug)]
struct Entry {
    at: SimTime,
    target: u32,
    shape: u16,
    class: Class,
}

// A schedule holds one entry per event, 15 750 of them over `hostile`'s
// horizon: `mult` and `dur` live in the shape table, not in the entry.
const _: () = assert!(std::mem::size_of::<Entry>() <= 16);

impl Entry {
    /// [`FaultEvent`]'s order as one integer: start, class, target, then
    /// the shape, whose indices follow `Shape`'s order within a class.
    fn key(&self) -> u128 {
        ((self.at.as_nanos() as u128) << 64)
            | ((self.class as u128) << 48)
            | ((self.target as u128) << 16)
            | self.shape as u128
    }
}

impl FaultKind {
    /// The kind as `(class, target, shape)`.
    fn split(self) -> (Class, u32, Shape) {
        match self {
            FaultKind::DieSpike { die, mult, dur } => (Class::DieSpike, die, Shape { mult, dur }),
            FaultKind::VectorLoss { cq, dur } => {
                (Class::VectorLoss, cq.into(), Shape { mult: 0, dur })
            }
            FaultKind::NsqStall { sq, dur } => (Class::NsqStall, sq.into(), Shape { mult: 0, dur }),
        }
    }
}

impl FaultGeometry {
    /// How many targets `class` can hit, and what they are called.
    fn targets(self, class: Class) -> (u32, &'static str) {
        match class {
            Class::DieSpike => (self.dies, "dies"),
            Class::VectorLoss => (self.cqs.into(), "CQs"),
            Class::NsqStall => (self.sqs.into(), "SQs"),
        }
    }
}

/// A generated, replayable fault schedule plus its activation state.
///
/// The device calls [`FaultPlan::advance`] with its current virtual time
/// before consulting the per-target queries; `advance` pops scheduled
/// events whose start has passed into per-target active windows. Device
/// call times are (nearly) non-decreasing, so a single cursor suffices;
/// the few call sites that run a few hundred ns ahead of the main clock
/// (completion posting) merely activate a window equally early on every
/// run — determinism is unaffected.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    on: bool,
    /// The schedule, sorted by [`Entry::key`].
    entries: Vec<Entry>,
    /// The shapes `entries` index.
    shapes: Vec<Shape>,
    cursor: usize,
    /// Start of `entries[cursor]`, or `SimTime::MAX` past the last: the
    /// one compare `advance` makes. A disabled plan holds `ZERO`, so its
    /// first `advance` (never reached in production) parks it at `MAX`.
    next_at: SimTime,
    /// Per-die `(window end, multiplier)`.
    die_until: Vec<(SimTime, u32)>,
    /// Per-CQ loss-window end.
    cq_until: Vec<SimTime>,
    /// Per-SQ stall-window end.
    sq_until: Vec<SimTime>,
    stats: FaultStats,
}

impl FaultPlan {
    /// A permanently disabled plan: every query is a single branch, no
    /// allocation.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generates the schedule for `spec` over `horizon`, targeting
    /// `geometry`. Same spec + geometry + horizon → identical schedule.
    ///
    /// Each enabled class with a target schedules `horizon / period`
    /// events, start then target drawn per event, class by class. The
    /// schedule is reserved at that exact length and sorted in place.
    pub fn generate(spec: &FaultSpec, geometry: FaultGeometry, horizon: SimDuration) -> FaultPlan {
        let mut rng = SimRng::new(spec.seed ^ 0xFA17_FA17_FA17_FA17);
        let horizon_ns = horizon.as_nanos().max(1);
        let count = (horizon_ns / spec.period.as_nanos().max(1)).max(1);
        // Targets per class in draw order, 0 where the class is off. A
        // class's shape index is its own.
        let targets = [
            (Class::DieSpike, spec.classes.die_spikes),
            (Class::VectorLoss, spec.classes.irq_loss),
            (Class::NsqStall, spec.classes.nsq_stalls),
        ]
        .map(|(class, on)| (class, if on { geometry.targets(class).0 } else { 0 }));
        let drawn = || targets.iter().filter(|&&(_, n)| n > 0);
        // dd-alloc-allowlist: the schedule's one reservation, at its exact length.
        let mut entries = Vec::with_capacity(drawn().count() * count as usize);
        for &(class, n) in drawn() {
            for _ in 0..count {
                let at = SimTime::from_nanos(rng.gen_range(horizon_ns));
                entries.push(Entry {
                    at,
                    target: rng.gen_range(n.into()) as u32,
                    shape: class as u16,
                    class,
                });
            }
        }
        let shapes = [
            Shape {
                mult: spec.spike_mult,
                dur: spec.spike_dur,
            },
            Shape {
                mult: 0,
                dur: spec.loss_dur,
            },
            Shape {
                mult: 0,
                dur: spec.stall_dur,
            },
        ];
        FaultPlan::scheduled(entries, shapes.to_vec(), geometry)
    }

    /// Builds a plan from an explicit event list (tests and targeted
    /// scenarios). Events are sorted; activation state is sized from
    /// `geometry`.
    ///
    /// # Errors
    ///
    /// Names the first event whose die, CQ or SQ lies outside `geometry`,
    /// or reports more than 65 536 distinct `(mult, dur)` shapes.
    pub fn from_events(
        events: Vec<FaultEvent>,
        geometry: FaultGeometry,
    ) -> Result<FaultPlan, String> {
        let mut shapes: Vec<Shape> = events.iter().map(|e| e.kind.split().2).collect();
        shapes.sort_unstable();
        shapes.dedup();
        if shapes.len() > 1 << 16 {
            return Err(format!(
                "{} distinct fault shapes; a plan holds at most 65536",
                shapes.len()
            ));
        }
        let entries = events
            .iter()
            .map(|ev| {
                let (class, target, shape) = ev.kind.split();
                let (bound, what) = geometry.targets(class);
                if target >= bound {
                    return Err(format!(
                        "fault event {ev:?} targets {target}, outside the device's {bound} {what}"
                    ));
                }
                let shape = shapes.partition_point(|s| *s < shape) as u16;
                Ok(Entry {
                    at: ev.at,
                    target,
                    shape,
                    class,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan::scheduled(entries, shapes, geometry))
    }

    /// Sorts `entries` in place and sizes the activation windows.
    fn scheduled(
        mut entries: Vec<Entry>,
        shapes: Vec<Shape>,
        geometry: FaultGeometry,
    ) -> FaultPlan {
        entries.sort_unstable_by_key(Entry::key);
        FaultPlan {
            on: true,
            next_at: entries.first().map_or(SimTime::MAX, |e| e.at),
            entries,
            shapes,
            cursor: 0,
            die_until: vec![(SimTime::ZERO, 1); geometry.dies as usize], // dd-alloc-allowlist: sized once from the geometry
            cq_until: vec![SimTime::ZERO; geometry.cqs as usize], // dd-alloc-allowlist: sized once from the geometry
            sq_until: vec![SimTime::ZERO; geometry.sqs as usize], // dd-alloc-allowlist: sized once from the geometry
            stats: FaultStats::default(),
        }
    }

    /// True if this plan can ever inject anything. Every hot-path hook
    /// guards on this single branch, so a disabled plan is zero-cost.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The schedule, decoded into events in their derived order (tests).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.entries.iter().map(|e| self.decode(e)).collect()
    }

    fn decode(&self, e: &Entry) -> FaultEvent {
        let Shape { mult, dur } = self.shapes[e.shape as usize];
        let kind = match e.class {
            Class::DieSpike => FaultKind::DieSpike {
                die: e.target,
                mult,
                dur,
            },
            Class::VectorLoss => FaultKind::VectorLoss {
                cq: e.target as u16,
                dur,
            },
            Class::NsqStall => FaultKind::NsqStall {
                sq: e.target as u16,
                dur,
            },
        };
        FaultEvent { at: e.at, kind }
    }

    /// Counters of faults that took effect so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Activates every scheduled event whose start is at or before `now`.
    /// Monotone: a window once active stays recorded until it expires by
    /// comparison against later `now` values. One compare unless an
    /// event is due.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        if now >= self.next_at {
            self.activate(now);
        }
    }

    /// `advance`'s slow path: applies the due events in schedule order.
    #[cold]
    #[inline(never)]
    fn activate(&mut self, now: SimTime) {
        while let Some(e) = self.entries.get(self.cursor) {
            if e.at > now {
                break;
            }
            let ev = self.decode(e);
            match ev.kind {
                FaultKind::DieSpike { die, mult, dur } => {
                    let slot = &mut self.die_until[die as usize];
                    let end = ev.at + dur;
                    // Overlapping spikes on one die: keep the later end and
                    // the stronger multiplier.
                    *slot = (slot.0.max(end), slot.1.max(mult));
                    if slot.0 <= now {
                        // Window already over (e.g. device was idle through
                        // it): reset so the stale multiplier can't linger.
                        *slot = (SimTime::ZERO, 1);
                    }
                }
                FaultKind::VectorLoss { cq, dur } => {
                    let slot = &mut self.cq_until[cq as usize];
                    *slot = (*slot).max(ev.at + dur);
                }
                FaultKind::NsqStall { sq, dur } => {
                    let slot = &mut self.sq_until[sq as usize];
                    *slot = (*slot).max(ev.at + dur);
                    self.stats.stalls_engaged += 1;
                }
            }
            self.cursor += 1;
        }
        self.next_at = self.entries.get(self.cursor).map_or(SimTime::MAX, |e| e.at);
    }

    /// Service-latency multiplier for `die` at `now`, if a spike window is
    /// active. Counts an application when it returns `Some`.
    #[inline]
    pub fn die_spike(&mut self, now: SimTime, die: u32) -> Option<u32> {
        self.advance(now);
        let (until, mult) = self.die_until[die as usize];
        if now < until {
            self.stats.spikes_applied += 1;
            Some(mult)
        } else {
            None
        }
    }

    /// True if the raise on `cq` at `now` should be swallowed. Counts a
    /// lost vector when it returns `true`.
    #[inline]
    pub fn loses_irq(&mut self, now: SimTime, cq: u16) -> bool {
        self.advance(now);
        if now < self.cq_until[cq as usize] {
            self.stats.vectors_lost += 1;
            true
        } else {
            false
        }
    }

    /// True if SQ `sq` is inside a stall window at `now`. Immutable so the
    /// arbiter predicate can consult it; call [`FaultPlan::advance`] first.
    #[inline]
    pub fn sq_stalled(&self, now: SimTime, sq: u16) -> bool {
        now < self.sq_until[sq as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEO: FaultGeometry = FaultGeometry {
        dies: 32,
        sqs: 8,
        cqs: 4,
    };

    fn horizon() -> SimDuration {
        SimDuration::from_millis(50)
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = FaultSpec::new(FaultClasses::ALL, 7);
        let a = FaultPlan::generate(&spec, GEO, horizon());
        let b = FaultPlan::generate(&spec, GEO, horizon());
        assert!(!a.events().is_empty());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&FaultSpec::new(FaultClasses::ALL, 1), GEO, horizon());
        let b = FaultPlan::generate(&FaultSpec::new(FaultClasses::ALL, 2), GEO, horizon());
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn schedule_is_sorted_and_gated_by_class() {
        let spec = FaultSpec::new(
            FaultClasses {
                die_spikes: false,
                irq_loss: true,
                nsq_stalls: false,
            },
            3,
        );
        let plan = FaultPlan::generate(&spec, GEO, horizon());
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::VectorLoss { .. })));
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let mut plan = FaultPlan::disabled();
        assert!(!plan.enabled());
        assert!(plan.events().is_empty());
        assert_eq!(plan.stats(), FaultStats::default());
        // Queries on a disabled plan are never reached in production code
        // (guarded by `enabled()`), but advance() must still be harmless.
        plan.advance(SimTime::from_millis(1));
    }

    #[test]
    fn spike_window_applies_then_expires() {
        let geo = FaultGeometry {
            dies: 4,
            sqs: 0,
            cqs: 0,
        };
        let spike = FaultEvent {
            at: SimTime::from_micros(10),
            kind: FaultKind::DieSpike {
                die: 3,
                mult: 8,
                dur: SimDuration::from_micros(100),
            },
        };
        let mut plan = FaultPlan::from_events(vec![spike], geo).unwrap();
        assert_eq!(plan.die_spike(SimTime::from_micros(5), 3), None);
        assert_eq!(plan.die_spike(SimTime::from_micros(50), 3), Some(8));
        assert_eq!(plan.die_spike(SimTime::from_micros(50), 2), None);
        assert_eq!(plan.die_spike(SimTime::from_micros(200), 3), None);
        assert_eq!(plan.stats().spikes_applied, 1);
    }

    #[test]
    fn loss_and_stall_windows() {
        let geo = FaultGeometry {
            dies: 0,
            sqs: 4,
            cqs: 2,
        };
        let events = vec![
            FaultEvent {
                at: SimTime::from_micros(20),
                kind: FaultKind::NsqStall {
                    sq: 2,
                    dur: SimDuration::from_micros(50),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(10),
                kind: FaultKind::VectorLoss {
                    cq: 1,
                    dur: SimDuration::from_micros(50),
                },
            },
        ];
        let mut plan = FaultPlan::from_events(events, geo).unwrap();
        assert!(plan.loses_irq(SimTime::from_micros(30), 1));
        assert!(!plan.loses_irq(SimTime::from_micros(30), 0));
        assert!(!plan.loses_irq(SimTime::from_micros(70), 1));
        plan.advance(SimTime::from_micros(30));
        assert!(plan.sq_stalled(SimTime::from_micros(30), 2));
        assert!(!plan.sq_stalled(SimTime::from_micros(30), 3));
        assert!(!plan.sq_stalled(SimTime::from_micros(90), 2));
        assert_eq!(plan.stats().vectors_lost, 1);
        assert_eq!(plan.stats().stalls_engaged, 1);
    }

    #[test]
    fn from_events_rejects_targets_outside_the_geometry() {
        let dur = SimDuration::from_micros(50);
        let at = SimTime::from_micros(7);
        for (kind, what) in [
            (
                FaultKind::DieSpike {
                    die: 32,
                    mult: 2,
                    dur,
                },
                "32 dies",
            ),
            (FaultKind::VectorLoss { cq: 4, dur }, "4 CQs"),
            (FaultKind::NsqStall { sq: 9, dur }, "8 SQs"),
        ] {
            let inside = FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::NsqStall { sq: 7, dur },
            };
            let bad = FaultEvent { at, kind };
            let err = FaultPlan::from_events(vec![inside, bad], GEO).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains(what), "{err}");
        }
        let last = FaultEvent {
            at,
            kind: FaultKind::DieSpike {
                die: 31,
                mult: 2,
                dur,
            },
        };
        assert!(FaultPlan::from_events(vec![last], GEO).is_ok());
    }

    #[test]
    fn generate_reserves_exactly_its_schedule() {
        for classes in [
            FaultClasses::ALL,
            FaultClasses::from_list("spikes,stalls").unwrap(),
        ] {
            let spec = FaultSpec::aggressive(classes, 5);
            let plan = FaultPlan::generate(&spec, GEO, horizon());
            assert!(!plan.entries.is_empty());
            assert_eq!(plan.entries.capacity(), plan.entries.len());
        }
        // A class without targets schedules nothing.
        let no_dies = FaultGeometry { dies: 0, ..GEO };
        let plan = FaultPlan::generate(&FaultSpec::new(FaultClasses::ALL, 5), no_dies, horizon());
        assert_eq!(plan.entries.capacity(), plan.entries.len());
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::DieSpike { .. })));
    }

    #[test]
    fn class_list_parsing() {
        assert_eq!(FaultClasses::from_list("all"), Ok(FaultClasses::ALL));
        assert_eq!(FaultClasses::from_list("none"), Ok(FaultClasses::NONE));
        assert_eq!(
            FaultClasses::from_list("spikes,stalls"),
            Ok(FaultClasses {
                die_spikes: true,
                irq_loss: false,
                nsq_stalls: true,
            })
        );
        assert!(FaultClasses::from_list("bogus").is_err());
    }
}
