//! Queue arbitration: weighted round robin over priority classes.
//!
//! When multiple NSQs hold published commands, the controller decides which
//! queue to fetch from next. The NVMe default — and the mechanism this paper
//! assumes (§2.1) — is round-robin, one command per grant.
//!
//! The spec also defines *weighted round robin with urgent priority class*
//! (WRR), where each SQ belongs to the urgent, high, medium, or low class
//! and the controller serves the classes by credit weights. This model
//! keeps the three weighted classes; no stack here needs urgent. The device
//! holds one [`Arbiter`], and every SQ starts in the medium class. With one
//! class populated, the credits have nothing to choose between and a pick
//! is the default round-robin. A driver that sets SQ classes gets WRR, the
//! device feature the FlashShare/D2FQ line of work builds on: the
//! static-overprovision baseline stack (the `overprov` crate) does.
//!
//! # O(1) picks
//!
//! The device reports every visible-work transition through
//! `note_ready`/`note_idle`, the arbiter maintains a non-empty-SQ bitmask
//! per class ([`SqMask`], u64 words + `trailing_zeros`), and a pick walks
//! set bits from the class's cursor ([`SqMask::pick_from`]) instead of
//! scanning all `nr_sqs` queues. The mask may only encode *published
//! work* — fault-stall windows are time-dependent, so stalled queues stay
//! in the mask and every pick filters candidates through the caller's
//! `stalled` predicate (which therefore runs per *candidate*, never per
//! queue).
//!
//! The reference predicate-scan arbiters are test support
//! (`tests/support/scan_arbiter.rs`): the `{rr,wrr}_mask_pick_matches_scan`
//! dd-check properties drive them beside this arbiter, with one class and
//! with random classes, over random interleavings and require identical
//! pick sequences.

use crate::spec::SqId;

/// A bitmask over submission-queue ids: u64 words, one bit per SQ.
///
/// This is the arbiter's "which queues have published work" index. It
/// counts its set bits, so emptiness is O(1); finding the next set bit
/// from a cursor is one `trailing_zeros` per non-empty word.
#[derive(Clone, Debug, Default)]
pub struct SqMask {
    words: Vec<u64>,
    nr: u16,
    /// Set bits.
    ones: u16,
}

impl SqMask {
    /// An empty mask sized for `nr_sqs` queues.
    pub fn new(nr_sqs: u16) -> Self {
        SqMask {
            // dd-alloc-allowlist: construction; one bit per SQ.
            words: vec![0u64; (nr_sqs as usize).div_ceil(64)],
            nr: nr_sqs,
            ones: 0,
        }
    }

    /// Sets the bit for `sq` (idempotent).
    #[inline]
    pub fn set(&mut self, sq: SqId) {
        let bit = 1u64 << (sq.0 & 63);
        let w = &mut self.words[(sq.0 >> 6) as usize];
        self.ones += u16::from(*w & bit == 0);
        *w |= bit;
    }

    /// Clears the bit for `sq` (idempotent).
    #[inline]
    pub fn clear(&mut self, sq: SqId) {
        let bit = 1u64 << (sq.0 & 63);
        let w = &mut self.words[(sq.0 >> 6) as usize];
        self.ones -= u16::from(*w & bit != 0);
        *w &= !bit;
    }

    /// True when the bit for `sq` is set.
    #[inline]
    pub fn contains(&self, sq: SqId) -> bool {
        self.words[(sq.0 >> 6) as usize] & (1u64 << (sq.0 & 63)) != 0
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Number of queues this mask covers.
    pub fn nr(&self) -> u16 {
        self.nr
    }

    /// First set bit at or after `from`, wrapping circularly; `None` when
    /// the mask is empty. `from` must be `< nr`.
    #[inline]
    pub fn next_set_from(&self, from: u16) -> Option<u16> {
        debug_assert!(from < self.nr.max(1));
        let fw = (from >> 6) as usize;
        let fb = from & 63;
        // Forward segment: [from, nr).
        let w = self.words[fw] & (u64::MAX << fb);
        if w != 0 {
            return Some((fw as u16) << 6 | w.trailing_zeros() as u16);
        }
        for wi in fw + 1..self.words.len() {
            let w = self.words[wi];
            if w != 0 {
                return Some((wi as u16) << 6 | w.trailing_zeros() as u16);
            }
        }
        // Wrap segment: [0, from).
        for wi in 0..fw {
            let w = self.words[wi];
            if w != 0 {
                return Some((wi as u16) << 6 | w.trailing_zeros() as u16);
            }
        }
        let w = self.words[fw] & !(u64::MAX << fb);
        if w != 0 {
            return Some((fw as u16) << 6 | w.trailing_zeros() as u16);
        }
        None
    }

    /// Round-robin pick: the first set bit at or after `*cursor`, wrapping,
    /// whose queue is not `stalled`, walking at most one full round. On a
    /// pick, `*cursor` moves just past it; on `None` it is left alone.
    #[inline]
    pub fn pick_from(
        &self,
        cursor: &mut u16,
        mut stalled: impl FnMut(SqId) -> bool,
    ) -> Option<SqId> {
        // Circular distances and successors by compare, not by `%`: a pick
        // runs per fetch, and an integer division costs more than the rest.
        let start = i32::from(*cursor);
        let mut probe = *cursor;
        let mut prev_off = -1i32;
        while let Some(idx) = self.next_set_from(probe) {
            let off = i32::from(idx) - start;
            let off = if off < 0 {
                off + i32::from(self.nr)
            } else {
                off
            };
            if off <= prev_off {
                break; // wrapped past the starting cursor: full round done
            }
            prev_off = off;
            let next = if idx + 1 == self.nr { 0 } else { idx + 1 };
            if !stalled(SqId(idx)) {
                *cursor = next;
                return Some(SqId(idx));
            }
            probe = next;
        }
        None
    }
}

/// NVMe WRR priority classes (the spec's strict-priority urgent class is
/// not modelled).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum SqPriorityClass {
    /// Weighted class, largest weight.
    High,
    /// Weighted class, middle weight; every SQ starts here.
    #[default]
    Medium,
    /// Weighted class, smallest weight.
    Low,
}

impl SqPriorityClass {
    /// Index into the arbiter's per-class state (credits, cursors and
    /// ready masks): high/medium/low at 0/1/2.
    #[inline]
    fn slot(self) -> usize {
        match self {
            SqPriorityClass::High => 0,
            SqPriorityClass::Medium => 1,
            SqPriorityClass::Low => 2,
        }
    }
}

/// Credit weights of the high, medium and low classes: commands served
/// from each class per credit round, the common 8:4:2.
pub const CLASS_WEIGHTS: [i32; 3] = [8, 4, 2];

/// The controller's arbiter: weighted round robin over the priority
/// classes, round-robin within each.
///
/// The classes consume per-class credits; when every class with pending
/// work is out of credits, all credits refill. Every queue starts in the
/// medium class, and with one class populated a pick is exactly NVMe's
/// default round-robin, one command per grant: the credits only choose
/// between classes.
#[derive(Clone, Debug)]
pub struct Arbiter {
    classes: Vec<SqPriorityClass>,
    /// Remaining credits per class.
    credits: [i32; 3],
    /// Round-robin cursor per class.
    cursors: [u16; 3],
    /// Ready (published-work) queues per class, same index layout as
    /// `cursors`: a class pick walks only its own mask.
    ready: [SqMask; 3],
}

impl Arbiter {
    /// Creates an arbiter over `nr_sqs` queues, all in the medium class.
    ///
    /// # Panics
    ///
    /// Panics if `nr_sqs == 0`.
    pub fn new(nr_sqs: u16) -> Self {
        assert!(nr_sqs > 0, "arbiter needs at least one queue");
        Arbiter {
            // dd-alloc-allowlist: construction; one class per SQ.
            classes: vec![SqPriorityClass::Medium; nr_sqs as usize],
            credits: CLASS_WEIGHTS,
            cursors: [0; 3],
            ready: std::array::from_fn(|_| SqMask::new(nr_sqs)),
        }
    }

    /// Assigns a queue's priority class (the admin `Create I/O SQ` field).
    /// A queue with published work carries its ready bit to the new class.
    pub fn set_class(&mut self, sq: SqId, class: SqPriorityClass) {
        let old = self.classes[sq.index()].slot();
        let new = class.slot();
        self.classes[sq.index()] = class;
        if old != new && self.ready[old].contains(sq) {
            self.ready[old].clear(sq);
            self.ready[new].set(sq);
        }
    }

    /// The device published work on `sq` (visible length went 0 → >0).
    #[inline]
    pub fn note_ready(&mut self, sq: SqId) {
        self.ready[self.classes[sq.index()].slot()].set(sq);
    }

    /// The device drained `sq` (visible length went >0 → 0).
    #[inline]
    pub fn note_idle(&mut self, sq: SqId) {
        self.ready[self.classes[sq.index()].slot()].clear(sq);
    }

    /// True when any queue of any class has published work.
    #[inline]
    pub fn any_ready(&self) -> bool {
        self.ready.iter().any(|m| !m.is_empty())
    }

    /// Picks the next queue to fetch from using the per-class ready masks:
    /// the classes by credit, each round-robin from its own cursor.
    ///
    /// `stalled(sq)` filters candidates inside fault windows; it runs only
    /// on queues whose mask bit is set, and it must be pure. Returns `None`
    /// when no ready queue passes the filter.
    #[inline]
    pub fn pick(&mut self, mut stalled: impl FnMut(SqId) -> bool) -> Option<SqId> {
        for idx in 0..3 {
            if self.credits[idx] <= 0 || self.ready[idx].is_empty() {
                continue;
            }
            if let Some(sq) = self.ready[idx].pick_from(&mut self.cursors[idx], &mut stalled) {
                self.credits[idx] -= 1;
                return Some(sq);
            }
        }
        // Every class with unstalled work is out of credits. A refill and a
        // second round would serve the first of them: the classes that had
        // credits found nothing and, `stalled` being pure, still find
        // nothing. So walk only the spent classes, refilling on a pick; with
        // no work anywhere, nothing refills.
        for idx in 0..3 {
            if self.credits[idx] > 0 || self.ready[idx].is_empty() {
                continue;
            }
            if let Some(sq) = self.ready[idx].pick_from(&mut self.cursors[idx], &mut stalled) {
                self.credits = CLASS_WEIGHTS;
                self.credits[idx] -= 1;
                return Some(sq);
            }
        }
        None
    }
}

#[cfg(test)]
mod class_tests {
    use super::*;

    /// An arbiter over `n` queues, every one holding published work.
    fn all_ready(n: u16) -> Arbiter {
        let mut a = Arbiter::new(n);
        for q in 0..n {
            a.note_ready(SqId(q));
        }
        a
    }

    #[test]
    fn weights_shape_service_ratio() {
        let mut a = all_ready(2);
        a.set_class(SqId(0), SqPriorityClass::High);
        a.set_class(SqId(1), SqPriorityClass::Low);
        let mut high = 0;
        let mut low = 0;
        for _ in 0..100 {
            match a.pick(|_| false) {
                Some(SqId(0)) => high += 1,
                Some(SqId(1)) => low += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = high as f64 / low as f64;
        assert!((ratio - 4.0).abs() < 0.5, "high:low = {high}:{low}");
    }

    #[test]
    fn class_round_robin_within_class() {
        let mut a = all_ready(4);
        for q in 0..4 {
            a.set_class(SqId(q), SqPriorityClass::High);
        }
        let picks: Vec<u16> = (0..8).map(|_| a.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn idle_returns_none_and_recovers() {
        let mut a = Arbiter::new(2);
        assert_eq!(a.pick(|_| false), None);
        a.note_ready(SqId(1));
        assert_eq!(a.pick(|_| false), Some(SqId(1)));
    }

    #[test]
    fn lower_class_served_when_higher_idle() {
        let mut a = Arbiter::new(2);
        a.set_class(SqId(0), SqPriorityClass::High);
        a.set_class(SqId(1), SqPriorityClass::Low);
        // Only the low queue has work.
        a.note_ready(SqId(1));
        for _ in 0..5 {
            assert_eq!(a.pick(|_| false), Some(SqId(1)));
        }
    }

    #[test]
    fn mask_pick_matches_class_service() {
        let mut a = Arbiter::new(4);
        a.set_class(SqId(0), SqPriorityClass::High);
        a.set_class(SqId(2), SqPriorityClass::Low);
        a.note_ready(SqId(1));
        a.note_ready(SqId(2));
        // No high work published: medium is served before low.
        assert_eq!(a.pick(|_| false), Some(SqId(1)));
        a.note_ready(SqId(0));
        assert_eq!(a.pick(|_| false), Some(SqId(0)));
        a.note_idle(SqId(0));
        a.note_idle(SqId(1));
        assert_eq!(a.pick(|_| false), Some(SqId(2)));
        a.note_idle(SqId(2));
        assert_eq!(a.pick(|_| false), None);
    }

    #[test]
    fn set_class_moves_ready_bit() {
        let mut a = Arbiter::new(2);
        a.note_ready(SqId(0));
        a.set_class(SqId(0), SqPriorityClass::High);
        // The published-work bit follows the queue into the high mask.
        assert_eq!(a.pick(|_| false), Some(SqId(0)));
        a.set_class(SqId(0), SqPriorityClass::Low);
        assert_eq!(a.pick(|_| false), Some(SqId(0)));
        a.note_idle(SqId(0));
        assert_eq!(a.pick(|_| false), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_empty_queues() {
        let mut a = Arbiter::new(4);
        a.note_ready(SqId(1));
        a.note_ready(SqId(3));
        let picks: Vec<u16> = (0..4).map(|_| a.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn returns_none_when_idle() {
        let mut a = Arbiter::new(4);
        assert_eq!(a.pick(|_| false), None);
        // And recovers afterwards.
        a.note_ready(SqId(0));
        assert_eq!(a.pick(|_| false), Some(SqId(0)));
    }

    #[test]
    fn single_queue_always_picked() {
        let mut a = Arbiter::new(1);
        a.note_ready(SqId(0));
        for _ in 0..5 {
            assert_eq!(a.pick(|_| false), Some(SqId(0)));
        }
    }

    #[test]
    fn mask_pick_matches_round_robin_order() {
        let mut a = Arbiter::new(4);
        for q in 0..4 {
            a.note_ready(SqId(q));
        }
        let picks: Vec<u16> = (0..8).map(|_| a.pick(|_| false).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn mask_pick_skips_idle_and_stalled() {
        let mut a = Arbiter::new(4);
        a.note_ready(SqId(1));
        a.note_ready(SqId(2));
        a.note_ready(SqId(3));
        // SQ2 sits in a stall window: candidates are filtered per pick.
        let picks: Vec<u16> = (0..4).map(|_| a.pick(|sq| sq.0 == 2).unwrap().0).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
        assert_eq!(a.pick(|_| true), None);
    }

    #[test]
    fn mask_circular_scan_wraps_across_words() {
        let mut a = Arbiter::new(130);
        a.note_ready(SqId(3));
        a.note_ready(SqId(129));
        assert_eq!(a.pick(|_| false), Some(SqId(3)));
        assert_eq!(a.pick(|_| false), Some(SqId(129)));
        assert_eq!(a.pick(|_| false), Some(SqId(3)));
        a.note_idle(SqId(3));
        assert_eq!(a.pick(|_| false), Some(SqId(129)));
    }

    #[test]
    fn sq_mask_next_set_from_wraps() {
        let mut m = SqMask::new(130);
        assert!(m.is_empty());
        assert_eq!(m.next_set_from(0), None);
        m.set(SqId(5));
        m.set(SqId(64));
        m.set(SqId(128));
        assert_eq!(m.next_set_from(0), Some(5));
        assert_eq!(m.next_set_from(6), Some(64));
        assert_eq!(m.next_set_from(65), Some(128));
        assert_eq!(m.next_set_from(129), Some(5));
        m.clear(SqId(5));
        assert_eq!(m.next_set_from(129), Some(64));
        assert!(m.contains(SqId(64)));
        assert!(!m.contains(SqId(5)));
    }
}
