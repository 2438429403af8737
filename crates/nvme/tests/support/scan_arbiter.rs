//! The reference arbiters: predicate scans over every queue.
//!
//! Test support, not part of `dd_nvme`'s API: the behavioural oracles of
//! the `{rr,wrr}_mask_pick_matches_scan` properties. Each call asks
//! `has_work(sq)` of queues in round-robin order until one answers true, so
//! a pick costs O(nr_sqs); the device's `pick` walks a ready bitmask
//! instead and must return the same sequence.

use dd_nvme::arbiter::{SqPriorityClass, CLASS_WEIGHTS};
use dd_nvme::spec::SqId;

/// Round-robin over `nr_sqs` queues, one command per grant.
pub struct ScanRoundRobin {
    nr_sqs: u16,
    /// Next queue index to consider.
    cursor: u16,
}

impl ScanRoundRobin {
    pub fn new(nr_sqs: u16) -> Self {
        ScanRoundRobin { nr_sqs, cursor: 0 }
    }

    /// The first queue at or after the cursor with work; `None` when no
    /// queue has work.
    pub fn next(&mut self, mut has_work: impl FnMut(SqId) -> bool) -> Option<SqId> {
        for off in 0..self.nr_sqs {
            let idx = (self.cursor + off) % self.nr_sqs;
            if has_work(SqId(idx)) {
                self.cursor = (idx + 1) % self.nr_sqs;
                return Some(SqId(idx));
            }
        }
        None
    }
}

/// Weighted round robin at the device's class weights: the classes by
/// credit, all credits refilling when every class with work is out of them.
pub struct ScanWrr {
    classes: Vec<SqPriorityClass>,
    /// Remaining credits of the high/medium/low classes.
    credits: [i32; 3],
    /// Round-robin cursor per class.
    cursors: [u16; 3],
}

impl ScanWrr {
    pub fn new(nr_sqs: u16) -> Self {
        ScanWrr {
            classes: vec![SqPriorityClass::Medium; nr_sqs as usize],
            credits: CLASS_WEIGHTS,
            cursors: [0; 3],
        }
    }

    pub fn set_class(&mut self, sq: SqId, class: SqPriorityClass) {
        self.classes[sq.index()] = class;
    }

    /// Round-robin scan of one class starting at its cursor.
    fn scan_class(
        &mut self,
        class: SqPriorityClass,
        cursor_idx: usize,
        has_work: &mut impl FnMut(SqId) -> bool,
    ) -> Option<SqId> {
        let n = self.classes.len() as u16;
        for off in 0..n {
            let idx = (self.cursors[cursor_idx] + off) % n;
            let sq = SqId(idx);
            if self.classes[idx as usize] == class && has_work(sq) {
                self.cursors[cursor_idx] = (idx + 1) % n;
                return Some(sq);
            }
        }
        None
    }

    pub fn next(&mut self, mut has_work: impl FnMut(SqId) -> bool) -> Option<SqId> {
        for _refill in 0..2 {
            for (idx, class) in [
                (0usize, SqPriorityClass::High),
                (1, SqPriorityClass::Medium),
                (2, SqPriorityClass::Low),
            ] {
                if self.credits[idx] <= 0 {
                    continue;
                }
                if let Some(sq) = self.scan_class(class, idx, &mut has_work) {
                    self.credits[idx] -= 1;
                    return Some(sq);
                }
            }
            // Nothing served: either no work at all, or the classes with
            // work are out of credits. Refill and retry once.
            if !(0..self.classes.len() as u16).any(|i| has_work(SqId(i))) {
                return None;
            }
            self.credits = CLASS_WEIGHTS;
        }
        None
    }
}
