//! Property-based tests of the block-layer machinery (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq};

use blkstack::nsqlock::NsqLockTable;
use blkstack::split::{split_extents, SplitConfig};
use dd_nvme::spec::bytes_to_blocks;
use dd_nvme::SqId;
use simkit::{SimDuration, SimTime};

/// Splitting conserves blocks, produces contiguous extents, and never
/// exceeds the per-command cap.
#[test]
fn split_conserves_and_caps() {
    check("split_conserves_and_caps", |c| {
        let offset = c.u64_in(0, 1_000_000);
        let bytes = c.u64_in(1, 4_000_000);
        let max_kib = c.u64_in(4, 512);
        let cfg = SplitConfig {
            max_bytes: max_kib * 1024,
        };
        let extents: Vec<_> = split_extents(&cfg, offset, bytes).collect();
        let max_blocks = (cfg.max_bytes / 4096).max(1) as u32;
        let total: u64 = extents.iter().map(|e| e.nlb as u64).sum();
        prop_assert_eq!(total, bytes_to_blocks(bytes) as u64);
        let mut next = offset;
        for e in &extents {
            prop_assert_eq!(e.slba, next);
            prop_assert!(e.nlb >= 1 && e.nlb <= max_blocks);
            next += e.nlb as u64;
        }
        // All extents except the last are full-sized.
        for e in &extents[..extents.len() - 1] {
            prop_assert_eq!(e.nlb, max_blocks);
        }
        Ok(())
    });
}

/// The NSQ lock serializes: release times per queue are strictly
/// increasing, waits are exactly the overlap, and the contention
/// statistics add up.
#[test]
fn nsq_lock_serializes() {
    check("nsq_lock_serializes", |c| {
        let accesses = c.vec_of(1, 100, |c| {
            (c.u16_in(0, 4), c.u64_in(0, 1_000), c.u64_in(1, 500))
        });
        let mut locks = NsqLockTable::new(4);
        let mut last_release = [SimTime::ZERO; 4];
        let mut sorted = accesses.clone();
        // Lock acquisitions must be fed in non-decreasing time order, as in
        // the event loop.
        sorted.sort_by_key(|&(_, t, _)| t);
        let mut expected_wait_total = [SimDuration::ZERO; 4];
        for (sq, t, hold_us) in sorted {
            let now = SimTime::from_micros(t);
            let hold = SimDuration::from_micros(hold_us);
            let acq = locks.acquire(SqId(sq), now, hold);
            let q = sq as usize;
            // Wait equals exactly the remaining busy time of the queue.
            let expect_wait = last_release[q].saturating_since(now);
            prop_assert_eq!(acq.wait, expect_wait);
            prop_assert!(acq.release_at > last_release[q]);
            prop_assert_eq!(acq.release_at, now.max(last_release[q]) + hold);
            last_release[q] = acq.release_at;
            expected_wait_total[q] += expect_wait;
        }
        for q in 0..4u16 {
            prop_assert_eq!(
                locks.in_lock_total(SqId(q)),
                expected_wait_total[q as usize]
            );
        }
        let grand: SimDuration = expected_wait_total
            .iter()
            .fold(SimDuration::ZERO, |a, &b| a + b);
        prop_assert_eq!(locks.in_lock_grand_total(), grand);
        Ok(())
    });
}
