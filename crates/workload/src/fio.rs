//! FIO-style closed-loop jobs.
//!
//! A [`FioJob`] keeps `iodepth` I/Os outstanding: the testbed issues the
//! initial burst in one submission call (libaio `io_submit` of the whole
//! depth) and replaces each completed I/O with a fresh one, exactly like
//! `fio --ioengine=libaio --iodepth=N`.

use blkstack::ReqFlags;
use dd_nvme::IoOpcode;
use simkit::SimRng;

use crate::app::{IoDesc, Placement};
use crate::arrival::ArrivalModel;

/// Read/write pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RwPattern {
    /// Random reads.
    RandRead,
    /// Random writes.
    RandWrite,
    /// Sequential reads.
    SeqRead,
    /// Sequential writes.
    SeqWrite,
    /// Random mix with the given read fraction.
    RandMix {
        /// Probability of a read in [0, 1] scaled by 100 (e.g. 70 = 70 %).
        read_pct: u8,
    },
}

/// An FIO-style job description.
#[derive(Clone, Copy, Debug)]
pub struct FioJob {
    /// Access pattern.
    pub rw: RwPattern,
    /// Block size in bytes.
    pub block_size: u64,
    /// Outstanding I/Os to maintain.
    pub iodepth: u32,
    /// Flags stamped on every request (e.g. SYNC for O_SYNC-style jobs).
    pub flags: ReqFlags,
    /// Fraction (percent) of requests additionally flagged SYNC — used to
    /// emulate T-tenants with outlier tendencies (§7.5-style mixes).
    pub sync_pct: u8,
    /// Open-loop arrival model. When set the job ignores `iodepth` pacing
    /// entirely: the testbed schedules one arrival at a time from the
    /// model's rate envelope and never reissues on completion (fleet-scale
    /// tenants, see [`crate::arrival`]). `None` = closed loop.
    pub arrival: Option<ArrivalModel>,
}

impl FioJob {
    /// Creates a job.
    pub fn new(rw: RwPattern, block_size: u64, iodepth: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(iodepth > 0, "iodepth must be >= 1");
        FioJob {
            rw,
            block_size,
            iodepth,
            flags: ReqFlags::NONE,
            sync_pct: 0,
            arrival: None,
        }
    }

    /// Switches the job to open-loop arrivals driven by `model`.
    pub fn with_arrival(mut self, model: ArrivalModel) -> Self {
        self.arrival = Some(model);
        self
    }

    /// Adds a percentage of SYNC-flagged (outlier) requests.
    pub fn with_sync_pct(mut self, pct: u8) -> Self {
        assert!(pct <= 100);
        self.sync_pct = pct;
        self
    }

    /// Generates the next I/O of this job.
    pub fn next_io(&self, rng: &mut SimRng) -> IoDesc {
        let op = match self.rw {
            RwPattern::RandRead | RwPattern::SeqRead => IoOpcode::Read,
            RwPattern::RandWrite | RwPattern::SeqWrite => IoOpcode::Write,
            RwPattern::RandMix { read_pct } => {
                if rng.gen_range(100) < read_pct as u64 {
                    IoOpcode::Read
                } else {
                    IoOpcode::Write
                }
            }
        };
        let placement = match self.rw {
            RwPattern::SeqRead | RwPattern::SeqWrite => Placement::Sequential,
            _ => Placement::Random,
        };
        let mut flags = self.flags;
        if self.sync_pct > 0 && rng.gen_range(100) < self.sync_pct as u64 {
            flags.sync = true;
        }
        IoDesc {
            op,
            bytes: self.block_size,
            placement,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randread_produces_random_reads() {
        let job = FioJob::new(RwPattern::RandRead, 4096, 1);
        let mut rng = SimRng::new(1);
        for _ in 0..16 {
            let io = job.next_io(&mut rng);
            assert_eq!(io.op, IoOpcode::Read);
            assert_eq!(io.placement, Placement::Random);
            assert_eq!(io.bytes, 4096);
            assert!(!io.flags.is_outlier());
        }
    }

    #[test]
    fn seq_write_pattern() {
        let job = FioJob::new(RwPattern::SeqWrite, 131072, 32);
        let mut rng = SimRng::new(2);
        let io = job.next_io(&mut rng);
        assert_eq!(io.op, IoOpcode::Write);
        assert_eq!(io.placement, Placement::Sequential);
    }

    #[test]
    fn mix_respects_read_fraction() {
        let job = FioJob::new(RwPattern::RandMix { read_pct: 70 }, 4096, 1);
        let mut rng = SimRng::new(3);
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| job.next_io(&mut rng).op == IoOpcode::Read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn sync_pct_flags_outliers() {
        let job = FioJob::new(RwPattern::RandWrite, 4096, 1).with_sync_pct(50);
        let mut rng = SimRng::new(4);
        let n = 2_000;
        let outliers = (0..n)
            .filter(|_| job.next_io(&mut rng).flags.is_outlier())
            .count();
        let frac = outliers as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "iodepth")]
    fn zero_iodepth_rejected() {
        let _ = FioJob::new(RwPattern::RandRead, 4096, 0);
    }
}
