//! Filebench-Mailserver-style workload.
//!
//! The mailserver personality loops over mailbox operations: reading mail
//! files, composing/appending, fsyncing after writes, and deleting. Most
//! reads are served from the page cache (the paper measures ~77 % of
//! Mailserver operations as cache-related); fsync and delete go straight to
//! the device — fsync as `REQ_SYNC` writes plus a flush, delete as a
//! `REQ_META` metadata update — which is why the paper reports exactly those
//! two operations (Fig. 12e).

use blkstack::ReqFlags;
use dd_nvme::IoOpcode;
use simkit::{RunArena, SimDuration, SimRng};

use crate::app::commands;
use crate::app::{AppOp, IoDesc, OpKind, OpStep, Placement};
use crate::kvsim::{LruCache, BLOCK_BYTES};

/// Mailserver parameters (a scaled filebench `mailserver.f`).
#[derive(Clone, Copy, Debug)]
pub struct MailConfig {
    /// Number of mail files in the directory.
    pub files: u64,
    /// Average file size in 4 KiB blocks (filebench uses 16 KiB ⇒ 4).
    pub file_blocks: u32,
    /// Page cache capacity in blocks.
    pub cache_blocks: u64,
    /// CPU cost of a cache-served block access.
    pub cache_cpu: SimDuration,
    /// Weights of (read, append+fsync, delete) out of 100.
    pub read_weight: u8,
    /// Weight of the append+fsync flow.
    pub write_weight: u8,
}

impl Default for MailConfig {
    fn default() -> Self {
        MailConfig {
            files: 50_000,
            file_blocks: 4,
            cache_blocks: 120_000,
            cache_cpu: SimDuration::from_micros(2),
            read_weight: 60,
            write_weight: 30,
            // Remaining 10 % are deletes.
        }
    }
}

/// The mailserver workload.
pub struct MailserverWorkload {
    config: MailConfig,
    cache: LruCache,
    ops_remaining: u64,
    /// Pending fsync after an append (filebench pairs them).
    pending_fsync: bool,
}

impl MailserverWorkload {
    /// Creates a client issuing `ops` operations.
    pub fn new(config: MailConfig, ops: u64) -> Self {
        Self::with_cache(config, ops, LruCache::new(config.cache_blocks as usize))
    }

    /// [`MailserverWorkload::new`] with the page-cache map recycled from
    /// `arena` (tag [`crate::arena_tags::MAIL_CACHE`]).
    pub fn new_in(config: MailConfig, ops: u64, arena: &mut RunArena) -> Self {
        let cache = LruCache::new_in(
            config.cache_blocks as usize,
            arena,
            crate::arena_tags::MAIL_CACHE,
        );
        Self::with_cache(config, ops, cache)
    }

    fn with_cache(config: MailConfig, ops: u64, cache: LruCache) -> Self {
        MailserverWorkload {
            cache,
            config,
            ops_remaining: ops,
            pending_fsync: false,
        }
    }

    /// Most device commands one client has in flight: its largest step,
    /// a file read's cache misses (one block each) or an fsync's
    /// whole-file write-back. Every other step issues one block I/O.
    pub fn max_in_flight(config: &MailConfig) -> usize {
        let blocks = config.file_blocks as u64;
        let read = blocks as usize * commands(BLOCK_BYTES);
        let writeback = commands(BLOCK_BYTES * blocks);
        read.max(writeback).max(commands(BLOCK_BYTES))
    }

    /// Page-cache hit ratio so far.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    fn file_base_block(&self, file: u64) -> u64 {
        file * self.config.file_blocks as u64
    }

    fn read_op(&mut self, file: u64) -> AppOp {
        let base = self.file_base_block(file);
        let mut steps = Vec::new();
        let mut misses = Vec::new();
        for i in 0..self.config.file_blocks as u64 {
            if self.cache.access(base + i) {
                steps.push(OpStep::Compute(self.config.cache_cpu));
            } else {
                misses.push(IoDesc {
                    op: IoOpcode::Read,
                    bytes: BLOCK_BYTES,
                    placement: Placement::Block(base + i),
                    flags: ReqFlags::NONE,
                });
            }
        }
        if !misses.is_empty() {
            steps.push(OpStep::IoParallel(misses));
        }
        AppOp {
            kind: OpKind::FileRead,
            steps,
        }
    }

    fn append_op(&mut self, file: u64) -> AppOp {
        let base = self.file_base_block(file);
        // The appended block enters the page cache (dirty).
        self.cache.access(base);
        self.pending_fsync = true;
        AppOp {
            kind: OpKind::Append,
            steps: vec![
                OpStep::Compute(self.config.cache_cpu),
                // Buffered write: cache-only; the I/O happens at fsync.
            ],
        }
    }

    fn fsync_op(&mut self, file: u64) -> AppOp {
        let base = self.file_base_block(file);
        AppOp {
            kind: OpKind::Fsync,
            steps: vec![
                // Write back the dirty block synchronously, then flush.
                OpStep::Io(IoDesc {
                    op: IoOpcode::Write,
                    bytes: BLOCK_BYTES * self.config.file_blocks as u64,
                    placement: Placement::Block(base),
                    flags: ReqFlags::SYNC,
                }),
                OpStep::Io(IoDesc {
                    op: IoOpcode::Flush,
                    bytes: 0,
                    placement: Placement::Block(base),
                    flags: ReqFlags::SYNC,
                }),
            ],
        }
    }

    fn delete_op(&mut self, file: u64) -> AppOp {
        let base = self.file_base_block(file);
        AppOp {
            kind: OpKind::Delete,
            steps: vec![
                // Inode/bitmap metadata update.
                OpStep::Io(IoDesc {
                    op: IoOpcode::Write,
                    bytes: BLOCK_BYTES,
                    placement: Placement::Block(base),
                    flags: ReqFlags::META,
                }),
            ],
        }
    }

    /// Produces the next operation, or `None` when the mailbox run is done.
    pub fn next_op(&mut self, rng: &mut SimRng) -> Option<AppOp> {
        if self.pending_fsync {
            self.pending_fsync = false;
            let file = rng.gen_range(self.config.files);
            return Some(self.fsync_op(file));
        }
        if self.ops_remaining == 0 {
            return None;
        }
        self.ops_remaining -= 1;
        let file = rng.gen_range(self.config.files);
        let roll = rng.gen_range(100) as u8;
        let op = if roll < self.config.read_weight {
            self.read_op(file)
        } else if roll < self.config.read_weight + self.config.write_weight {
            self.append_op(file)
        } else {
            self.delete_op(file)
        };
        Some(op)
    }

    /// Parks the page-cache map into `arena` for the next run.
    pub fn park_scratch(&mut self, arena: &mut RunArena) {
        self.cache.park(arena, crate::arena_tags::MAIL_CACHE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ops: u64, seed: u64) -> Vec<AppOp> {
        let mut w = MailserverWorkload::new(MailConfig::default(), ops);
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        while let Some(op) = w.next_op(&mut rng) {
            out.push(op);
        }
        out
    }

    #[test]
    fn appends_are_followed_by_fsync() {
        let ops = drain(2000, 1);
        for i in 0..ops.len() - 1 {
            if ops[i].kind == OpKind::Append {
                assert_eq!(
                    ops[i + 1].kind,
                    OpKind::Fsync,
                    "append at {i} not followed by fsync"
                );
            }
        }
    }

    #[test]
    fn fsync_is_sync_flagged_and_flushes() {
        let ops = drain(2000, 2);
        let fsync = ops
            .iter()
            .find(|o| o.kind == OpKind::Fsync)
            .expect("workload produces fsyncs");
        let mut saw_sync_write = false;
        let mut saw_flush = false;
        for s in &fsync.steps {
            if let OpStep::Io(io) = s {
                if io.op == IoOpcode::Write && io.flags.sync {
                    saw_sync_write = true;
                }
                if io.op == IoOpcode::Flush {
                    saw_flush = true;
                }
            }
        }
        assert!(saw_sync_write && saw_flush);
    }

    #[test]
    fn delete_is_metadata() {
        let ops = drain(2000, 3);
        let del = ops
            .iter()
            .find(|o| o.kind == OpKind::Delete)
            .expect("workload produces deletes");
        match &del.steps[0] {
            OpStep::Io(io) => assert!(io.flags.meta),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn op_mix_roughly_matches_weights() {
        let ops = drain(10_000, 4);
        let reads = ops.iter().filter(|o| o.kind == OpKind::FileRead).count();
        let deletes = ops.iter().filter(|o| o.kind == OpKind::Delete).count();
        let total_primary = ops.iter().filter(|o| o.kind != OpKind::Fsync).count();
        let read_frac = reads as f64 / total_primary as f64;
        let del_frac = deletes as f64 / total_primary as f64;
        assert!((read_frac - 0.6).abs() < 0.05, "reads={read_frac}");
        assert!((del_frac - 0.1).abs() < 0.03, "deletes={del_frac}");
    }

    #[test]
    fn cache_warms_up_over_repeated_reads() {
        // Small mailbox: everything fits in cache.
        let cfg = MailConfig {
            files: 100,
            ..MailConfig::default()
        };
        let mut w = MailserverWorkload::new(cfg, 5_000);
        let mut rng = SimRng::new(5);
        while w.next_op(&mut rng).is_some() {}
        assert!(
            w.cache_hit_ratio() > 0.5,
            "hit ratio = {}",
            w.cache_hit_ratio()
        );
    }
}
