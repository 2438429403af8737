//! YCSB workload mixes over kvsim.
//!
//! The paper evaluates YCSB types A, B, E and F on RocksDB (§7.4) because
//! they cover distinct runtime profiles: A is update-heavy, B read-heavy
//! (95 % cache-served), E scan-heavy, F read-modify-write. Keys follow the
//! standard YCSB Zipfian distribution.

use simkit::rng::{ZetaCache, Zipfian};
use simkit::{RunArena, SimRng};

use crate::app::{commands, AppOp, OpKind};
use crate::kvsim::{KvConfig, KvStore, BLOCK_BYTES, FLUSH_WRITE_BYTES};

/// The four YCSB mixes used by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbMix {
    /// 50 % reads, 50 % updates.
    A,
    /// 95 % reads, 5 % updates.
    B,
    /// 95 % scans, 5 % inserts.
    E,
    /// 50 % reads, 50 % read-modify-writes.
    F,
}

impl YcsbMix {
    /// Stable label.
    pub fn as_str(self) -> &'static str {
        match self {
            YcsbMix::A => "ycsb-a",
            YcsbMix::B => "ycsb-b",
            YcsbMix::E => "ycsb-e",
            YcsbMix::F => "ycsb-f",
        }
    }
}

/// A YCSB client bound to a kvsim store.
pub struct YcsbWorkload {
    mix: YcsbMix,
    store: KvStore,
    zipf: Zipfian,
    ops_remaining: u64,
    /// A pending second half of an RMW (the write after the read).
    pending_rmw_write: Option<u64>,
}

impl YcsbWorkload {
    /// Creates a client issuing `ops` operations of `mix` over a store with
    /// `config`.
    pub fn new(mix: YcsbMix, config: KvConfig, ops: u64) -> Self {
        let keys = config.keys;
        Self::with_parts(mix, KvStore::new(config), Zipfian::ycsb(keys), ops)
    }

    /// [`YcsbWorkload::new`] with the expensive tables recycled from
    /// `arena`: the kvsim block-cache map and the memoised `zeta(n, θ)`
    /// summation behind the Zipfian key picker. Byte-identical behaviour to
    /// the plain constructor — only construction cost changes.
    pub fn new_in(mix: YcsbMix, config: KvConfig, ops: u64, arena: &mut RunArena) -> Self {
        let keys = config.keys;
        let mut zc: ZetaCache = arena.take(crate::arena_tags::ZETA_CACHE);
        let zipf = Zipfian::ycsb_cached(keys, &mut zc);
        arena.put(crate::arena_tags::ZETA_CACHE, zc);
        Self::with_parts(mix, KvStore::new_in(config, arena), zipf, ops)
    }

    fn with_parts(mix: YcsbMix, store: KvStore, zipf: Zipfian, ops: u64) -> Self {
        YcsbWorkload {
            mix,
            store,
            zipf,
            ops_remaining: ops,
            pending_rmw_write: None,
        }
    }

    /// Most device commands one client has in flight: its largest
    /// step. A client runs one op step at a time; its parallel steps are
    /// the flush-plus-compaction burst (every mix updates or inserts)
    /// and, under E, a scan's cache misses. Every other step issues one
    /// block I/O.
    pub fn max_in_flight(mix: YcsbMix, config: &KvConfig) -> usize {
        let writes = (config.flush_writes + config.compaction_writes) as usize;
        let burst = writes * commands(FLUSH_WRITE_BYTES);
        let scan = if mix == YcsbMix::E {
            config.scan_blocks as usize * commands(BLOCK_BYTES)
        } else {
            0
        };
        burst.max(scan).max(commands(BLOCK_BYTES))
    }

    /// The store (for cache statistics).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Produces the next operation, or `None` when the client is done.
    pub fn next_op(&mut self, rng: &mut SimRng) -> Option<AppOp> {
        // Background maintenance (memtable flush/compaction) goes first.
        if let Some(op) = self.store.take_maintenance() {
            return Some(op);
        }
        // Finish a split RMW first (its write phase).
        if let Some(key) = self.pending_rmw_write.take() {
            return Some(self.store.update_op(key, OpKind::ReadModifyWrite));
        }
        if self.ops_remaining == 0 {
            return None;
        }
        self.ops_remaining -= 1;
        let key = self.zipf.sample(rng);
        let roll = rng.gen_range(100);
        let op = match self.mix {
            YcsbMix::A => {
                if roll < 50 {
                    self.store.read_op(key)
                } else {
                    self.store.update_op(key, OpKind::Update)
                }
            }
            YcsbMix::B => {
                if roll < 95 {
                    self.store.read_op(key)
                } else {
                    self.store.update_op(key, OpKind::Update)
                }
            }
            YcsbMix::E => {
                if roll < 95 {
                    self.store.scan_op(key)
                } else {
                    self.store.update_op(key, OpKind::Insert)
                }
            }
            YcsbMix::F => {
                if roll < 50 {
                    self.store.read_op(key)
                } else {
                    // RMW = read now, write as the immediately following op
                    // (latency of both halves accrues to the RMW kind).
                    self.pending_rmw_write = Some(key);
                    let mut read = self.store.read_op(key);
                    read.kind = OpKind::ReadModifyWrite;
                    read
                }
            }
        };
        Some(op)
    }

    /// Parks the kvsim block-cache map into `arena` for the next run.
    pub fn park_scratch(&mut self, arena: &mut RunArena) {
        self.store.park_scratch(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> KvConfig {
        KvConfig {
            keys: 10_000,
            cache_blocks: 2_000,
            ..KvConfig::default()
        }
    }

    fn op_histogram(mix: YcsbMix, n: u64) -> std::collections::HashMap<OpKind, u64> {
        let mut w = YcsbWorkload::new(mix, small_cfg(), n);
        let mut rng = SimRng::new(7);
        let mut hist = std::collections::HashMap::new();
        while let Some(op) = w.next_op(&mut rng) {
            *hist.entry(op.kind).or_insert(0) += 1;
        }
        hist
    }

    #[test]
    fn mix_a_is_half_updates() {
        let h = op_histogram(YcsbMix::A, 4000);
        let reads = *h.get(&OpKind::Read).unwrap_or(&0) as f64;
        let updates = *h.get(&OpKind::Update).unwrap_or(&0) as f64;
        let frac = updates / (reads + updates);
        assert!((frac - 0.5).abs() < 0.05, "update frac={frac}");
    }

    #[test]
    fn mix_b_is_read_heavy() {
        let h = op_histogram(YcsbMix::B, 4000);
        let reads = *h.get(&OpKind::Read).unwrap_or(&0) as f64;
        let frac = reads / 4000.0;
        assert!(frac > 0.9, "read frac={frac}");
    }

    #[test]
    fn mix_e_scans() {
        let h = op_histogram(YcsbMix::E, 4000);
        assert!(*h.get(&OpKind::Scan).unwrap_or(&0) > 3500);
        assert!(*h.get(&OpKind::Insert).unwrap_or(&0) > 50);
    }

    #[test]
    fn mix_f_pairs_rmw_halves() {
        let h = op_histogram(YcsbMix::F, 4000);
        let rmw = *h.get(&OpKind::ReadModifyWrite).unwrap_or(&0);
        // Each RMW op yields two AppOps of kind RMW (read + write halves).
        assert!(rmw > 3000, "rmw={rmw}");
        assert!(rmw.is_multiple_of(2), "halves must pair up");
    }

    #[test]
    fn terminates_after_ops() {
        let mut w = YcsbWorkload::new(YcsbMix::B, small_cfg(), 10);
        let mut rng = SimRng::new(1);
        let mut count = 0;
        while w.next_op(&mut rng).is_some() {
            count += 1;
        }
        assert_eq!(count, 10);
        assert!(w.next_op(&mut rng).is_none());
    }

    #[test]
    fn zipfian_reads_mostly_hit_cache() {
        let mut w = YcsbWorkload::new(YcsbMix::B, small_cfg(), 20_000);
        let mut rng = SimRng::new(9);
        while w.next_op(&mut rng).is_some() {}
        // 20 % cache over a 0.99-Zipfian keyspace: hit ratio must be high —
        // this is what makes YCSB-B "95 % CPU-centric" in the paper.
        assert!(
            w.store().cache_hit_ratio() > 0.6,
            "hit ratio = {}",
            w.store().cache_hit_ratio()
        );
    }
}
