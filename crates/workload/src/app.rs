//! Application workload interface: ops as scripts of I/O and compute steps.

use blkstack::split::split_extents;
use blkstack::ReqFlags;
use dd_nvme::IoOpcode;
use simkit::{RunArena, SimDuration, SimRng};

use crate::mailserver::MailserverWorkload;
use crate::ycsb::YcsbWorkload;

/// Device commands one I/O of `bytes` becomes: the dispatch core splits
/// a bio at [`blkstack::split::MAX_COMMAND_BYTES`].
pub(crate) fn commands(bytes: u64) -> usize {
    split_extents(0, bytes).len()
}

/// Where an I/O lands within the tenant's namespace region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Uniformly random block (the testbed rolls it).
    Random,
    /// Next block after the tenant's previous sequential I/O.
    Sequential,
    /// A specific block (e.g. a cache-missed KV block).
    Block(u64),
}

/// One I/O to issue.
#[derive(Clone, Copy, Debug)]
pub struct IoDesc {
    /// Read/write/flush.
    pub op: IoOpcode,
    /// Transfer size in bytes (0 for flush).
    pub bytes: u64,
    /// Target placement.
    pub placement: Placement,
    /// SLA-relevant flags (sync/meta).
    pub flags: ReqFlags,
}

/// One step of an application op.
#[derive(Clone, Debug)]
pub enum OpStep {
    /// Issue one I/O and wait for its completion.
    Io(IoDesc),
    /// Issue several I/Os concurrently and wait for all of them.
    IoParallel(Vec<IoDesc>),
    /// Burn CPU on the tenant's core.
    Compute(SimDuration),
}

/// The application-level operation type, for per-op latency reporting
/// (Fig. 12 reports YCSB reads/updates/inserts/scans/RMWs and Mailserver
/// fsync/delete).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Update of an existing key.
    Update,
    /// Insert of a new key.
    Insert,
    /// Range scan.
    Scan,
    /// Read-modify-write.
    ReadModifyWrite,
    /// File read (mailserver).
    FileRead,
    /// File append (mailserver).
    Append,
    /// fsync.
    Fsync,
    /// File delete.
    Delete,
    /// Background maintenance (flush/compaction) — excluded from op stats.
    Maintenance,
}

impl OpKind {
    /// Stable label for tables.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Update => "update",
            OpKind::Insert => "insert",
            OpKind::Scan => "scan",
            OpKind::ReadModifyWrite => "rmw",
            OpKind::FileRead => "fileread",
            OpKind::Append => "append",
            OpKind::Fsync => "fsync",
            OpKind::Delete => "delete",
            OpKind::Maintenance => "maintenance",
        }
    }
}

/// One application operation: a kind plus the steps realising it.
#[derive(Clone, Debug)]
pub struct AppOp {
    /// Operation type.
    pub kind: OpKind,
    /// Steps executed sequentially on the tenant's core.
    pub steps: Vec<OpStep>,
}

/// A closed-loop application workload: the testbed asks for the next op as
/// soon as the previous one finishes.
pub enum App {
    /// A YCSB client over kvsim.
    Ycsb(YcsbWorkload),
    /// The filebench-style mailserver.
    Mailserver(MailserverWorkload),
}

impl App {
    /// Produces the next operation, or `None` when the workload is done.
    pub fn next_op(&mut self, rng: &mut SimRng) -> Option<AppOp> {
        match self {
            App::Ycsb(w) => w.next_op(rng),
            App::Mailserver(w) => w.next_op(rng),
        }
    }

    /// Parks recyclable scratch (caches, tables) into `arena` at the end of
    /// a run so the next run built against the same arena skips rebuilding
    /// it.
    pub fn park_scratch(&mut self, arena: &mut RunArena) {
        match self {
            App::Ycsb(w) => w.park_scratch(arena),
            App::Mailserver(w) => w.park_scratch(arena),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvsim::KvConfig;
    use crate::mailserver::MailConfig;
    use crate::ycsb::YcsbMix;

    /// The most device commands any one step of `app` puts in flight at
    /// once, over all its ops.
    fn largest_step(mut app: App) -> usize {
        let mut rng = SimRng::new(11);
        let mut largest = 0;
        while let Some(op) = app.next_op(&mut rng) {
            for step in &op.steps {
                largest = largest.max(match step {
                    OpStep::Io(io) => commands(io.bytes),
                    OpStep::IoParallel(ios) => ios.iter().map(|io| commands(io.bytes)).sum(),
                    OpStep::Compute(_) => 0,
                });
            }
        }
        largest
    }

    /// Each app's reported in-flight bound covers the device commands of
    /// the largest step it emits, and equals them where that step is
    /// reached: the flush-plus-compaction burst for every YCSB mix, E's
    /// cold scans when a scan outgrows the burst, and a mailserver read's
    /// misses. Commands are counted as the dispatch core splits each I/O,
    /// so an I/O that outgrows one command raises the count here too.
    #[test]
    fn max_in_flight_covers_every_parallel_step() {
        let kv = KvConfig {
            keys: 20_000,
            cache_blocks: 64,
            memtable_entries: 8,
            ..KvConfig::default()
        };
        let wide_scans = KvConfig {
            scan_blocks: 64,
            ..kv
        };
        for (mix, config) in [
            (YcsbMix::A, kv),
            (YcsbMix::B, kv),
            (YcsbMix::E, kv),
            (YcsbMix::E, wide_scans),
            (YcsbMix::F, kv),
        ] {
            let bound = YcsbWorkload::max_in_flight(mix, &config);
            let seen = largest_step(App::Ycsb(YcsbWorkload::new(mix, config, 3_000)));
            assert_eq!(seen, bound, "{mix:?} scan_blocks {}", config.scan_blocks);
        }
        // 40 blocks: an fsync's write-back splits into two commands.
        for file_blocks in [6, 40] {
            let mail = MailConfig {
                cache_blocks: 16,
                file_blocks,
                ..MailConfig::default()
            };
            let bound = MailserverWorkload::max_in_flight(&mail);
            let seen = largest_step(App::Mailserver(MailserverWorkload::new(mail, 2_000)));
            assert_eq!(seen, bound, "mailserver file_blocks {file_blocks}");
        }
    }

    #[test]
    fn op_kind_labels_unique() {
        let kinds = [
            OpKind::Read,
            OpKind::Update,
            OpKind::Insert,
            OpKind::Scan,
            OpKind::ReadModifyWrite,
            OpKind::FileRead,
            OpKind::Append,
            OpKind::Fsync,
            OpKind::Delete,
            OpKind::Maintenance,
        ];
        let labels: std::collections::HashSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
