//! The bio: the I/O unit tenants hand to a storage stack.

use dd_nvme::{IoOpcode, NamespaceId};
use simkit::SimTime;

use crate::ioprio::IoPriorityClass;
use crate::tenant::Pid;

/// Identifier of an outstanding bio.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BioId(pub u64);

/// Request flags relevant to SLA handling.
///
/// `REQ_SYNC`-flagged and `REQ_META`-flagged requests are the *outlier
/// L-requests* a T-tenant can issue (fsync, journal commits, metadata
/// updates); Daredevil recognises them directly from these flags (§6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ReqFlags {
    /// `REQ_SYNC`: the issuer blocks on this request.
    pub sync: bool,
    /// `REQ_META`: filesystem metadata.
    pub meta: bool,
}

impl ReqFlags {
    /// No flags (plain asynchronous data I/O).
    pub const NONE: ReqFlags = ReqFlags {
        sync: false,
        meta: false,
    };

    /// Synchronous data I/O.
    pub const SYNC: ReqFlags = ReqFlags {
        sync: true,
        meta: false,
    };

    /// Metadata I/O.
    pub const META: ReqFlags = ReqFlags {
        sync: false,
        meta: true,
    };

    /// True when the kernel would serve this request as high-priority
    /// (`REQ_HIPRIO` semantics): sync or metadata.
    pub fn is_outlier(self) -> bool {
        self.sync || self.meta
    }
}

/// One I/O operation issued by a tenant.
#[derive(Clone, Copy, Debug)]
pub struct Bio {
    /// Unique id (assigned by the issuer).
    pub id: BioId,
    /// Issuing tenant.
    pub tenant: Pid,
    /// Core the submission syscall runs on.
    pub core: u16,
    /// Target namespace.
    pub nsid: NamespaceId,
    /// Operation.
    pub op: IoOpcode,
    /// Starting block within the namespace.
    pub offset_blocks: u64,
    /// Transfer size in bytes (0 for flush).
    pub bytes: u64,
    /// SLA-relevant flags.
    pub flags: ReqFlags,
    /// The issuer's ionice class when the bio was issued (the kernel's
    /// `bio->bi_ioprio`): stacks that route by class read it here instead
    /// of keeping a per-tenant table.
    pub ioprio: IoPriorityClass,
    /// Time the tenant issued the I/O (latency is measured from here).
    pub issued_at: SimTime,
}

// Bios are copied into staging, the request map and every completion;
// `ioprio` lives in padding and must not grow either.
const _: () = assert!(std::mem::size_of::<Bio>() == 56);

/// A finished bio, handed back to the testbed by the stack.
///
/// Phase-level timing (in-NSQ wait, device service, delivery) is no longer
/// carried here: the structured span trace (`simkit::trace`, stitched by
/// `dd_metrics::SpanTable`) covers the full lifecycle for every request.
#[derive(Clone, Copy, Debug)]
pub struct BioCompletion {
    /// The completed bio.
    pub bio: Bio,
    /// Instant the completion was delivered to the tenant. May be later
    /// than the processing event's time when the completion path batches
    /// (the request is signalled at the end of the batch).
    pub completed_at: SimTime,
    /// Core whose ISR delivered the completion.
    pub completion_core: u16,
}

const _: () = assert!(std::mem::size_of::<BioCompletion>() == 72);

impl BioCompletion {
    /// End-to-end latency of the bio.
    pub fn latency(&self) -> simkit::SimDuration {
        self.completed_at.saturating_since(self.bio.issued_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_flags() {
        assert!(!ReqFlags::NONE.is_outlier());
        assert!(ReqFlags::SYNC.is_outlier());
        assert!(ReqFlags::META.is_outlier());
        assert!(ReqFlags {
            sync: true,
            meta: true
        }
        .is_outlier());
    }

    #[test]
    fn completion_latency() {
        let bio = Bio {
            id: BioId(1),
            tenant: Pid(1),
            core: 0,
            nsid: NamespaceId(1),
            op: IoOpcode::Read,
            offset_blocks: 0,
            bytes: 4096,
            flags: ReqFlags::NONE,
            ioprio: IoPriorityClass::BestEffort,
            issued_at: SimTime::from_micros(10),
        };
        let c = BioCompletion {
            bio,
            completed_at: SimTime::from_micros(110),
            completion_core: 3,
        };
        assert_eq!(c.latency().as_micros(), 100);
    }
}
