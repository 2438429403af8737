//! The paper's tenant parameterisations (§7.1, §7.4, §7.5).

use crate::fio::{FioJob, RwPattern};

/// An L-tenant job: 4 KiB random requests at I/O depth 1, matching the
/// random distribution of small L-requests in real-time workloads.
pub fn l_tenant_job() -> FioJob {
    FioJob::new(RwPattern::RandRead, 4096, 1)
}

/// A T-tenant job: 128 KiB requests at I/O depth 32.
pub fn t_tenant_job() -> FioJob {
    FioJob::new(RwPattern::RandRead, 128 * 1024, 32)
}

/// A write-flavoured T-tenant (for mixed-direction pressure experiments).
pub fn t_tenant_write_job() -> FioJob {
    FioJob::new(RwPattern::RandWrite, 128 * 1024, 32)
}

/// The streaming background jobs co-located with the real-world apps in
/// §7.4: sequential bulk reads.
pub fn streaming_job() -> FioJob {
    FioJob::new(RwPattern::SeqRead, 128 * 1024, 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let l = l_tenant_job();
        assert_eq!(l.block_size, 4096);
        assert_eq!(l.iodepth, 1);
        let t = t_tenant_job();
        assert_eq!(t.block_size, 128 * 1024);
        assert_eq!(t.iodepth, 32);
    }

    #[test]
    fn streaming_is_sequential() {
        assert_eq!(streaming_job().rw, RwPattern::SeqRead);
    }
}
