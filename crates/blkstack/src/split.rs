//! I/O splitting: oversized bios become multiple per-command requests.
//!
//! The block layer caps a single device command at [`MAX_COMMAND_BYTES`]
//! (the `max_sectors` limit). Larger bios split into consecutive extents. As the
//! paper observes (§2.3), splitting does *not* cure the multi-tenancy issue:
//! the split parts sit consolidated in the same NSQ and cost the controller
//! no less effort than the original bulky request — the model preserves this
//! because each extent becomes its own in-order NVMe command.

use dd_nvme::spec::{bytes_to_blocks, BLOCK_BYTES};

/// Maximum bytes per device command: 128 KiB, the kernel's usual NVMe
/// `max_sectors_kb` and exactly the paper's T-request size, so T-requests
/// stay single commands.
pub const MAX_COMMAND_BYTES: u64 = 128 * 1024;

/// One split extent: a future NVMe command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Extent {
    /// Starting block (namespace-relative).
    pub slba: u64,
    /// Blocks in this extent.
    pub nlb: u32,
}

/// Splits `(offset_blocks, bytes)` into command-sized extents, computed
/// on the fly (the per-bio submit path allocates nothing).
///
/// Yields one extent for dataless I/O (`bytes == 0`, i.e. flush) so every
/// bio maps to at least one command.
pub fn split_extents(offset_blocks: u64, bytes: u64) -> impl ExactSizeIterator<Item = Extent> {
    let total_blocks = bytes_to_blocks(bytes);
    let max_blocks = (MAX_COMMAND_BYTES / BLOCK_BYTES) as u32;
    (0..total_blocks.div_ceil(max_blocks).max(1)).map(move |i| {
        let done = i * max_blocks;
        Extent {
            slba: offset_blocks + done as u64,
            nlb: (total_blocks - done).min(max_blocks),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bio_is_one_extent() {
        let e: Vec<_> = split_extents(10, 4096).collect();
        assert_eq!(e, vec![Extent { slba: 10, nlb: 1 }]);
    }

    #[test]
    fn exact_max_is_one_extent() {
        let e: Vec<_> = split_extents(0, 128 * 1024).collect();
        assert_eq!(e, vec![Extent { slba: 0, nlb: 32 }]);
    }

    #[test]
    fn oversized_bio_splits_contiguously() {
        let e: Vec<_> = split_extents(100, 300 * 1024).collect();
        // 300 KiB = 75 blocks → 32 + 32 + 11.
        assert_eq!(e.len(), 3);
        assert_eq!(e[0], Extent { slba: 100, nlb: 32 });
        assert_eq!(e[1], Extent { slba: 132, nlb: 32 });
        assert_eq!(e[2], Extent { slba: 164, nlb: 11 });
    }

    #[test]
    fn split_conserves_blocks() {
        for bytes in [1u64, 4096, 4097, 131072, 131073, 1 << 20] {
            let e: Vec<_> = split_extents(0, bytes).collect();
            let total: u64 = e.iter().map(|x| x.nlb as u64).sum();
            assert_eq!(total, bytes_to_blocks(bytes) as u64, "bytes={bytes}");
            // Extents are consecutive.
            let mut next = 0u64;
            for x in &e {
                assert_eq!(x.slba, next);
                next += x.nlb as u64;
            }
        }
    }

    #[test]
    fn flush_gets_one_dataless_extent() {
        let e: Vec<_> = split_extents(0, 0).collect();
        assert_eq!(e, vec![Extent { slba: 0, nlb: 0 }]);
    }
}
