//! Tuning parameters for the merge-path kernels.
//!
//! The paper statically tunes entries-per-thread empirically; these defaults
//! correspond to its microbenchmark configuration (128 threads per CTA, 11
//! items per thread for the SpGEMM block sort) and CUB-era SpMV tiles.
//! Each configuration's `validate` rejects a tile that cannot run, with a
//! typed [`PlanError`], before any plan is built from it.

use crate::error::PlanError;

/// Reject a zero or overflowing `block_threads × items_per_thread` tile.
fn check_tile(block_threads: usize, items_per_thread: usize) -> Result<usize, PlanError> {
    if block_threads == 0 {
        return Err(PlanError::InvalidConfig("block_threads must be nonzero"));
    }
    if items_per_thread == 0 {
        return Err(PlanError::InvalidConfig("items_per_thread must be nonzero"));
    }
    block_threads
        .checked_mul(items_per_thread)
        .ok_or(PlanError::InvalidConfig(
            "block_threads × items_per_thread overflows",
        ))
}

/// Merge SpMV tuning (Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvConfig {
    /// Threads per CTA.
    pub block_threads: usize,
    /// Nonzeros processed per thread.
    pub items_per_thread: usize,
    /// When true, always run the raw row-offsets path even if the matrix
    /// has empty rows (used by the empty-row ablation bench; the default
    /// adaptive behaviour compacts offsets when empty rows are detected).
    pub force_no_compaction: bool,
}

impl SpmvConfig {
    /// Nonzeros per CTA.
    pub fn nv(&self) -> usize {
        self.block_threads * self.items_per_thread
    }

    /// Check the tile can run: nonzero threads and items per thread.
    pub fn validate(&self) -> Result<(), PlanError> {
        check_tile(self.block_threads, self.items_per_thread).map(|_| ())
    }
}

impl Default for SpmvConfig {
    fn default() -> Self {
        SpmvConfig {
            block_threads: 128,
            items_per_thread: 7,
            force_no_compaction: false,
        }
    }
}

/// Column-tiled merge SpMM tuning (the multi-vector extension of the
/// Section III-A decomposition, after Yang/Buluç/Owens' design principles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmmConfig {
    /// Threads per CTA.
    pub block_threads: usize,
    /// Nonzeros processed per thread.
    pub items_per_thread: usize,
    /// Output columns produced per traversal of `A`'s nonzeros (one
    /// single-pass launch per tile). Wider tiles amortize the CSR
    /// traversal across more columns but hold more state per thread.
    pub tile_k: usize,
    /// When true, always run the raw row-offsets path even if the matrix
    /// has empty rows (mirrors [`SpmvConfig::force_no_compaction`]).
    pub force_no_compaction: bool,
}

impl SpmmConfig {
    /// Nonzeros per CTA.
    pub fn nv(&self) -> usize {
        self.block_threads * self.items_per_thread
    }

    /// Column tile width, clamped to at least one.
    pub fn tile(&self) -> usize {
        self.tile_k.max(1)
    }

    /// Check the tile can run: nonzero threads, items per thread and
    /// column tile width.
    pub fn validate(&self) -> Result<(), PlanError> {
        check_tile(self.block_threads, self.items_per_thread)?;
        if self.tile_k == 0 {
            return Err(PlanError::InvalidConfig("tile_k must be nonzero"));
        }
        Ok(())
    }
}

impl Default for SpmmConfig {
    fn default() -> Self {
        SpmmConfig {
            block_threads: 128,
            items_per_thread: 7,
            tile_k: 16,
            force_no_compaction: false,
        }
    }
}

/// Balanced-path SpAdd tuning (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpAddConfig {
    /// Threads per CTA.
    pub block_threads: usize,
    /// Input elements (from A and B combined) per CTA tile.
    pub nv: usize,
}

impl Default for SpAddConfig {
    fn default() -> Self {
        SpAddConfig {
            block_threads: 128,
            nv: 1024,
        }
    }
}

/// Merge SpGEMM tuning (Section III-C), plus the bin-adaptive numeric
/// thresholds of the symbolic/numeric split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpgemmConfig {
    /// Threads per CTA.
    pub block_threads: usize,
    /// Intermediate products expanded per thread.
    pub items_per_thread: usize,
    /// Tile size of the global radix-sort passes.
    pub global_sort_nv: usize,
    /// Rows with at most this many intermediate products take the numeric
    /// tiny path (dense-accumulator scatter, shared-memory resident). 32 is
    /// the warp-width bin OpSparse and the Liu–Vinter framework both place
    /// their smallest rows in.
    pub bin_tiny_max: usize,
    /// Rows with products in `(bin_tiny_max, bin_mid_max]` take the numeric
    /// mid path (open-addressing hash reduction in shared memory, sized to
    /// the row's *output* nonzeros). Rows above fall back to the paper's
    /// global two-pass sort. 512 keeps the table within one CTA's shared
    /// memory at 8-byte entries.
    pub bin_mid_max: usize,
}

impl SpgemmConfig {
    /// Most products one block-sort tile may hold: the sort stores each
    /// product's position in its tile as a 16-bit integer.
    pub const MAX_TILE_PRODUCTS: usize = 1 << 16;

    /// Products per CTA (`N_CTA` in the paper).
    pub fn nv(&self) -> usize {
        self.block_threads * self.items_per_thread
    }

    /// Check the configuration can run: a nonempty tile of at most
    /// [`SpgemmConfig::MAX_TILE_PRODUCTS`] products, a nonzero global-sort
    /// tile, and bin thresholds in order.
    pub fn validate(&self) -> Result<(), PlanError> {
        let nv = check_tile(self.block_threads, self.items_per_thread)?;
        if nv > Self::MAX_TILE_PRODUCTS {
            return Err(PlanError::InvalidConfig(
                "block_threads × items_per_thread must not exceed 65536 products per tile",
            ));
        }
        if self.global_sort_nv == 0 {
            return Err(PlanError::InvalidConfig("global_sort_nv must be nonzero"));
        }
        if self.bin_tiny_max > self.bin_mid_max {
            return Err(PlanError::InvalidConfig(
                "bin_tiny_max must not exceed bin_mid_max",
            ));
        }
        Ok(())
    }
}

impl Default for SpgemmConfig {
    fn default() -> Self {
        SpgemmConfig {
            block_threads: 128,
            items_per_thread: 11,
            global_sort_nv: 2048,
            bin_tiny_max: 32,
            bin_mid_max: 512,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spgemm_tile_matches_paper_microbenchmark() {
        // Figure 4: 128 threads × 11 items = 1408 products per CTA.
        assert_eq!(SpgemmConfig::default().nv(), 1408);
    }

    #[test]
    fn every_unrunnable_tile_is_a_typed_error() {
        let spmv = SpmvConfig::default();
        let spmm = SpmmConfig::default();
        let spgemm = SpgemmConfig::default();
        assert_eq!(spmv.validate(), Ok(()));
        assert_eq!(spmm.validate(), Ok(()));
        assert_eq!(spgemm.validate(), Ok(()));
        let invalid = |r: Result<(), PlanError>| matches!(r, Err(PlanError::InvalidConfig(_)));
        for (threads, items) in [(0, 7), (128, 0), (usize::MAX, 2)] {
            let (block_threads, items_per_thread) = (threads, items);
            assert!(invalid(
                SpmvConfig {
                    block_threads,
                    items_per_thread,
                    ..spmv
                }
                .validate()
            ));
            assert!(invalid(
                SpmmConfig {
                    block_threads,
                    items_per_thread,
                    ..spmm
                }
                .validate()
            ));
            assert!(invalid(
                SpgemmConfig {
                    block_threads,
                    items_per_thread,
                    ..spgemm
                }
                .validate()
            ));
        }
        assert!(invalid(SpmmConfig { tile_k: 0, ..spmm }.validate()));
        assert!(invalid(
            SpgemmConfig {
                global_sort_nv: 0,
                ..spgemm
            }
            .validate()
        ));
        assert!(invalid(
            SpgemmConfig {
                bin_tiny_max: 600,
                ..spgemm
            }
            .validate()
        ));
        // 65 536 products per tile is the largest a 16-bit position holds.
        let at_limit = SpgemmConfig {
            block_threads: 512,
            items_per_thread: 128,
            ..spgemm
        };
        assert_eq!(at_limit.validate(), Ok(()));
        assert!(invalid(
            SpgemmConfig {
                items_per_thread: 130,
                ..at_limit
            }
            .validate()
        ));
    }

    #[test]
    fn spmv_tile_is_threads_times_items() {
        let c = SpmvConfig {
            block_threads: 64,
            items_per_thread: 4,
            force_no_compaction: false,
        };
        assert_eq!(c.nv(), 256);
    }
}
