//! # mps-merge — merge-path and balanced-path partitioning
//!
//! Device-level building blocks for segmentation-oblivious sparse kernels:
//!
//! * [`merge_path`] — classic two-sequence merge-path partitioning (Green,
//!   McColl, Bader, ICS'12) and a grid-wide parallel merge;
//! * [`balanced_path`] — the paper's extension: partition points shift by
//!   one ("starred" diagonals) so that matched key-rank pairs never split
//!   across a partition, enabling duplicate-aware set operations;
//! * [`set_ops`] — union / intersection / difference / symmetric difference
//!   over sorted key(-value) sequences, decomposed with balanced path
//!   (Figure 1b and Figure 2 of the paper);
//! * [`radix`] — device-level LSD radix sort producing permutations, the
//!   global-memory sorting pass the SpGEMM pipeline and the ESC baseline
//!   are built on;
//! * [`merge_sort`] — device-wide comparison sort from merge-path merges,
//!   the comparison-based alternative the paper's background contrasts
//!   with radix sorting.

pub mod balanced_path;
pub mod merge_path;
pub mod merge_sort;
pub mod radix;
pub mod set_ops;

pub use balanced_path::{balanced_path_search, BalancedPoint};
pub use merge_path::{parallel_merge, partition_merge};
pub use merge_sort::parallel_merge_sort;
pub use set_ops::{set_op_count, set_op_keys, set_op_pairs, SetOp, SetOpStats};

/// Key types usable in device-level merge/set operations.
pub trait Key: Ord + Copy + Send + Sync {
    /// Size in bytes charged to the memory model.
    const BYTES: usize;
}

impl Key for u32 {
    const BYTES: usize = 4;
}

impl Key for u64 {
    const BYTES: usize = 8;
}
