//! Block-wide (CTA-wide) cooperative primitives.
//!
//! These mirror the CUB / ModernGPU building blocks the paper's kernels are
//! assembled from: tile exchange, scan, segmented scan, reduction, radix
//! sort, merge, and partition search. Each primitive implements the real
//! semantics on a host slice representing the CTA's register/shared-memory
//! tile and charges the cost the hardware collective would incur.

pub mod exchange;
pub mod histogram;
pub mod merge;
pub mod radix_sort;
pub mod reduce;
pub mod scan;
pub mod search;
pub mod segscan;

pub use exchange::{blocked_to_striped, striped_to_blocked};
pub use histogram::{block_compact, block_histogram};
pub use merge::block_merge_by;
pub use radix_sort::{block_radix_sort_keys, block_radix_sort_pairs, BlockSortCost};
pub use reduce::block_reduce;
pub use scan::{block_exclusive_scan, block_inclusive_scan, Semigroup};
pub use search::{
    binary_search_partition, load_balance_search, load_balance_segments, merge_path_search,
};
pub use segscan::{block_segmented_reduce, charge_segmented_reduce, SegmentedReduceOut};
