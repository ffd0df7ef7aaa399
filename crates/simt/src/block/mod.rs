//! Block-wide (CTA-wide) cooperative primitives.
//!
//! These mirror the CUB / ModernGPU building blocks the paper's kernels are
//! assembled from: the striped→blocked tile exchange, segmented reduction,
//! radix sort, and partition search. Each primitive implements the real
//! semantics on a host slice representing the CTA's register/shared-memory
//! tile (the exchange only its price: the kernels keep their tiles in
//! natural order) and charges the cost the hardware collective would incur.

pub mod exchange;
pub mod radix_sort;
pub mod search;
pub mod segscan;

pub use exchange::charge_exchange;
pub use radix_sort::{block_radix_sort_keys, block_radix_sort_pairs, BlockSortCost};
pub use search::{
    binary_search_partition, load_balance_search, load_balance_segments, merge_path_search,
};
pub use segscan::{block_segmented_reduce, charge_segmented_reduce, SegmentedReduceOut};
