//! # mps-core — merge-path sparse matrix kernels
//!
//! The paper's contribution: three sparse kernels whose work decomposition
//! is *flat* — a fixed number of nonzeros (or intermediate products) per
//! CTA, independent of row segmentation — so processing time tracks total
//! work with correlation ≈ 1 across wildly different sparsity structures.
//!
//! * [`spmv`] — CSR SpMV by a build-time partition and one single-pass
//!   reduction launch per planned execute, with adaptive empty-row
//!   compaction (Section III-A); only the one-shot [`merge_spmv`] still
//!   prices the paper's separate update launch;
//! * [`spmm`] — CSR × dense multi-vector by the same decomposition, column
//!   tiled so one traversal of A's nonzeros produces `TILE_K` output
//!   columns, sharing the [`partition`] phase with SpMV;
//! * [`spadd`] — sparse matrix addition as a balanced-path set union over
//!   (row,col)-packed keys (Section III-B);
//! * [`spgemm`] — sparse matrix-matrix multiplication by flat decomposition
//!   over intermediate products with two-level sorting: a single-pass CTA
//!   radix sort, a permutation-only global sort, deferred product
//!   formation, and a final reduce-by-key (Section III-C, Figure 3).
//!
//! Beside them, the [`advisor`] prices merge-path CSR against the CMRS
//! strip kernel ([`format_spmv`]) per sparsity pattern and builds the
//! cheaper plan.
//!
//! All kernels run on the [`mps_simt`] virtual device and report both their
//! results and the simulated cost of every launch. The merge-path CTA tile
//! is fixed for large operators and spreads a small one over every SM
//! ([`partition::tile_spacing`]), so a small operator's result bits depend
//! on the device's SM count as well as its pattern.

pub mod advisor;
pub mod assemble;
pub mod config;
pub mod delta;
pub mod error;
pub mod format_spmv;
pub mod partition;
#[doc(hidden)]
pub mod reference;
mod simd;
pub mod spadd;
pub mod spgemm;
pub mod spmm;
pub mod spmv;
pub mod workspace;

pub use advisor::{AdvisedSpmvPlan, FormatAdvisor, FormatChoice, FormatDecision};
pub use config::{SpAddConfig, SpgemmConfig, SpmmConfig, SpmvConfig};
pub use delta::{apply_delta, apply_delta_reference, CsrDelta, DeltaApplied};
pub use error::PlanError;
pub use format_spmv::{spmv_rowwise, CmrsSpmvPlan};
pub use partition::{tile_spacing, MergePartition};
pub use spadd::{merge_spadd, SpAddPlan, SpAddResult};
pub use spgemm::{
    merge_spgemm, BinClass, BinSummary, HashAccumulator, PhaseTimes, RowBins, SpgemmPlan,
    SpgemmResult,
};
pub use spmm::{merge_spmm, SpmmPlan, SpmmResult};
pub use spmv::{
    merge_spmv, sequential_dot, Epilogue, EpilogueForm, FusedExecute, SpmvPlan, SpmvResult,
};
pub use workspace::Workspace;
