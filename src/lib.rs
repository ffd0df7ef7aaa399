//! # merge-path-sparse
//!
//! Reproduction of *"Optimizing Sparse Matrix Operations on GPUs using
//! Merge Path"* (Dalton, Olson, Baxter, Merrill, Garland — IPDPS 2015) as
//! a pure-Rust library running on a virtual SIMT device.
//!
//! This facade crate re-exports the workspace so downstream users need a
//! single dependency:
//!
//! ```
//! use merge_path_sparse::prelude::*;
//!
//! let device = Device::titan();
//! let a = gen::stencil_5pt(16, 16);
//! let x = vec![1.0; a.num_cols];
//! let result = merge_spmv(&device, &a, &x, &SpmvConfig::default());
//! assert_eq!(result.y.len(), a.num_rows);
//! ```
//!
//! Crate map:
//! * [`simt`] — the virtual GPU (grid/CTA/warp model, block primitives,
//!   cost model, wave scheduler);
//! * [`sparse`] — COO/CSR formats, reference kernels, generators, the
//!   synthetic Table II suite, Matrix Market I/O;
//! * [`merge`] — merge-path / balanced-path partitioning and parallel set
//!   operations;
//! * [`core`] — the paper's kernels: merge SpMV, column-tiled merge SpMM,
//!   balanced-path SpAdd, and two-level-sort SpGEMM;
//! * [`baselines`] — the comparators (Cusp-like, cuSPARSE-like, sequential
//!   CPU with an analytic cost model);
//! * [`solvers`] — the downstream layer the paper motivates: Krylov
//!   solvers and smoothed-aggregation algebraic multigrid driven entirely
//!   by the merge-path kernels;
//! * [`graph`] — graph analytics over a generic-semiring flat SpMV (BFS,
//!   connected components, PageRank, triangle counting);
//! * [`engine`] — the serving layer: a plan cache keyed by pattern
//!   fingerprint, a workspace pool, and a sharded multi-tenant
//!   [`engine::Service`] with per-tenant QoS whose flushes coalesce
//!   concurrent SpMV requests into column-tiled SpMM traversals.

pub use mps_baselines as baselines;
pub use mps_core as core;
pub use mps_engine as engine;
pub use mps_graph as graph;
pub use mps_merge as merge;
pub use mps_simt as simt;
pub use mps_solvers as solvers;
pub use mps_sparse as sparse;

/// Unified facade error: every fallible path in the workspace — engine
/// serving, plan construction, COO validation, Matrix Market I/O —
/// converts into this one enum, so `fn f() -> Result<_, merge_path_sparse::Error>`
/// can use `?` across layers.
#[derive(Debug)]
pub enum Error {
    /// Serving-layer refusal or failure ([`mps_engine::EngineError`]).
    Engine(mps_engine::EngineError),
    /// Kernel plan construction failure ([`mps_core::PlanError`]).
    Plan(mps_core::PlanError),
    /// COO triplet validation failure ([`mps_sparse::CooError`]).
    Format(mps_sparse::CooError),
    /// Matrix Market I/O failure ([`mps_sparse::io::MmError`]).
    Io(mps_sparse::io::MmError),
    /// No synthetic Table II matrix matches the given name (the `mps`
    /// CLI's `generate`/`spgemm`/`trace` suite arguments).
    UnknownSuite(String),
    /// An operation on the named file failed. Wraps the underlying error
    /// so CLI-facing messages always name the offending argument.
    File {
        /// The path argument as the user supplied it.
        path: String,
        source: Box<Error>,
    },
}

impl Error {
    /// Wrap an error with the file-path argument it concerns.
    pub fn for_file(path: impl Into<String>, source: impl Into<Error>) -> Error {
        Error::File {
            path: path.into(),
            source: Box::new(source.into()),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Engine(e) => write!(f, "engine: {e}"),
            Error::Plan(e) => write!(f, "plan: {e}"),
            Error::Format(e) => write!(f, "format: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
            Error::UnknownSuite(name) => write!(f, "unknown suite matrix '{name}'"),
            Error::File { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Engine(e) => Some(e),
            Error::Plan(e) => Some(e),
            Error::Format(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::UnknownSuite(_) => None,
            Error::File { source, .. } => Some(source),
        }
    }
}

impl From<mps_engine::EngineError> for Error {
    fn from(e: mps_engine::EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<mps_core::PlanError> for Error {
    fn from(e: mps_core::PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<mps_sparse::CooError> for Error {
    fn from(e: mps_sparse::CooError) -> Self {
        Error::Format(e)
    }
}

impl From<mps_sparse::io::MmError> for Error {
    fn from(e: mps_sparse::io::MmError) -> Self {
        Error::Io(e)
    }
}

/// The commonly used names in one import.
pub mod prelude {
    pub use crate::Error;
    pub use mps_core::{
        merge_spadd, merge_spgemm, merge_spmm, merge_spmv, spmv_rowwise, CmrsSpmvPlan, PlanError,
        SellSpmvPlan, SpAddConfig, SpAddPlan, SpgemmConfig, SpgemmPlan, SpmmConfig, SpmmPlan,
        SpmvConfig, SpmvPlan, Workspace,
    };
    pub use mps_engine::{
        AdvisedSpmvPlan, Engine, EngineConfig, EngineConfigBuilder, EngineError, EngineOutput,
        EngineStats, FormatAdvisor, FormatChoice, FormatDecision, Service, ServiceConfig,
        ServiceConfigBuilder, ServiceStats, ServiceTicket, TenantId, TenantSpec,
    };
    pub use mps_simt::{Device, Phase, PhaseLedger, PhaseReport};
    pub use mps_solvers::{
        block_cg, block_cg_with_engine, cg, AmgHierarchy, AmgOptions, SolverOptions,
    };
    pub use mps_sparse::{
        gen, suite::SuiteMatrix, CmrsMatrix, CooError, CooMatrix, CsrMatrix, DenseBlock,
        MatrixStats, SellCSigmaMatrix,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_error_converts_from_every_layer() {
        fn engine_path() -> Result<(), Error> {
            Err(mps_engine::EngineError::InvalidConfig(
                "max_batch must be at least 1",
            ))?;
            Ok(())
        }
        fn plan_path() -> Result<(), Error> {
            Err(mps_core::PlanError::InnerDimMismatch {
                a_cols: 2,
                b_rows: 3,
            })?;
            Ok(())
        }
        fn format_path() -> Result<(), Error> {
            let mut coo = mps_sparse::CooMatrix::new(1, 1);
            coo.row_idx = vec![5];
            coo.col_idx = vec![0];
            coo.values = vec![1.0];
            mps_sparse::CsrMatrix::try_from_coo(&coo)?;
            Ok(())
        }
        fn io_path() -> Result<(), Error> {
            mps_sparse::io::read_matrix_market("not a matrix".as_bytes())?;
            Ok(())
        }
        assert!(matches!(engine_path(), Err(Error::Engine(_))));
        assert!(matches!(plan_path(), Err(Error::Plan(_))));
        assert!(matches!(format_path(), Err(Error::Format(_))));
        assert!(matches!(io_path(), Err(Error::Io(_))));
        let e = engine_path().unwrap_err();
        assert!(e.to_string().starts_with("engine:"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn argument_errors_name_the_offending_argument() {
        let e = Error::UnknownSuite("webscale".into());
        assert_eq!(e.to_string(), "unknown suite matrix 'webscale'");
        assert!(std::error::Error::source(&e).is_none());

        let io = mps_sparse::io::read_matrix_market("not a matrix".as_bytes()).unwrap_err();
        let e = Error::for_file("bogus.mtx", io);
        assert!(e.to_string().starts_with("bogus.mtx: io:"), "{e}");
        assert!(matches!(&e, Error::File { source, .. } if matches!(**source, Error::Io(_))));
        assert!(std::error::Error::source(&e).is_some());
    }
}
