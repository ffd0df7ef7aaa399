//! # mps-graph — graph analytics on the merge-path kernels
//!
//! The paper frames its contribution as "segmentation oblivious methods to
//! process *general reductions* on sparse matrices". This crate takes that
//! literally: a [`semiring`] SpMV with the same flat nonzero-per-CTA
//! decomposition, instantiated for the classic graph semirings, plus the
//! algorithms built on them:
//!
//! * [`semiring`] — flat-decomposition SpMV over any (⊕, ⊗) semiring;
//! * [`bfs`] — level-synchronous breadth-first search (boolean semiring);
//! * [`components`] — connected components by min-label propagation
//!   (min-min semiring);
//! * [`pagerank`](mod@pagerank) — damped power iteration (ordinary (+, ×) via the
//!   merge SpMV), plus batched multi-source personalized PageRank over one
//!   merge SpMM per step;
//! * [`triangles`] — triangle counting: SpGEMM + balanced-path
//!   intersection (the paper's set-operation extension at work);
//! * [`stream`] — sliding-window PageRank over an evolving edge stream,
//!   driven through the serving layer's pattern-delta mutation API.

pub mod bfs;
pub mod components;
pub mod pagerank;
pub mod semiring;
pub mod stream;
pub mod triangles;

pub use bfs::bfs_levels;
pub use components::connected_components;
pub use pagerank::{pagerank, pagerank_multi, MultiPageRankResult, PageRankResult};
pub use semiring::{semiring_spmv, Semiring};
pub use stream::{edge_stream, sliding_pagerank, RoundReport, StreamConfig, StreamReport};
pub use triangles::count_triangles;

use mps_sparse::{CooMatrix, CsrMatrix};

/// Build a simple undirected graph's 0/1 adjacency matrix from an edge
/// list (self-loops dropped, duplicates collapsed).
pub fn adjacency_from_edges(nodes: usize, edges: &[(u32, u32)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(nodes, nodes);
    for &(u, v) in edges {
        if u != v {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
    }
    coo.canonicalize();
    let mut csr = coo.to_csr();
    for val in &mut csr.values {
        *val = 1.0;
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_symmetric_and_unit_weighted() {
        let a = adjacency_from_edges(4, &[(0, 1), (1, 0), (1, 2), (3, 3)]);
        assert_eq!(a.nnz(), 4); // (0,1),(1,0),(1,2),(2,1); self-loop dropped
        assert!(mps_sparse::ops::is_symmetric(&a));
        assert!(a.values.iter().all(|&v| v == 1.0));
    }
}
