//! PageRank by damped power iteration.
//!
//! The iteration `r ← (1−d)/n + d·Pᵀr` is one merge SpMV per step over the
//! column-stochastic transition matrix — a web-crawl workload is exactly
//! the Webbase case of the paper's suite, where flat decomposition is at
//! its most valuable.
//!
//! [`pagerank_multi`] batches `k` *personalized* PageRank computations
//! (one seed vertex per column) into a single power iteration over an
//! `n × k` [`DenseBlock`]: each step is one column-tiled merge SpMM
//! instead of `k` SpMVs, so the transition matrix is streamed
//! `⌈k / TILE_K⌉` times per iteration rather than `k` times.

use mps_core::{SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};

/// Result of a PageRank computation.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    pub scores: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    pub sim_ms: f64,
}

/// Column-stochastic transition operator Pᵀ stored row-major: entry
/// (v, u) = 1/outdeg(u) for each edge u→v, so `Pᵀ·r` is a single CSR SpMV.
pub(crate) fn transition_transpose(graph: &CsrMatrix) -> (CsrMatrix, Vec<bool>) {
    let n = graph.num_rows;
    let mut t = graph.transpose();
    let dangling: Vec<bool> = (0..n).map(|u| graph.row_len(u) == 0).collect();
    // Scale column u (rows of graph) by 1/outdeg(u): in the transpose, the
    // column index is the source vertex.
    let outdeg: Vec<f64> = (0..n).map(|u| graph.row_len(u) as f64).collect();
    for v in 0..t.num_rows {
        let (lo, hi) = (t.row_offsets[v], t.row_offsets[v + 1]);
        for i in lo..hi {
            t.values[i] = 1.0 / outdeg[t.col_idx[i] as usize];
        }
    }
    (t, dangling)
}

/// Damped PageRank with dangling-mass redistribution.
///
/// # Panics
/// Panics if the graph is not square or `damping` is outside (0, 1).
pub fn pagerank(
    device: &Device,
    graph: &CsrMatrix,
    damping: f64,
    tolerance: f64,
    max_iterations: usize,
) -> PageRankResult {
    assert_eq!(
        graph.num_rows, graph.num_cols,
        "PageRank needs a square graph"
    );
    assert!(damping > 0.0 && damping < 1.0, "damping must lie in (0, 1)");
    let n = graph.num_rows;
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            sim_ms: 0.0,
        };
    }
    let (t, dangling) = transition_transpose(graph);
    let cfg = SpmvConfig::default();
    let plan = SpmvPlan::new(device, &t, &cfg);
    let mut sim_ms = plan.partition.sim_ms;
    let mut ws = Workspace::new();
    let mut y: Vec<f64> = Vec::new();

    let mut r = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iterations {
        sim_ms += plan.execute_into(&t, &r, &mut y, &mut ws);
        // Dangling vertices spread their mass uniformly.
        let dangling_mass: f64 = r
            .iter()
            .zip(&dangling)
            .filter(|(_, &d)| d)
            .map(|(ri, _)| ri)
            .sum();
        let base = (1.0 - damping) / n as f64 + damping * dangling_mass / n as f64;
        // Finish the update in place and swap buffers: steady-state
        // iterations allocate nothing.
        let mut delta = 0.0;
        for (yi, ri) in y.iter_mut().zip(&r) {
            *yi = base + damping * *yi;
            delta += (*yi - ri).abs();
        }
        std::mem::swap(&mut r, &mut y);
        iterations += 1;
        if delta < tolerance {
            converged = true;
            break;
        }
    }
    PageRankResult {
        scores: r,
        iterations,
        converged,
        sim_ms,
    }
}

/// Result of a batched multi-source personalized PageRank computation.
#[derive(Debug, Clone)]
pub struct MultiPageRankResult {
    /// One score column per source vertex (`n × k`).
    pub scores: DenseBlock,
    /// Shared outer iterations run.
    pub iterations: usize,
    /// Per-column convergence flags.
    pub converged: Vec<bool>,
    pub sim_ms: f64,
}

/// Batched personalized PageRank: one column per seed vertex, all columns
/// advanced together with one merge SpMM per power-iteration step.
///
/// Column `c` iterates `r ← (1−d)·e_c + d·(Pᵀr + m_c·e_c)` where `e_c` is
/// the indicator of `sources[c]` and `m_c` is that column's dangling mass —
/// teleports and dangling mass return to the seed, so each column is the
/// personalized rank of its source.
///
/// # Panics
/// Panics if the graph is not square, `damping` is outside (0, 1), or any
/// source vertex is out of range.
pub fn pagerank_multi(
    device: &Device,
    graph: &CsrMatrix,
    sources: &[u32],
    damping: f64,
    tolerance: f64,
    max_iterations: usize,
) -> MultiPageRankResult {
    assert_eq!(
        graph.num_rows, graph.num_cols,
        "PageRank needs a square graph"
    );
    assert!(damping > 0.0 && damping < 1.0, "damping must lie in (0, 1)");
    let n = graph.num_rows;
    let k = sources.len();
    assert!(
        sources.iter().all(|&s| (s as usize) < n),
        "source vertex out of range"
    );
    if n == 0 || k == 0 {
        return MultiPageRankResult {
            scores: DenseBlock::zeros(n, k),
            iterations: 0,
            converged: vec![true; k],
            sim_ms: 0.0,
        };
    }
    let (t, dangling) = transition_transpose(graph);
    let plan = SpmmPlan::new(device, &t, k, &SpmmConfig::default());
    let mut sim_ms = plan.partition.sim_ms;
    let mut ws = Workspace::new();
    let mut y = DenseBlock::zeros(0, 0);

    // Start each column at its personalization vector.
    let mut r = DenseBlock::zeros(n, k);
    for (c, &s) in sources.iter().enumerate() {
        r.set(s as usize, c, 1.0);
    }

    let mut iterations = 0;
    let mut converged = vec![false; k];
    let mut dangling_mass = vec![0.0; k];
    let mut delta = vec![0.0; k];
    while iterations < max_iterations {
        sim_ms += plan.execute_into(&t, &r, &mut y, &mut ws);
        // Per-column dangling mass: one masked column-sum pass over r.
        dangling_mass.iter_mut().for_each(|m| *m = 0.0);
        for (row, &d) in dangling.iter().enumerate() {
            if d {
                for (m, ri) in dangling_mass.iter_mut().zip(r.row(row)) {
                    *m += ri;
                }
            }
        }
        // Finish the update in place and swap blocks: steady-state
        // iterations allocate nothing.
        for yi in y.data.iter_mut() {
            *yi *= damping;
        }
        for (c, &s) in sources.iter().enumerate() {
            let seed = s as usize;
            let boost = (1.0 - damping) + damping * dangling_mass[c];
            y.set(seed, c, y.get(seed, c) + boost);
        }
        delta.iter_mut().for_each(|d| *d = 0.0);
        for (yrow, rrow) in y.data.chunks(k).zip(r.data.chunks(k)) {
            for ((d, yi), ri) in delta.iter_mut().zip(yrow).zip(rrow) {
                *d += (yi - ri).abs();
            }
        }
        std::mem::swap(&mut r, &mut y);
        iterations += 1;
        for (cv, &d) in converged.iter_mut().zip(&delta) {
            *cv = d < tolerance;
        }
        if converged.iter().all(|&c| c) {
            break;
        }
    }
    MultiPageRankResult {
        scores: r,
        iterations,
        converged,
        sim_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency_from_edges;

    fn dev() -> Device {
        Device::titan()
    }

    fn run(graph: &CsrMatrix) -> PageRankResult {
        pagerank(&dev(), graph, 0.85, 1e-12, 500)
    }

    #[test]
    fn scores_sum_to_one() {
        let g = adjacency_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pr = run(&g);
        assert!(pr.converged);
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn symmetric_ring_has_uniform_rank() {
        let edges: Vec<(u32, u32)> = (0..10).map(|v| (v, (v + 1) % 10)).collect();
        let g = adjacency_from_edges(10, &edges);
        let pr = run(&g);
        for &s in &pr.scores {
            assert!((s - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_collects_more_rank_than_leaves() {
        // Star: every leaf links to the hub and back.
        let edges: Vec<(u32, u32)> = (1..12).map(|v| (0u32, v)).collect();
        let g = adjacency_from_edges(12, &edges);
        let pr = run(&g);
        assert!(pr.scores[0] > 3.0 * pr.scores[1], "{:?}", &pr.scores[..3]);
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // Directed-ish structure with a sink: use an asymmetric matrix.
        let mut coo = mps_sparse::CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        // vertex 2 dangles
        let g = coo.to_csr();
        let pr = run(&g);
        assert!(pr.converged);
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_rejected() {
        let g = adjacency_from_edges(2, &[(0, 1)]);
        pagerank(&dev(), &g, 1.5, 1e-6, 10);
    }

    fn run_multi(graph: &CsrMatrix, sources: &[u32]) -> MultiPageRankResult {
        pagerank_multi(&dev(), graph, sources, 0.85, 1e-12, 500)
    }

    #[test]
    fn multi_source_mass_is_conserved_per_column() {
        let g = adjacency_from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let pr = run_multi(&g, &[0, 3, 7]);
        assert!(pr.converged.iter().all(|&c| c));
        for c in 0..3 {
            let total: f64 = pr.scores.column(c).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "column {c} mass {total}");
        }
    }

    #[test]
    fn batched_columns_match_single_source_runs() {
        let g = adjacency_from_edges(
            10,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 7), (7, 8), (8, 9)],
        );
        let sources = [1u32, 7, 9];
        let batched = run_multi(&g, &sources);
        for (c, &s) in sources.iter().enumerate() {
            let single = run_multi(&g, &[s]);
            assert_eq!(
                batched.scores.column(c),
                single.scores.column(0),
                "column {c} must match its standalone run"
            );
        }
    }

    #[test]
    fn each_column_is_biased_toward_its_seed() {
        let edges: Vec<(u32, u32)> = (0..12).map(|v| (v, (v + 1) % 12)).collect();
        let g = adjacency_from_edges(12, &edges);
        let pr = run_multi(&g, &[2, 9]);
        let c0 = pr.scores.column(0);
        let c1 = pr.scores.column(1);
        assert_eq!(
            c0.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i),
            Some(2)
        );
        assert_eq!(
            c1.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i),
            Some(9)
        );
    }

    #[test]
    fn dangling_mass_returns_to_the_seed_column() {
        // 0 → 1 → 2 with vertex 2 dangling.
        let mut coo = mps_sparse::CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        let g = coo.to_csr();
        let pr = run_multi(&g, &[0, 2]);
        for c in 0..2 {
            let total: f64 = pr.scores.column(c).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "column {c} mass {total}");
        }
        // The seed keeps the largest share of its own column.
        assert!(pr.scores.get(0, 0) > pr.scores.get(2, 0) - 1e-12);
    }

    #[test]
    fn empty_source_list_is_trivially_converged() {
        let g = adjacency_from_edges(4, &[(0, 1)]);
        let pr = run_multi(&g, &[]);
        assert_eq!(pr.iterations, 0);
        assert_eq!((pr.scores.rows, pr.scores.cols), (4, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let g = adjacency_from_edges(3, &[(0, 1)]);
        pagerank_multi(&dev(), &g, &[5], 0.85, 1e-6, 10);
    }
}
