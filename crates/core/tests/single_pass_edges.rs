//! Edge shapes of the single-pass merge SpMV/SpMM launch.
//!
//! The look-back links CTAs: every CTA but the last publishes its
//! trailing partial, the CTA holding a row's last nonzero folds its predecessors' partials,
//! and every row, empty ones included, is stored by exactly one CTA. These
//! properties generate square CSR inputs built to hit the shapes where
//! those links are easiest to get wrong — empty rows on the raw
//! (uncompacted) path, a row spanning three or more tiles, rows ending
//! exactly on a tile boundary, fewer nonzeros than one tile, and an
//! operator with no nonzeros at all — and check, on the compacting and the
//! raw path:
//!
//! * every plan build equals its per-nonzero reference build (per-CTA
//!   cycles, counters, links, simulated time), SpMM at k = 1, 3, 16, 17;
//! * the price of a fused execute, from counters kept at build, equals a
//!   full simulation of the fused launch and its reference simulation
//!   for all eight epilogue shapes;
//! * every result equals, bit for bit, the merge family's order written
//!   per nonzero ([`reference::merge_family`]: per-tile row segments
//!   summed in item order from 0.0, the segment that ends a row inside
//!   its tile stored, trailing segments added onto their rows in CTA
//!   order), and a zero-guess Jacobi epilogue's sweep equals
//!   `0 + (ω·dᵢ)·yᵢ` on those bits.

use mps_core::{
    reference, sequential_dot, Epilogue, EpilogueForm, SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan,
    Workspace,
};
use mps_simt::grid::LaunchStats;
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};
use proptest::prelude::*;

/// Which edge a generated matrix is built around.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// Runs of empty rows between, before and after the nonzero rows.
    EmptyRows,
    /// One row of at least three tiles.
    LongRow,
    /// Rows padded to end exactly on tile boundaries.
    BoundaryEnds,
    /// Fewer nonzeros than one tile.
    BelowOneTile,
    /// No nonzeros at all.
    EmptyOperator,
}

const EDGES: [Edge; 5] = [
    Edge::EmptyRows,
    Edge::LongRow,
    Edge::BoundaryEnds,
    Edge::BelowOneTile,
    Edge::EmptyOperator,
];

/// Row lengths around `edge` for tiles of `nv` nonzeros, from `draws`.
fn row_lengths(edge: Edge, nv: usize, draws: &[usize]) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut nnz = 0;
    for (i, &d) in draws.iter().enumerate() {
        let len = match edge {
            Edge::EmptyRows => [0, 0, d % 9, 0, d % (nv + 5)][i % 5],
            Edge::LongRow if i == draws.len() / 2 => 3 * nv + d % (2 * nv),
            Edge::LongRow => d % 7,
            // Every other row tops the running count up to the next
            // boundary (a whole tile when it is already on one).
            Edge::BoundaryEnds if i % 2 == 1 => nv - nnz % nv,
            Edge::BoundaryEnds => d % (nv / 2 + 3),
            Edge::BelowOneTile => usize::from(nnz + d % 4 < nv) * (d % 4),
            Edge::EmptyOperator => 0,
        };
        nnz += len;
        lens.push(len);
    }
    lens
}

/// A square matrix with the given row lengths: rows are padded with
/// trailing empty rows up to the longest row, and row `r` holds a run of
/// consecutive columns starting where `r` and the order put it.
fn square(lens: &[usize]) -> CsrMatrix {
    let n = lens
        .len()
        .max(lens.iter().copied().max().unwrap_or(0))
        .max(1);
    let mut row_offsets = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for r in 0..n {
        let len = lens.get(r).copied().unwrap_or(0);
        let start = (r * 7) % (n - len + 1);
        for j in 0..len {
            col_idx.push((start + j) as u32);
            values.push(0.5 + ((r * 13 + j * 5) % 17) as f64 * 0.375);
        }
        row_offsets.push(col_idx.len());
    }
    CsrMatrix {
        num_rows: n,
        num_cols: n,
        row_offsets,
        col_idx,
        values,
    }
}

fn same_stats(priced: &LaunchStats, simulated: &LaunchStats) -> bool {
    priced.per_cta_cycles == simulated.per_cta_cycles
        && priced.totals == simulated.totals
        && priced.sim_ms.to_bits() == simulated.sim_ms.to_bits()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn single_pass_edges_price_and_replay_like_the_reference(
        edge in 0usize..EDGES.len(),
        items in 1usize..4,
        draws in proptest::collection::vec(0usize..1000, 1..24),
    ) {
        let dev = Device::titan();
        // One item per thread pins the tile at `nv` whatever the operator's
        // size (`tile_spacing` clamps from block_threads up to nv), so
        // the edges stay on tile boundaries.
        let nv = 32 * items;
        let edge = EDGES[edge];
        let a = square(&row_lengths(edge, nv, &draws));
        let n = a.num_rows;
        match edge {
            Edge::LongRow => prop_assert!((0..n).any(|r| a.row_len(r) >= 3 * nv)),
            Edge::BelowOneTile => prop_assert!(a.nnz() < nv),
            Edge::EmptyOperator => prop_assert_eq!(a.nnz(), 0),
            _ => {}
        }
        let x: Vec<f64> = (0..n).map(|i| 1.0 - (i % 11) as f64 * 0.25).collect();
        let z: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.125).collect();
        let d: Vec<f64> = (0..n).map(|i| 0.25 + (i % 3) as f64 * 0.5).collect();
        // Signs alternate, so an empty row's +0 sum meets a negative
        // weight: the sweep's leading `0 +` must turn the −0 into +0.
        let signed: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { -d[i] } else { d[i] }).collect();
        let epilogues = [
            Epilogue::axpby(2.0, 0.0, &[]),
            Epilogue::dot_with(&z),
            Epilogue::axpby(-1.0, 1.0, &z),
            Epilogue::axpby(0.5, 2.0, &z).with_dot(&d),
            Epilogue::jacobi(0.7, &d, &z),
            Epilogue::jacobi(0.7, &d, &z).with_dot(&z),
            Epilogue::zero_guess_jacobi(0.7, &signed),
            Epilogue::zero_guess_jacobi(0.7, &signed).with_dot(&z),
        ];
        let want = reference::merge_family(&a, nv, &x);
        for force_no_compaction in [false, true] {
            let cfg = SpmvConfig { block_threads: nv, items_per_thread: 1, force_no_compaction };
            let plan = SpmvPlan::new(&dev, &a, &cfg);
            prop_assert_eq!(plan.partition_structure().nv, nv);
            let reference = reference::spmv_plan(&dev, &a, &cfg);
            prop_assert_eq!(format!("{plan:?}"), format!("{reference:?}"));
            let mut ws = Workspace::new();
            let mut y = vec![f64::NAN; n];
            plan.execute_into(&a, &x, &mut y, &mut ws);
            prop_assert_eq!(bits(&y), bits(&want));
            for e in &epilogues {
                let mut fused = vec![f64::NAN; n];
                let price = if let EpilogueForm::ZeroGuessJacobi { .. } = e.form {
                    let mut x1 = vec![f64::NAN; n];
                    let run = plan.execute_fused_sweep_into(&a, &x, &mut fused, &mut x1, &mut ws, e);
                    let sweep: Vec<f64> = (0..n).map(|i| 0.0 + 0.7 * signed[i] * want[i]).collect();
                    prop_assert_eq!(bits(&fused), bits(&want));
                    prop_assert_eq!(bits(&x1), bits(&sweep));
                    prop_assert_eq!(
                        run.dot.map(f64::to_bits),
                        e.dot.map(|w| sequential_dot(w, &want).to_bits())
                    );
                    run.reduction.clone()
                } else {
                    plan.execute_fused_into(&a, &x, &mut fused, &mut ws, e).reduction.clone()
                };
                let simulated = plan.simulate_fused(&a, e);
                prop_assert!(same_stats(&price, &simulated), "{:?}: {:?} vs {:?}", e, price, simulated);
                prop_assert!(same_stats(&simulated, &reference::spmv_simulate_fused(&reference, &a, e)));
                // Every row is stored once, empty operator included.
                prop_assert_eq!(price.per_cta_cycles.len(), plan.partition_structure().num_ctas().max(1));
            }

            let spmm_cfg = SpmmConfig { block_threads: nv, items_per_thread: 1, force_no_compaction, ..SpmmConfig::default() };
            for k in [1usize, 3, 16, 17] {
                let xs = DenseBlock::from_fn(n, k, |r, c| x[r] * (1.0 + c as f64 * 0.5));
                let plan = SpmmPlan::new(&dev, &a, k, &spmm_cfg);
                let reference = reference::spmm_plan(&dev, &a, k, &spmm_cfg);
                prop_assert_eq!(format!("{plan:?}"), format!("{reference:?}"));
                let mut y = DenseBlock::zeros(0, 0);
                plan.execute_into(&a, &xs, &mut y, &mut ws);
                for c in 0..k {
                    prop_assert_eq!(bits(&y.column(c)), bits(&reference::merge_family(&a, nv, &xs.column(c))), "k={} column {}", k, c);
                }
            }
        }
    }
}
