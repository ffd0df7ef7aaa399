//! Adversarial matrix generators.
//!
//! Every generator is seeded and deterministic, like [`mps_sparse::gen`],
//! but targets the structures that stress a work decomposition instead of
//! the paper's friendly suite families: long runs of empty rows (the SpMV
//! compaction path), one enormous row among thousands of tiny ones (the
//! shape that serializes row-per-thread baselines), heavy power-law tails,
//! duplicate-saturated COO triplet streams, and the degenerate-shape zoo
//! (0×N, N×0, nnz = 0, 1×1).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mps_sparse::{gen, CooMatrix, CsrMatrix};

/// Sweep size: `Tiny` keeps CI smoke runs under a second; `Full` is the
/// default conformance gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

/// `k` distinct sorted columns from `0..cols` (rejection-free for the
/// small `k` the generators use).
fn distinct_cols(rng: &mut SmallRng, k: usize, cols: usize) -> Vec<u32> {
    let k = k.min(cols);
    if k == cols {
        return (0..cols as u32).collect();
    }
    let mut out: Vec<u32> = Vec::with_capacity(k * 2);
    while out.len() < k {
        for _ in 0..(k - out.len()) + 4 {
            out.push(rng.gen_range(0..cols as u32));
        }
        out.sort_unstable();
        out.dedup();
    }
    out.truncate(k);
    out
}

fn value_for(r: usize, c: u32) -> f64 {
    1.0 + ((r as u64 * 31 + c as u64 * 7) % 97) as f64 / 97.0
}

/// Bursts of consecutive empty rows: rows come in alternating runs of
/// `burst` populated rows and `burst` empty ones, so row-wise kernels see
/// long stretches of nothing while the nonzero total stays substantial.
/// Exercises the merge SpMV's adaptive row-compaction path and the
/// partition search's handling of repeated row boundaries.
pub fn empty_row_bursts(
    rows: usize,
    cols: usize,
    burst: usize,
    per_live_row: usize,
    seed: u64,
) -> CsrMatrix {
    assert!(burst > 0, "burst must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        if (r / burst) % 2 == 1 {
            continue; // an empty burst
        }
        for c in distinct_cols(&mut rng, per_live_row, cols) {
            coo.push(r as u32, c, value_for(r, c));
        }
    }
    coo.to_csr()
}

/// One fully dense row in an otherwise uniformly sparse matrix — the
/// single-row hotspot that makes row-per-thread/warp decompositions
/// serialize on one CTA while every other CTA idles.
pub fn one_dense_row(rows: usize, cols: usize, background_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dense_row = rows / 2;
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        if r == dense_row {
            for c in 0..cols as u32 {
                coo.push(r as u32, c, value_for(r, c));
            }
        } else {
            for c in distinct_cols(&mut rng, background_per_row, cols) {
                coo.push(r as u32, c, value_for(r, c));
            }
        }
    }
    coo.to_csr()
}

/// Heavy power-law tail: like [`gen::power_law`] but with the exponent
/// pushed close to 1, so a handful of rows hold most of the matrix and the
/// tail is almost entirely single-entry rows.
pub fn heavy_power_law(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    gen::power_law(rows, cols, 1, 1.05, cols, seed)
}

/// Per-row SpGEMM product counts pinned to the bin-adaptive thresholds.
/// Every column is used exactly once across the matrix, so with
/// `B = Aᵀ` each of row `i`'s entries multiplies a unit-count column of
/// `A`: row `i` of `A·B` generates exactly `row_len(i)` intermediate
/// products. The ladder's row lengths sit at, just below, and just above
/// the default tiny (32) and mid (512) bin bounds, plus an empty row and
/// a heavy tail row — so the tiny, mid, and heavy numeric paths all run,
/// each with a row exactly on its boundary.
pub fn bin_threshold_ladder() -> CsrMatrix {
    let lens: [usize; 9] = [0, 1, 31, 32, 33, 511, 512, 513, 600];
    let cols: usize = lens.iter().sum();
    let mut coo = CooMatrix::new(lens.len(), cols);
    let mut next = 0u32;
    for (r, &len) in lens.iter().enumerate() {
        for _ in 0..len {
            coo.push(r as u32, next, value_for(r, next));
            next += 1;
        }
    }
    coo.to_csr()
}

/// Row-length cliffs: rows come in alternating runs of `sigma` long rows
/// and `sigma` short rows, so row length jumps by `long_len - short_len`
/// at every multiple of `sigma`. With `sigma` a multiple of the CMRS strip
/// height every strip is internally uniform, and the CTAs that pack the
/// long strips carry the imbalance a row-split kernel inherits, while
/// merge's flat decomposition must not notice the cliff at all.
pub fn sigma_window_cliffs(
    windows: usize,
    sigma: usize,
    long_len: usize,
    short_len: usize,
    seed: u64,
) -> CsrMatrix {
    assert!(sigma > 0 && long_len >= short_len);
    let rows = windows * sigma;
    let cols = (long_len * 4).max(64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        let len = if (r / sigma).is_multiple_of(2) {
            long_len
        } else {
            short_len
        };
        for c in distinct_cols(&mut rng, len, cols) {
            coo.push(r as u32, c, value_for(r, c));
        }
    }
    coo.to_csr()
}

/// One dense row inside an otherwise *empty* block: rows `0..chunk` have
/// no entries except row `chunk/2`, which is fully dense, and the rest of
/// the matrix is uniformly sparse. CMRS must interleave a strip where one
/// row supplies every entry beside empty rows, and merge must split that
/// row across CTAs next to a run of empty rows.
pub fn dense_row_in_empty_slice(
    rows: usize,
    cols: usize,
    chunk: usize,
    background_per_row: usize,
    seed: u64,
) -> CsrMatrix {
    assert!(chunk > 0 && rows > chunk);
    let mut rng = SmallRng::seed_from_u64(seed);
    let dense_row = chunk / 2;
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        if r == dense_row {
            for c in 0..cols as u32 {
                coo.push(r as u32, c, value_for(r, c));
            }
        } else if r >= chunk {
            for c in distinct_cols(&mut rng, background_per_row, cols) {
                coo.push(r as u32, c, value_for(r, c));
            }
        }
    }
    coo.to_csr()
}

/// Duplicate-saturated COO: every logical entry appears `copies` times
/// with different partial values, in scrambled order. Canonicalization
/// (sort + sum) must recover exactly one entry per coordinate; this is the
/// input family that breaks CSR converters which assume sorted or
/// duplicate-free triplets.
pub fn duplicate_saturated_coo(
    rows: usize,
    cols: usize,
    distinct_entries: usize,
    copies: usize,
    seed: u64,
) -> CooMatrix {
    assert!(copies > 0, "copies must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(distinct_entries * copies);
    for _ in 0..distinct_entries {
        let r = rng.gen_range(0..rows.max(1) as u32);
        let c = rng.gen_range(0..cols.max(1) as u32);
        for k in 0..copies {
            // Partial values that sum to something stable per coordinate.
            triplets.push((
                r,
                c,
                value_for(r as usize, c) / copies as f64 + k as f64 * 0.25,
            ));
        }
    }
    // Scramble so duplicates are nowhere near each other.
    for i in (1..triplets.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        triplets.swap(i, j);
    }
    let mut coo = CooMatrix::new(rows, cols);
    for (r, c, v) in triplets {
        coo.push(r, c, v);
    }
    coo
}

/// The degenerate-shape zoo: every empty-dimension and near-empty shape a
/// kernel's launch arithmetic can mishandle (grid clamps, binary-search
/// edge cases, `nnz = 0` divisions).
pub fn degenerate() -> Vec<(&'static str, CsrMatrix)> {
    let mut single = CooMatrix::new(1, 1);
    single.push(0, 0, 2.5);
    vec![
        ("0x0", CsrMatrix::zeros(0, 0)),
        ("0x7", CsrMatrix::zeros(0, 7)),
        ("7x0", CsrMatrix::zeros(7, 0)),
        ("7x7 nnz=0", CsrMatrix::zeros(7, 7)),
        ("1x1 nnz=0", CsrMatrix::zeros(1, 1)),
        ("1x1 nnz=1", single.to_csr()),
        ("1x500 nnz=0", CsrMatrix::zeros(1, 500)),
        ("500x1 nnz=0", CsrMatrix::zeros(500, 1)),
    ]
}

/// The named adversarial collection the conformance sweep runs: the
/// hostile generators above plus the friendliest and nastiest of the
/// standard families for contrast. Deterministic for a given scale.
pub fn suite(scale: Scale) -> Vec<(String, CsrMatrix)> {
    let (n, plaw_rows, sigma_long, slice_n) = match scale {
        Scale::Tiny => (60, 120, 8, 96),
        Scale::Full => (400, 900, 48, 400),
    };
    let mut cases: Vec<(String, CsrMatrix)> = vec![
        (
            format!("empty-row-bursts {n}x{n}"),
            empty_row_bursts(n, n, 7, 4, 11),
        ),
        (
            format!("empty-row-bursts wide-burst {n}x{n}"),
            empty_row_bursts(n, n, n / 3, 6, 12),
        ),
        (format!("one-dense-row {n}x{n}"), one_dense_row(n, n, 2, 13)),
        (
            // Transposing puts the hotspot in a column of A — i.e. a
            // dense *row* of the SpGEMM operand B = Aᵀ.
            format!("one-dense-col {n}x{n}"),
            one_dense_row(n, n, 2, 18).transpose(),
        ),
        (
            "bin-threshold ladder 9-row".to_string(),
            bin_threshold_ladder(),
        ),
        ("all-empty-rows 40x23".to_string(), CsrMatrix::zeros(40, 23)),
        (
            format!("heavy-power-law {plaw_rows}x{plaw_rows}"),
            heavy_power_law(plaw_rows, plaw_rows, 14),
        ),
        (
            // Two 256-row runs, long then short: every CMRS strip is
            // uniform, and the first run's CTAs carry nearly all the work.
            format!("sigma-window cliffs 512 rows len {sigma_long}|1"),
            sigma_window_cliffs(2, 256, sigma_long, 1, 19),
        ),
        (
            // A fully dense row whose 32-row block is otherwise empty: a
            // strip fed by a single row, beside empty rows.
            format!("dense-row-in-empty-slice {slice_n}x{slice_n}"),
            dense_row_in_empty_slice(slice_n, slice_n, 32, 2, 20),
        ),
        (
            format!("short-wide lp 16x{}", n * 8),
            gen::lp_like(16, n * 8, 40.0, 120.0, 15),
        ),
        (
            format!("tall-narrow {}x4", n * 4),
            gen::random_uniform(n * 4, 4, 1.5, 1.0, 16),
        ),
        (
            format!("uniform {n}x{n}"),
            gen::random_uniform(n, n, 6.0, 3.0, 17),
        ),
    ];
    for (name, m) in degenerate() {
        cases.push((format!("degenerate {name}"), m));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_row_bursts_have_long_empty_runs() {
        let m = empty_row_bursts(100, 100, 10, 5, 1);
        m.validate().expect("well-formed");
        // Rows 10..20, 30..40, ... are empty.
        assert!(m.empty_rows() >= 40);
        assert!((10..20).all(|r| m.row_len(r) == 0));
        assert!((0..10).all(|r| m.row_len(r) > 0));
    }

    #[test]
    fn one_dense_row_is_dense_exactly_once() {
        let m = one_dense_row(50, 50, 2, 2);
        m.validate().expect("well-formed");
        assert_eq!(m.row_len(25), 50);
        assert!((0..50).filter(|&r| m.row_len(r) == 50).count() == 1);
    }

    #[test]
    fn bin_threshold_ladder_rows_have_the_pinned_lengths() {
        let m = bin_threshold_ladder();
        m.validate().expect("well-formed");
        let lens: Vec<usize> = (0..m.num_rows).map(|r| m.row_len(r)).collect();
        assert_eq!(lens, vec![0, 1, 31, 32, 33, 511, 512, 513, 600]);
        // Every column used exactly once, so products(row) == row_len.
        let mut seen = vec![false; m.num_cols];
        for &c in &m.col_idx {
            assert!(!seen[c as usize], "column {c} reused");
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn heavy_power_law_is_heavier_than_standard() {
        let m = heavy_power_law(500, 500, 3);
        m.validate().expect("well-formed");
        let s = mps_sparse::MatrixStats::of(&m);
        assert!(
            s.std_per_row > 2.0 * s.avg_per_row,
            "avg {} std {}",
            s.avg_per_row,
            s.std_per_row
        );
    }

    #[test]
    fn sigma_window_cliffs_are_uniform_within_windows() {
        let m = sigma_window_cliffs(4, 16, 9, 2, 5);
        m.validate().expect("well-formed");
        assert_eq!(m.num_rows, 64);
        for r in 0..m.num_rows {
            let want = if (r / 16) % 2 == 0 { 9 } else { 2 };
            assert_eq!(m.row_len(r), want, "row {r}");
        }
    }

    #[test]
    fn dense_row_in_empty_slice_isolates_the_hotspot() {
        let m = dense_row_in_empty_slice(96, 96, 32, 2, 6);
        m.validate().expect("well-formed");
        assert_eq!(m.row_len(16), 96);
        assert!((0..32).filter(|&r| m.row_len(r) > 0).count() == 1);
        assert!((32..96).all(|r| m.row_len(r) > 0));
    }

    #[test]
    fn duplicate_saturated_coo_canonicalizes_to_distinct_entries() {
        let coo = duplicate_saturated_coo(30, 30, 50, 4, 4);
        assert_eq!(coo.nnz(), 200);
        assert!(!coo.is_canonical());
        let csr = coo.to_csr();
        csr.validate().expect("well-formed after dedup");
        assert!(csr.nnz() <= 50);
    }

    #[test]
    fn degenerate_shapes_all_validate() {
        for (name, m) in degenerate() {
            m.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = suite(Scale::Tiny);
        let b = suite(Scale::Tiny);
        assert_eq!(a.len(), b.len());
        for ((na, ma), (nb, mb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(ma, mb);
        }
    }
}
