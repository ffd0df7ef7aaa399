//! SpGEMM setup phase (the "Setup" bar of Figure 11).
//!
//! For every nonzero `A[i,k]` the expansion will touch the whole row `k` of
//! `B`, contributing `|B_row(k)|` intermediate products. The setup phase
//! scans those counts into the segmented prefix sum `S` used to partition
//! the product space, and expands `A`'s row index per nonzero (needed to
//! form output row coordinates during expansion).

use mps_simt::block::{load_balance_search, load_balance_segments};
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

/// Product-space description shared by every later phase.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Exclusive prefix sum of per-A-nonzero product counts
    /// (`len == |A| + 1`; last entry is the total number of products).
    pub s: Vec<usize>,
    /// Row of A owning each A nonzero.
    pub a_row_of_nnz: Vec<u32>,
    /// Total intermediate products (the paper's work measure, Figure 10).
    pub products: usize,
}

/// Build the product-space map for `A·B`.
pub fn setup(device: &Device, a: &CsrMatrix, b: &CsrMatrix) -> (Expansion, LaunchStats) {
    assert_eq!(a.num_cols, b.num_rows, "inner dimensions must agree");
    let nnz = a.nnz();

    let mut s = Vec::with_capacity(nnz + 1);
    s.push(0usize);
    for &k in &a.col_idx {
        s.push(s.last().expect("non-empty") + b.row_len(k as usize));
    }
    let mut a_row_of_nnz = Vec::with_capacity(nnz);
    for r in 0..a.num_rows {
        a_row_of_nnz.extend(std::iter::repeat_n(r as u32, a.row_len(r)));
    }

    // Charge the device cost: stream A's column indices, gather the two
    // B row offsets bounding each referenced row, scan, write S.
    let nv = 2048;
    let cfg = LaunchConfig::new(nnz.div_ceil(nv).max(1), 128);
    let (_, stats) = launch_map_phased(device, "spgemm_setup", Phase::Setup, cfg, |cta| {
        let lo = cta.cta_id * nv;
        let hi = (lo + nv).min(nnz);
        cta.read_coalesced(hi - lo, 4);
        cta.gather(a.col_idx[lo..hi].iter().map(|&k| k as usize), 8);
        cta.alu(3 * (hi - lo) as u64);
        cta.shmem(2 * (hi - lo) as u64);
        cta.sync();
        cta.write_coalesced(hi - lo, 8);
    });

    let products = *s.last().expect("non-empty");
    (
        Expansion {
            s,
            a_row_of_nnz,
            products,
        },
        stats,
    )
}

impl Expansion {
    /// Walk the products `lo..hi`, invoking `f(q, j, t)` for global product
    /// index `q`, owning A-nonzero `j`, and offset `t` within B's row.
    ///
    /// The visit order is the expansion order of the paper: products follow
    /// A's storage order (row-major, columns ascending), and within one A
    /// nonzero follow B's column order — so emitted (row,col) coordinates
    /// are non-decreasing in row.
    pub fn walk_tile(
        &self,
        cta: &mut mps_simt::cta::Cta,
        lo: usize,
        hi: usize,
        f: impl FnMut(usize, usize, usize),
    ) {
        // The load-balancing search over the product prefix sum: one
        // binary search finds the first A nonzero, then the cursor
        // advances monotonically through the tile.
        load_balance_search(cta, &self.s, lo, hi, f);
    }

    /// [`Expansion::walk_tile`] one A nonzero at a time: invokes
    /// `f(j, ts)` for every A nonzero `j` with products in `lo..hi`, where
    /// `ts` are those products' offsets within B's row, at the same charge.
    pub fn walk_segments(
        &self,
        cta: &mut mps_simt::cta::Cta,
        lo: usize,
        hi: usize,
        f: impl FnMut(usize, std::ops::Range<usize>),
    ) {
        load_balance_segments(cta, &self.s, lo, hi, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::CooMatrix;

    fn dev() -> Device {
        Device::titan()
    }

    fn paper_a() -> CsrMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            [
                (0, 0, 10.0),
                (1, 1, 20.0),
                (1, 2, 30.0),
                (1, 3, 40.0),
                (2, 3, 50.0),
                (3, 1, 60.0),
            ],
        )
        .to_csr()
    }

    fn paper_b() -> CsrMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            [
                (0, 0, 1.0),
                (1, 1, 2.0),
                (1, 3, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (3, 1, 6.0),
                (3, 3, 7.0),
            ],
        )
        .to_csr()
    }

    #[test]
    fn paper_example_has_eleven_products() {
        let (exp, _) = setup(&dev(), &paper_a(), &paper_b());
        assert_eq!(exp.products, 11);
        // A's nonzeros reference B rows [0,1,2,3,3,1] with lengths
        // [1,2,2,2,2,2] → prefix [0,1,3,5,7,9,11].
        assert_eq!(exp.s, vec![0, 1, 3, 5, 7, 9, 11]);
        assert_eq!(exp.a_row_of_nnz, vec![0, 1, 1, 1, 2, 3]);
    }

    #[test]
    fn walk_emits_products_in_expansion_order() {
        let (exp, _) = setup(&dev(), &paper_a(), &paper_b());
        let mut cta = mps_simt::cta::Cta::new(0, 1, 128, 32);
        let mut seen = Vec::new();
        exp.walk_tile(&mut cta, 0, exp.products, |q, j, t| seen.push((q, j, t)));
        assert_eq!(seen.len(), 11);
        // First product: A nnz 0 (row 0) × B row 0 offset 0.
        assert_eq!(seen[0], (0, 0, 0));
        // Product indices are consecutive; j non-decreasing.
        for (i, &(q, j, _)) in seen.iter().enumerate() {
            assert_eq!(q, i);
            if i > 0 {
                assert!(j >= seen[i - 1].1);
            }
        }
    }

    #[test]
    fn walk_partial_tiles_compose() {
        let (exp, _) = setup(&dev(), &paper_a(), &paper_b());
        let mut cta = mps_simt::cta::Cta::new(0, 1, 128, 32);
        let mut all = Vec::new();
        exp.walk_tile(&mut cta, 0, exp.products, |q, j, t| all.push((q, j, t)));
        for split in [1, 4, 7, 10] {
            let mut parts = Vec::new();
            exp.walk_tile(&mut cta, 0, split, |q, j, t| parts.push((q, j, t)));
            exp.walk_tile(&mut cta, split, exp.products, |q, j, t| {
                parts.push((q, j, t))
            });
            assert_eq!(parts, all, "split at {split}");
        }
    }

    #[test]
    fn empty_b_rows_give_zero_products() {
        let a = CooMatrix::from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)]).to_csr();
        let b = CsrMatrix::zeros(2, 2);
        let (exp, _) = setup(&dev(), &a, &b);
        assert_eq!(exp.products, 0);
    }
}
