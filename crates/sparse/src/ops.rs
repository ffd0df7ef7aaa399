//! Sequential reference kernels.
//!
//! These are the correctness oracles for every parallel implementation in
//! the workspace and also the "sequential implementation using CSR format
//! on the CPU" that Figures 7 and 9 of the paper use as the speedup
//! baseline. `spgemm_ref` is Gustavson's algorithm (the paper's citation
//! \[12\]) with its characteristic O(n) dense workspace.

use crate::csr::CsrMatrix;

/// y = A·x for CSR `a`.
///
/// # Panics
/// Panics if `x.len() != a.num_cols`.
pub fn spmv_ref(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.num_cols, "x length must equal num_cols");
    (0..a.num_rows)
        .map(|r| {
            a.row_cols(r)
                .iter()
                .zip(a.row_vals(r))
                .map(|(c, v)| v * x[*c as usize])
                .sum()
        })
        .collect()
}

/// C = A + B by a two-pointer merge of each row pair.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spadd_ref(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(
        (a.num_rows, a.num_cols),
        (b.num_rows, b.num_cols),
        "SpAdd operands must have identical shape"
    );
    let mut row_offsets = Vec::with_capacity(a.num_rows + 1);
    row_offsets.push(0usize);
    let mut col_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for r in 0..a.num_rows {
        let (ac, av) = (a.row_cols(r), a.row_vals(r));
        let (bc, bv) = (b.row_cols(r), b.row_vals(r));
        let (mut i, mut j) = (0, 0);
        while i < ac.len() || j < bc.len() {
            if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                col_idx.push(ac[i]);
                values.push(av[i]);
                i += 1;
            } else if i >= ac.len() || bc[j] < ac[i] {
                col_idx.push(bc[j]);
                values.push(bv[j]);
                j += 1;
            } else {
                col_idx.push(ac[i]);
                values.push(av[i] + bv[j]);
                i += 1;
                j += 1;
            }
        }
        row_offsets.push(col_idx.len());
    }
    CsrMatrix {
        num_rows: a.num_rows,
        num_cols: a.num_cols,
        row_offsets,
        col_idx,
        values,
    }
}

/// C = A·B by Gustavson's row-wise algorithm with a dense accumulator.
///
/// # Panics
/// Panics if `a.num_cols != b.num_rows`.
pub fn spgemm_ref(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.num_cols, b.num_rows, "inner dimensions must agree");
    let n = b.num_cols;
    // Dense workspace: value accumulator + "present" marker per column.
    let mut acc = vec![0.0f64; n];
    let mut marker = vec![usize::MAX; n];
    let mut row_offsets = Vec::with_capacity(a.num_rows + 1);
    row_offsets.push(0usize);
    let mut col_idx: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();

    for r in 0..a.num_rows {
        touched.clear();
        for (k, av) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            let k = *k as usize;
            for (c, bv) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                let c_us = *c as usize;
                if marker[c_us] != r {
                    marker[c_us] = r;
                    acc[c_us] = 0.0;
                    touched.push(*c);
                }
                acc[c_us] += av * bv;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            col_idx.push(c);
            values.push(acc[c as usize]);
        }
        row_offsets.push(col_idx.len());
    }
    CsrMatrix {
        num_rows: a.num_rows,
        num_cols: n,
        row_offsets,
        col_idx,
        values,
    }
}

/// Scale all values in place: `a *= alpha`.
pub fn scale(a: &mut CsrMatrix, alpha: f64) {
    for v in &mut a.values {
        *v *= alpha;
    }
}

/// Extract the main diagonal (zeros where absent).
pub fn diagonal(a: &CsrMatrix) -> Vec<f64> {
    (0..a.num_rows.min(a.num_cols))
        .map(|r| {
            a.row_cols(r)
                .iter()
                .zip(a.row_vals(r))
                .find(|(c, _)| **c as usize == r)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        })
        .collect()
}

/// True when the matrix equals its transpose (pattern and values).
pub fn is_symmetric(a: &CsrMatrix) -> bool {
    a.num_rows == a.num_cols && *a == a.transpose()
}

/// Number of intermediate products `|{(i,k,j) : A[i,k] != 0, B[k,j] != 0}|` — the
/// paper's measure of SpGEMM work (x-axis of Figure 10).
pub fn spgemm_products(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    assert_eq!(a.num_cols, b.num_rows, "inner dimensions must agree");
    a.col_idx
        .iter()
        .map(|&k| b.row_len(k as usize) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::{dense_matmul, from_dense, to_dense};

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
    fn spmv_on_paper_matrix() {
        let a = paper_a();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = spmv_ref(&a, &x);
        assert_eq!(y, vec![10.0, 290.0, 200.0, 120.0]);
    }

    #[test]
    fn spadd_disjoint_and_overlapping() {
        let a = paper_a();
        let c = spadd_ref(&a, &a);
        assert_eq!(c.nnz(), a.nnz());
        assert_eq!(
            c.values.iter().sum::<f64>(),
            2.0 * a.values.iter().sum::<f64>()
        );
        c.validate().expect("well-formed sum");
    }

    #[test]
    fn spadd_merges_distinct_columns() {
        let a = from_dense(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let b = from_dense(&[vec![0.0, 3.0], vec![4.0, 0.0]]);
        let c = spadd_ref(&a, &b);
        assert_eq!(to_dense(&c), vec![vec![1.0, 3.0], vec![4.0, 2.0]]);
    }

    #[test]
    fn spgemm_matches_paper_result() {
        // The worked example: C = A×B from Section III-C.
        let c = spgemm_ref(&paper_a(), &paper_b());
        let expected = vec![
            vec![10.0, 0.0, 0.0, 0.0],
            vec![120.0, 430.0, 0.0, 340.0],
            vec![0.0, 300.0, 0.0, 350.0],
            vec![0.0, 120.0, 0.0, 180.0],
        ];
        assert_eq!(to_dense(&c), expected);
        c.validate().expect("well-formed product");
    }

    #[test]
    fn scale_multiplies_every_value() {
        let mut a = paper_a();
        let before = a.values.clone();
        scale(&mut a, -2.0);
        assert_eq!(a.values[0], -20.0);
        for (v, b) in a.values.iter().zip(&before) {
            assert_eq!(*v, -2.0 * b);
        }
    }

    #[test]
    fn diagonal_extraction_fills_missing_with_zero() {
        let a = paper_a();
        assert_eq!(diagonal(&a), vec![10.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn symmetry_detection() {
        let stencil = crate::gen::stencil_5pt(6, 6);
        assert!(is_symmetric(&stencil));
        assert!(!is_symmetric(&paper_a()));
        let rect = CsrMatrix::zeros(2, 3);
        assert!(!is_symmetric(&rect));
    }

    #[test]
    fn spgemm_products_counts_expansion_size() {
        // The paper's example expands to 11 intermediate products.
        assert_eq!(spgemm_products(&paper_a(), &paper_b()), 11);
    }

    #[test]
    fn spgemm_matches_dense_oracle() {
        let a = paper_a();
        let b = paper_b();
        assert_eq!(to_dense(&spgemm_ref(&a, &b)), dense_matmul(&a, &b));
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let a = paper_a();
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm_ref(&a, &i), a);
        assert_eq!(spgemm_ref(&i, &a), a);
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn spadd_shape_mismatch_panics() {
        spadd_ref(&CsrMatrix::zeros(2, 2), &CsrMatrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn spmv_shape_mismatch_panics() {
        spmv_ref(&CsrMatrix::zeros(2, 2), &[1.0]);
    }
}
