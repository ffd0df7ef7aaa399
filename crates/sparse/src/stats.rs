//! Row-length statistics (the columns of Table II).

use crate::csr::CsrMatrix;

/// Structural statistics of a matrix, matching Table II of the paper:
/// rows, columns, nonzeros, mean entries per row and standard deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
    pub avg_per_row: f64,
    pub std_per_row: f64,
    pub empty_rows: usize,
    pub max_row: usize,
}

impl MatrixStats {
    pub fn of(m: &CsrMatrix) -> Self {
        let rows = m.num_rows;
        let nnz = m.nnz();
        let avg = if rows == 0 {
            0.0
        } else {
            nnz as f64 / rows as f64
        };
        let mut var = 0.0;
        let mut empty = 0;
        let mut max_row = 0;
        for r in 0..rows {
            let len = m.row_len(r);
            if len == 0 {
                empty += 1;
            }
            max_row = max_row.max(len);
            let d = len as f64 - avg;
            var += d * d;
        }
        let std = if rows == 0 {
            0.0
        } else {
            (var / rows as f64).sqrt()
        };
        MatrixStats {
            rows,
            cols: m.num_cols,
            nnz,
            avg_per_row: avg,
            std_per_row: std,
            empty_rows: empty,
            max_row,
        }
    }

    /// Coefficient of variation of row lengths (std / mean); 0 when the
    /// matrix has no entries. The single strongest regular-vs-irregular
    /// signal a format advisor has.
    pub fn cv(&self) -> f64 {
        if self.avg_per_row > 0.0 {
            self.std_per_row / self.avg_per_row
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for MatrixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>9} rows {:>9} cols {:>10} nnz {:>9.2} avg/row {:>9.2} std",
            self.rows, self.cols, self.nnz, self.avg_per_row, self.std_per_row
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn uniform_rows_have_zero_std() {
        let m = CsrMatrix::identity(100);
        let s = MatrixStats::of(&m);
        assert_eq!(s.nnz, 100);
        assert_eq!(s.avg_per_row, 1.0);
        assert_eq!(s.std_per_row, 0.0);
        assert_eq!(s.empty_rows, 0);
        assert_eq!(s.max_row, 1);
    }

    #[test]
    fn skewed_rows_have_positive_std() {
        let mut coo = CooMatrix::new(4, 8);
        for c in 0..8u32 {
            coo.push(0, c, 1.0);
        }
        let s = MatrixStats::of(&coo.to_csr());
        assert_eq!(s.avg_per_row, 2.0);
        assert_eq!(s.empty_rows, 3);
        assert_eq!(s.max_row, 8);
        // lengths [8,0,0,0]: var = (36+4+4+4)/4 = 12
        assert!((s.std_per_row - 12f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_stats() {
        let s = MatrixStats::of(&CsrMatrix::zeros(0, 0));
        assert_eq!(s.avg_per_row, 0.0);
        assert_eq!(s.std_per_row, 0.0);
    }
}
