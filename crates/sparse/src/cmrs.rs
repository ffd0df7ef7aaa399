//! CMRS — Compressed Multi-Row Storage (Koza et al., "Compressed
//! Multirow Storage Format for Sparse Matrices on Graphics Processing
//! Units").
//!
//! Rows are grouped into *strips* of a fixed height; within a strip the
//! entries of its rows are interleaved round-robin (entry 0 of every row,
//! then entry 1 of every row, ...), so consecutive threads of a warp read
//! consecutive storage slots — coalesced like ELL — while storing exactly
//! `nnz` entries with no padding. Each entry carries its row-within-strip
//! tag so the kernel can route products to the right accumulator.
//!
//! The round-robin interleave visits every row's entries in their
//! original CSR order, which is what makes the conversion **lossless**:
//! [`CmrsMatrix::to_csr`] reproduces the source pattern and values
//! exactly, bit for bit.

use crate::csr::CsrMatrix;

/// Default strip height: tall enough to interleave a meaningful number of
/// rows per coalesced read, short enough that one strip's accumulators
/// fit comfortably in shared memory.
pub const CMRS_DEFAULT_STRIP_HEIGHT: usize = 16;

/// A sparse matrix in CMRS form: strip-interleaved entries plus per-entry
/// row tags.
#[derive(Debug, Clone, PartialEq)]
pub struct CmrsMatrix {
    pub num_rows: usize,
    pub num_cols: usize,
    /// Rows per strip (the last strip may cover fewer).
    pub strip_height: usize,
    /// Length `num_strips() + 1`; `strip_ptr[s]..strip_ptr[s+1]` is the
    /// interleaved entry range of strip `s`.
    pub strip_ptr: Vec<usize>,
    /// Row-within-strip tag of every entry (`< strip_height`).
    pub row_in_strip: Vec<u16>,
    pub col_idx: Vec<u32>,
    pub values: Vec<f64>,
}

impl CmrsMatrix {
    /// Convert from CSR at the default strip height.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        Self::from_csr_with_height(m, CMRS_DEFAULT_STRIP_HEIGHT)
    }

    /// Convert from CSR with an explicit strip height. Entries are
    /// interleaved round-robin across the strip's rows, preserving each
    /// row's internal order.
    ///
    /// # Panics
    /// Panics if `strip_height` is zero or exceeds `u16::MAX` (the tag
    /// width).
    pub fn from_csr_with_height(m: &CsrMatrix, strip_height: usize) -> Self {
        assert!(strip_height >= 1, "strip height must be at least 1");
        assert!(
            strip_height <= u16::MAX as usize,
            "strip height must fit the u16 row tag"
        );
        let num_strips = m.num_rows.div_ceil(strip_height);
        let mut strip_ptr = Vec::with_capacity(num_strips + 1);
        strip_ptr.push(0usize);
        let mut row_in_strip = Vec::with_capacity(m.nnz());
        let mut col_idx = Vec::with_capacity(m.nnz());
        let mut values = Vec::with_capacity(m.nnz());
        for s in 0..num_strips {
            let row_lo = s * strip_height;
            let row_hi = (row_lo + strip_height).min(m.num_rows);
            let longest = (row_lo..row_hi).map(|r| m.row_len(r)).max().unwrap_or(0);
            for j in 0..longest {
                for r in row_lo..row_hi {
                    if j < m.row_len(r) {
                        row_in_strip.push((r - row_lo) as u16);
                        col_idx.push(m.row_cols(r)[j]);
                        values.push(m.row_vals(r)[j]);
                    }
                }
            }
            strip_ptr.push(col_idx.len());
        }
        CmrsMatrix {
            num_rows: m.num_rows,
            num_cols: m.num_cols,
            strip_height,
            strip_ptr,
            row_in_strip,
            col_idx,
            values,
        }
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Strips covering the row space.
    pub fn num_strips(&self) -> usize {
        self.num_rows.div_ceil(self.strip_height)
    }

    /// Check structural invariants: consistent array lengths, monotone
    /// strip pointers covering all entries, in-bounds row tags and column
    /// indices, and — per row — strictly increasing columns in interleave
    /// order (the invariant the lossless round trip rests on).
    pub fn validate(&self) -> Result<(), String> {
        if self.strip_height == 0 {
            return Err("strip height is zero".into());
        }
        if self.strip_ptr.len() != self.num_strips() + 1 {
            return Err(format!(
                "strip_ptr length {} != num_strips+1 {}",
                self.strip_ptr.len(),
                self.num_strips() + 1
            ));
        }
        if self.strip_ptr.first() != Some(&0) {
            return Err("strip_ptr[0] != 0".into());
        }
        if *self.strip_ptr.last().expect("non-empty strip_ptr") != self.nnz() {
            return Err("last strip_ptr != nnz".into());
        }
        if self.col_idx.len() != self.values.len() || self.row_in_strip.len() != self.values.len() {
            return Err("entry array length mismatch".into());
        }
        let mut last_col = vec![-1i64; self.strip_height];
        for s in 0..self.num_strips() {
            let (lo, hi) = (self.strip_ptr[s], self.strip_ptr[s + 1]);
            if lo > hi {
                return Err(format!("strip {s} has decreasing pointers"));
            }
            let rows_here = (self.num_rows - s * self.strip_height).min(self.strip_height);
            last_col[..rows_here].fill(-1);
            for k in lo..hi {
                let tag = self.row_in_strip[k] as usize;
                if tag >= rows_here {
                    return Err(format!(
                        "strip {s} entry {k} has out-of-strip row tag {tag}"
                    ));
                }
                let c = self.col_idx[k];
                if c as usize >= self.num_cols {
                    return Err(format!("strip {s} entry {k} has out-of-bounds column {c}"));
                }
                if (c as i64) <= last_col[tag] {
                    return Err(format!(
                        "strip {s} row {tag}: columns not strictly increasing at entry {k}"
                    ));
                }
                last_col[tag] = c as i64;
            }
        }
        Ok(())
    }

    /// Convert back to CSR — exact (pattern and values): the interleave
    /// keeps every row's entries in order, so a counting sort by row
    /// reproduces the original layout.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_offsets = vec![0usize; self.num_rows + 1];
        for s in 0..self.num_strips() {
            let base = s * self.strip_height;
            for k in self.strip_ptr[s]..self.strip_ptr[s + 1] {
                row_offsets[base + self.row_in_strip[k] as usize + 1] += 1;
            }
        }
        for r in 0..self.num_rows {
            row_offsets[r + 1] += row_offsets[r];
        }
        let mut cursor = row_offsets.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for s in 0..self.num_strips() {
            let base = s * self.strip_height;
            for k in self.strip_ptr[s]..self.strip_ptr[s + 1] {
                let r = base + self.row_in_strip[k] as usize;
                let dst = cursor[r];
                col_idx[dst] = self.col_idx[k];
                values[dst] = self.values[k];
                cursor[r] += 1;
            }
        }
        CsrMatrix {
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            row_offsets,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_is_exact_across_structures() {
        for m in [
            gen::stencil_5pt(13, 11),
            gen::random_uniform(97, 83, 5.0, 3.0, 7),
            gen::power_law(120, 120, 1, 1.5, 90, 3),
            gen::fixed_per_row(40, 40, 6, 2),
        ] {
            for h in [1, 3, 16, 64] {
                let cmrs = CmrsMatrix::from_csr_with_height(&m, h);
                cmrs.validate().expect("valid by construction");
                assert_eq!(cmrs.nnz(), m.nnz());
                assert_eq!(cmrs.to_csr(), m, "strip height {h}");
            }
        }
    }

    #[test]
    fn interleave_is_round_robin_within_a_strip() {
        // Two rows of 2 entries each in one strip: the stream must be
        // r0[0], r1[0], r0[1], r1[1].
        let m = gen::fixed_per_row(2, 8, 2, 5);
        let cmrs = CmrsMatrix::from_csr_with_height(&m, 2);
        assert_eq!(cmrs.row_in_strip, vec![0, 1, 0, 1]);
        assert_eq!(cmrs.strip_ptr, vec![0, 4]);
    }

    #[test]
    fn empty_rows_and_empty_matrices_round_trip() {
        let zero = CsrMatrix::zeros(7, 4);
        let cmrs = CmrsMatrix::from_csr(&zero);
        cmrs.validate().expect("valid");
        assert_eq!(cmrs.to_csr(), zero);
        assert_eq!(cmrs.num_strips(), 1);

        let nothing = CsrMatrix::zeros(0, 0);
        assert_eq!(CmrsMatrix::from_csr(&nothing).to_csr(), nothing);
    }

    #[test]
    fn single_column_matrix_round_trips() {
        let m = gen::random_uniform(30, 1, 0.7, 0.3, 11);
        let cmrs = CmrsMatrix::from_csr_with_height(&m, 4);
        cmrs.validate().expect("valid");
        assert_eq!(cmrs.to_csr(), m);
    }

    #[test]
    fn validate_rejects_broken_tags_and_pointers() {
        let m = gen::stencil_5pt(6, 6);
        let mut cmrs = CmrsMatrix::from_csr_with_height(&m, 4);
        cmrs.row_in_strip[0] = 100;
        assert!(cmrs.validate().is_err());

        let mut cmrs = CmrsMatrix::from_csr_with_height(&m, 4);
        *cmrs.strip_ptr.last_mut().unwrap() += 1;
        assert!(cmrs.validate().is_err());
    }
}
