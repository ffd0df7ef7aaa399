//! # mps-sparse — sparse matrix formats and reference kernels
//!
//! Storage formats (COO, CSR) with conversions, sequential reference
//! implementations of SpMV / SpAdd / SpGEMM (the correctness oracle and the
//! CPU comparator of the paper's Figures 7 and 9), deterministic matrix
//! generators, Matrix Market I/O, and the synthetic stand-in for the
//! University of Florida suite of Table II.
//!
//! Conventions shared across the workspace:
//! * row/column indices are `u32` (the paper exploits 32-bit indices to
//!   embed permutation bits; (row,col) pairs pack into a `u64` key);
//! * values are `f64` (all paper measurements are double precision);
//! * CSR rows are sorted by column index with no duplicate entries —
//!   "well-formed" in the paper's terminology.

pub mod cmrs;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod formats;
pub mod gen;
pub mod io;
pub mod ops;
pub mod reorder;
pub mod stats;
pub mod suite;

pub use cmrs::CmrsMatrix;
pub use coo::{CooError, CooMatrix};
pub use csr::CsrMatrix;
pub use dense::DenseBlock;
pub use stats::MatrixStats;

/// Pack a (row, col) coordinate into a lexicographically ordered `u64` key.
///
/// Sorting by this key is exactly the tuple ordering of Algorithm 1 in the
/// paper (row-major, then column).
#[inline]
pub fn pack_key(row: u32, col: u32) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// Inverse of [`pack_key`].
#[inline]
pub fn unpack_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trip() {
        for &(r, c) in &[(0, 0), (1, 2), (u32::MAX, 0), (0, u32::MAX), (7, 7)] {
            assert_eq!(unpack_key(pack_key(r, c)), (r, c));
        }
    }

    #[test]
    fn key_order_is_row_major() {
        assert!(pack_key(0, 99) < pack_key(1, 0));
        assert!(pack_key(3, 4) < pack_key(3, 5));
        assert!(pack_key(2, 0) > pack_key(1, u32::MAX));
    }
}
