//! Property tests spanning the I/O and format layers: anything the
//! generators can produce must survive every representation change.

use merge_path_sparse::prelude::*;
use merge_path_sparse::sparse::formats::{DiaMatrix, EllMatrix, HybMatrix};
use merge_path_sparse::sparse::io::{read_matrix_market, write_matrix_market};
use merge_path_sparse::sparse::reorder::{permute_symmetric, reverse_cuthill_mckee};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..60, 1usize..60, 0u64..10_000, 0.5f64..8.0)
        .prop_map(|(r, c, seed, avg)| gen::random_uniform(r, c, avg, avg / 2.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matrix_market_round_trip(m in arb_matrix()) {
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).expect("write");
        let back = read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(m, back);
    }

    #[test]
    fn every_format_round_trips(m in arb_matrix()) {
        prop_assert_eq!(EllMatrix::from_csr(&m).to_csr(), m.clone());
        prop_assert_eq!(HybMatrix::from_csr(&m, 3).to_csr(), m.clone());
        prop_assert_eq!(m.to_coo().to_csr(), m.clone());
        // DIA only when the diagonal count stays sane.
        if let Some(dia) = DiaMatrix::from_csr(&m, 4096) {
            prop_assert_eq!(dia.to_csr(), m);
        }
    }

    #[test]
    fn transpose_is_an_involution_and_preserves_mass(m in arb_matrix()) {
        let t = m.transpose();
        prop_assert_eq!(t.transpose(), m.clone());
        let sum_m: f64 = m.values.iter().sum();
        let sum_t: f64 = t.values.iter().sum();
        prop_assert!((sum_m - sum_t).abs() < 1e-9);
    }

    #[test]
    fn rcm_is_a_permutation_preserving_structure(
        (n, seed) in (2usize..60, 0u64..1000)
    ) {
        let m = gen::random_uniform(n, n, 4.0, 2.0, seed);
        let perm = reverse_cuthill_mckee(&m);
        let p = permute_symmetric(&m, &perm);
        prop_assert_eq!(p.nnz(), m.nnz());
        p.validate().expect("well-formed after permutation");
        // Value multiset preserved.
        let mut a: Vec<u64> = m.values.iter().map(|v| v.to_bits()).collect();
        let mut b: Vec<u64> = p.values.iter().map(|v| v.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn generated_suite_members_validate_at_random_scales(
        idx in 0usize..14,
        scale_milli in 2u32..15,
    ) {
        let m = SuiteMatrix::ALL[idx];
        let a = m.generate(scale_milli as f64 / 1000.0);
        a.validate().expect("well-formed");
        prop_assert!(a.nnz() > 0);
    }
}
