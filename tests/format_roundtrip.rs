//! Property suite for the CMRS conversion: `csr → cmrs → csr` must be
//! lossless — pattern and values bit for bit — across arbitrary shapes
//! and strip heights, including empty rows, entirely empty matrices, and
//! single-column shapes.

use merge_path_sparse::prelude::*;
use mps_testkit::strategies;
use proptest::prelude::*;

/// Exact round-trip check shared by every case below: the format's own
/// invariants hold and the reconstruction equals the original, including
/// value bit patterns (CsrMatrix's `PartialEq` compares structure and
/// values; values here are finite, so `==` is bit equality).
fn assert_cmrs_roundtrip(m: &CsrMatrix, strip_height: usize) {
    let cmrs = CmrsMatrix::from_csr_with_height(m, strip_height);
    cmrs.validate().expect("cmrs invariants");
    assert_eq!(cmrs.nnz(), m.nnz(), "interleave must store exactly nnz");
    let back = cmrs.to_csr();
    back.validate().expect("reconstruction is well-formed");
    assert_eq!(&back, m, "cmrs round trip must be lossless");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary sprinkled matrices (empty-row strides included) through
    /// the conversion at its default strip height.
    #[test]
    fn default_parameters_round_trip(a in strategies::csr(96, 96)) {
        assert_cmrs_roundtrip(&a, 16);
    }

    /// Strip height swept independently of the matrix, down to
    /// single-row strips and past the matrix height.
    #[test]
    fn cmrs_round_trips_at_any_strip_height(
        a in strategies::csr(64, 64),
        h in 1usize..70,
    ) {
        assert_cmrs_roundtrip(&a, h);
    }
}

/// The deterministic edge inventory: shapes proptest's generator reaches
/// rarely or never — entirely empty matrices, empty dimensions,
/// single-column shapes, and an all-empty-rows block.
#[test]
fn edge_shapes_round_trip_exactly() {
    let mut single_col = CooMatrix::new(40, 1);
    for r in (0..40).step_by(3) {
        single_col.push(r, 0, 1.5 + r as f64);
    }
    let cases = vec![
        CsrMatrix::zeros(0, 0),
        CsrMatrix::zeros(0, 9),
        CsrMatrix::zeros(9, 0),
        CsrMatrix::zeros(33, 17),
        single_col.to_csr(),
        gen::random_uniform(50, 1, 0.6, 0.3, 5),
        gen::random_uniform(1, 50, 20.0, 4.0, 6),
    ];
    for m in &cases {
        for h in [1, 3, 16] {
            assert_cmrs_roundtrip(m, h);
        }
    }
}
