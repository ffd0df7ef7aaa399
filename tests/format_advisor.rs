//! Pinned advisor decision table over the Table II suite.
//!
//! The [`FormatAdvisor`] routes each pattern to merge-CSR or CMRS from
//! cost-model predictions alone. This test freezes the decision it makes
//! for every suite matrix at the scale the `formats` bench runs, so a
//! cost-model change that silently flips a format choice fails loudly —
//! naming the matrix and showing both predicted costs — instead of
//! surfacing later as a benchmark regression.

use merge_path_sparse::prelude::*;
use mps_core::SpmvConfig;
use mps_sparse::suite::SuiteMatrix;

/// Same scale as `format_exp`'s full run, where this table was measured:
/// every chosen alternative beat always-merge and every merge choice is
/// the identical plan (speedup exactly 1.0).
const SCALE: f64 = 0.1;

fn expected(m: SuiteMatrix) -> FormatChoice {
    match m {
        // Regular meshes with strong cross-row column locality: the
        // strip-interleaved gather coalesces across rows and the advisor's
        // replay sees it (measured 1.4×–1.7× over single-pass merge).
        SuiteMatrix::Cantilever | SuiteMatrix::WindTunnel | SuiteMatrix::Ship => FormatChoice::Cmrs,
        // Everything else stays on merge: either the row lengths are too
        // skewed for row-split formats (Webbase, LP, Circuit), the gather
        // is scatter-dominated (Economics, Epidemiology land inside the
        // switching margin), or merge is simply fastest (Dense, QCD).
        _ => FormatChoice::MergeCsr,
    }
}

#[test]
fn advisor_decision_table_is_pinned_on_the_suite() {
    let device = Device::titan();
    let advisor = FormatAdvisor::default();
    let cfg = SpmvConfig::default();
    let mut wrong = Vec::new();
    for m in SuiteMatrix::ALL {
        let a = m.generate(SCALE);
        let d = advisor.advise(&device, &a, &cfg);
        if d.choice != expected(m) {
            wrong.push(format!(
                "{}: advised {} (want {}) — predicted cycles merge={:.0} cmrs={:.0}",
                m.name(),
                d.choice,
                expected(m),
                d.merge_cycles,
                d.cmrs_cycles,
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "advisor decisions flipped on {} of 14 suite matrices:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[test]
fn every_non_merge_choice_clears_the_margin() {
    // The pinned CMRS picks are not knife-edge: each cleared the 1.25×
    // switching margin when measured, so small cost-model drift shows up
    // in the table test above before it can flip a decision here.
    let device = Device::titan();
    let advisor = FormatAdvisor::default();
    let cfg = SpmvConfig::default();
    for m in SuiteMatrix::ALL {
        if expected(m) == FormatChoice::MergeCsr {
            continue;
        }
        let a = m.generate(SCALE);
        let d = advisor.advise(&device, &a, &cfg);
        assert!(
            d.chosen_cycles() * advisor.margin() < d.merge_cycles,
            "{}: chosen {:.0} cycles does not clear margin vs merge {:.0}",
            m.name(),
            d.chosen_cycles(),
            d.merge_cycles,
        );
    }
}
