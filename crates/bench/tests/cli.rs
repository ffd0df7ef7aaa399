//! End-to-end tests of the `mps` command-line tool: generate → info →
//! kernels → reorder, all through the real binary and real files.

use std::path::PathBuf;
use std::process::{Command, Output};

use mps_bench::report::{Cell, Report};

fn mps(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mps"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mps-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn generate_then_info_round_trip() {
    let path = tmp("qcd.mtx");
    let out = mps(&[
        "generate",
        "qcd",
        "--scale",
        "0.005",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let info = mps(&["info", path.to_str().unwrap()]);
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("nonzeros"), "{text}");
    assert!(text.contains("avg/row"), "{text}");
}

#[test]
fn spmv_reports_all_three_kernels() {
    let path = tmp("harbor.mtx");
    assert!(mps(&[
        "generate",
        "harbor",
        "--scale",
        "0.005",
        "-o",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let out = mps(&["spmv", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("merge SpMV"));
    assert!(text.contains("vector CSR"));
    assert!(text.contains("GFLOP/s"));
}

#[test]
fn spadd_and_spgemm_write_outputs() {
    let a = tmp("circuit_a.mtx");
    assert!(mps(&[
        "generate",
        "circuit",
        "--scale",
        "0.003",
        "-o",
        a.to_str().unwrap()
    ])
    .status
    .success());
    let sum = tmp("sum.mtx");
    let out = mps(&[
        "spadd",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "-o",
        sum.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sum.exists());

    let prod = tmp("prod.mtx");
    let out = mps(&[
        "spgemm",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "-o",
        prod.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("products"));
    assert!(text.contains("Block Sort"));
    assert!(text.contains("symbolic"), "{text}");
    assert!(text.contains("numeric"), "{text}");
    assert!(prod.exists());

    // The written product must load back as a valid matrix.
    let reload = mps(&["info", prod.to_str().unwrap()]);
    assert!(reload.status.success());
}

#[test]
fn spgemm_accepts_a_suite_name_and_prints_the_split() {
    let out = mps(&["spgemm", "qcd", "--scale", "0.01"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("symbolic"), "{text}");
    assert!(text.contains("numeric"), "{text}");
    assert!(text.contains("bin tiny"), "{text}");
    assert!(text.contains("bin mid"), "{text}");
    assert!(text.contains("bin heavy"), "{text}");

    let bad = mps(&["spgemm", "no-such-suite"]);
    assert!(!bad.status.success());
}

#[test]
fn spgemm_rejects_mismatched_inner_dimensions() {
    let a = tmp("dim_a.mtx");
    let b = tmp("dim_b.mtx");
    for (path, suite, scale) in [(&a, "circuit", "0.003"), (&b, "qcd", "0.01")] {
        assert!(mps(&[
            "generate",
            suite,
            "--scale",
            scale,
            "-o",
            path.to_str().unwrap()
        ])
        .status
        .success());
    }
    let out = mps(&["spgemm", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("inner dimensions"), "{err}");
}

#[test]
fn reorder_reduces_bandwidth() {
    let a = tmp("econ.mtx");
    assert!(mps(&[
        "generate",
        "economics",
        "--scale",
        "0.003",
        "-o",
        a.to_str().unwrap()
    ])
    .status
    .success());
    let out_path = tmp("econ_rcm.mtx");
    let out = mps(&[
        "reorder",
        a.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bandwidth"), "{text}");
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!mps(&[]).status.success());
    assert!(!mps(&["info"]).status.success());
    assert!(!mps(&["generate", "no-such-matrix", "-o", "/tmp/x.mtx"])
        .status
        .success());
    assert!(!mps(&["frobnicate"]).status.success());
    let out = mps(&["bench", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mps bench <experiment>"), "{err}");
}

#[test]
fn info_rejects_missing_file() {
    let out = mps(&["info", "/nonexistent/never.mtx"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/never.mtx: io:"), "{err}");
}

#[test]
fn argument_errors_are_unified_and_name_the_argument() {
    // A bad suite name and a bad matrix path fail through the same facade
    // error surface: offending argument first, then the typed cause.
    for cmd in [
        vec!["generate", "no-such-suite", "-o", "/tmp/x.mtx"],
        vec!["spgemm", "no-such-suite"],
    ] {
        let out = mps(&cmd);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown suite matrix 'no-such-suite'"),
            "{cmd:?}: {err}"
        );
    }
    for cmd in [
        vec!["info", "/no/such/file.mtx"],
        vec!["spmv", "/no/such/file.mtx"],
        vec!["spadd", "/no/such/file.mtx", "/no/such/file.mtx"],
        vec!["reorder", "/no/such/file.mtx", "-o", "/tmp/y.mtx"],
    ] {
        let out = mps(&cmd);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("/no/such/file.mtx: io:"), "{cmd:?}: {err}");
    }
}

#[test]
fn stream_tiny_writes_the_bench_json() {
    let json_path = tmp("stream.json");
    let out = mps(&[
        "bench",
        "stream",
        "--tiny",
        "-o",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sliding-window PageRank"), "{text}");
    let gate = mps(&["gate", json_path.to_str().unwrap()]);
    assert!(
        gate.status.success(),
        "{}",
        String::from_utf8_lossy(&gate.stdout)
    );

    // One diverged round fails the gate, which names it.
    let json = std::fs::read_to_string(&json_path).expect("json written");
    let mut report = Report::from_json(&json).expect("a report");
    *report.cell_mut("suite", 0, "divergences").expect("cell") = Cell::Int(1);
    let bad_path = tmp("stream_diverged.json");
    std::fs::write(&bad_path, report.to_json()).expect("write copy");
    let gate = mps(&["gate", bad_path.to_str().unwrap()]);
    assert_eq!(gate.status.code(), Some(2));
    let text = String::from_utf8_lossy(&gate.stdout);
    assert!(text.contains("FAILED divergences == 0"), "{text}");
}

#[test]
fn tiny_bench_without_output_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("mps-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phases.json");
    let before = std::fs::read(committed).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_mps"))
        .args(["bench", "phases", "--tiny"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(left.is_empty(), "{left:?}");
    std::fs::remove_dir(&dir).expect("empty dir");
    assert!(
        std::fs::read(committed).ok() == before,
        "a smoke run must not overwrite the committed artifact"
    );
}
