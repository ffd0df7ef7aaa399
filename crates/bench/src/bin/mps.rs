//! `mps` — command-line front end for the merge-path sparse kernels.
//!
//! ```text
//! mps info matrix.mtx                  # structural statistics
//! mps generate qcd --scale 0.05 -o a.mtx
//! mps spmv a.mtx                       # merge SpMV + comparators
//! mps spadd a.mtx b.mtx [-o sum.mtx]
//! mps spgemm a.mtx b.mtx [-o prod.mtx]  # or: mps spgemm qcd --scale 0.02
//!                                      # symbolic/numeric split + per-bin rows
//! mps reorder a.mtx -o rcm.mtx        # RCM bandwidth reduction
//! mps trace a.mtx                      # phase-attributed kernel breakdown
//! mps conformance [--tiny]             # differential sweep, all implementations
//! mps bench formats [--tiny] [-o out.json]  # run an experiment, write its report
//! mps gate BENCH_*.json                # check artifacts against their gates
//! ```
//!
//! A full `mps bench <name>` without `-o` writes `BENCH_<name>.json` at
//! the repository root; a `--tiny` run writes only where `-o` says.
//!
//! Simulated device timings and correlations print to stdout; matrices
//! read/write Matrix Market coordinate format.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mps_baselines::{cusp, cusparse_like};
use mps_bench::{conformance, trace_exp, Report};
use mps_core::spgemm::FIG11_PHASES;
use mps_core::{merge_spadd, merge_spmv, SpAddConfig, SpgemmConfig, SpgemmPlan, SpmvConfig};
use mps_simt::Device;
use mps_sparse::io::{load_matrix_market, write_matrix_market, MmError};
use mps_sparse::reorder::{bandwidth, permute_symmetric, reverse_cuthill_mckee};
use mps_sparse::stats::MatrixStats;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::CsrMatrix;
use mps_testkit::adversarial::Scale;

fn usage() -> &'static str {
    "usage:\n  mps info <matrix.mtx>\n  mps generate <suite-name> [--scale X] -o <out.mtx>\n  mps spmv <a.mtx>\n  mps spadd <a.mtx> <b.mtx> [-o <out.mtx>]\n  mps spgemm <a.mtx> <b.mtx> | <suite-name> [--scale X] [-o <out.mtx>]\n  mps reorder <a.mtx> -o <out.mtx>\n  mps trace <a.mtx | suite-name> [--scale X]\n  mps conformance [--tiny]\n  mps bench <experiment> [--tiny] [-o <out.json>]\n  mps gate <BENCH_name.json>...\n\nsuite names: dense protein spheres cantilever wind harbor qcd ship\n             economics epidemiology accelerator circuit webbase lp\nexperiments: phases spgemm load stream formats host serve solvers spmm"
}

// Every argument failure renders through the facade's unified error, so
// a bad path and a bad suite name fail the same way: the offending
// argument first, then the typed underlying error.
fn load(path: &str) -> Result<CsrMatrix, String> {
    load_matrix_market(Path::new(path))
        .map_err(|e| merge_path_sparse::Error::for_file(path, e).to_string())
}

fn save(path: &str, m: &CsrMatrix) -> Result<(), String> {
    let f = std::fs::File::create(path)
        .map_err(|e| merge_path_sparse::Error::for_file(path, MmError::Io(e)).to_string())?;
    write_matrix_market(f, m).map_err(|e| merge_path_sparse::Error::for_file(path, e).to_string())
}

fn suite_by_name(name: &str) -> Option<SuiteMatrix> {
    SuiteMatrix::ALL.iter().copied().find(|m| {
        m.name().eq_ignore_ascii_case(name)
            || m.name().to_lowercase().starts_with(&name.to_lowercase())
    })
}

fn suite(name: &str) -> Result<SuiteMatrix, String> {
    suite_by_name(name).ok_or_else(|| {
        format!(
            "{}\n{}",
            merge_path_sparse::Error::UnknownSuite(name.into()),
            usage()
        )
    })
}

struct Parsed {
    positional: Vec<String>,
    out: Option<PathBuf>,
    scale: f64,
    tiny: bool,
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut positional = Vec::new();
    let mut out = None;
    let mut scale = 0.05;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => {
                out = Some(PathBuf::from(
                    it.next().ok_or("-o needs a path")?.to_string(),
                ))
            }
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--tiny" => tiny = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    Ok(Parsed {
        positional,
        out,
        scale,
        tiny,
    })
}

fn print_stats(label: &str, m: &CsrMatrix) {
    let s = MatrixStats::of(m);
    println!(
        "{label}: {} x {}, {} nonzeros, {:.2} avg/row (std {:.2}), {} empty rows, bandwidth {}",
        s.rows,
        s.cols,
        s.nnz,
        s.avg_per_row,
        s.std_per_row,
        s.empty_rows,
        bandwidth(m)
    );
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(|| usage().to_string())?;
    let p = parse(rest)?;
    let device = Device::titan();

    match cmd.as_str() {
        "info" => {
            let path = p.positional.first().ok_or(usage())?;
            let m = load(path)?;
            m.validate().map_err(|e| format!("invalid matrix: {e}"))?;
            print_stats(path, &m);
        }
        "generate" => {
            let name = p.positional.first().ok_or(usage())?;
            let suite = suite(name)?;
            let out = p.out.ok_or("generate needs -o <out.mtx>")?;
            let m = suite.generate(p.scale);
            save(out.to_str().ok_or("bad output path")?, &m)?;
            print_stats(&out.display().to_string(), &m);
        }
        "spmv" => {
            let path = p.positional.first().ok_or(usage())?;
            let a = load(path)?;
            let x: Vec<f64> = (0..a.num_cols).map(|i| 1.0 + (i % 7) as f64).collect();
            let merge = merge_spmv(&device, &a, &x, &SpmvConfig::default());
            let (_, cusp_stats) = cusp::spmv_vector(&device, &a, &x);
            let (_, cusparse_stats) = cusparse_like::spmv(&device, &a, &x);
            print_stats(path, &a);
            println!(
                "merge SpMV     : {:.4} ms simulated, {:.2} GFLOP/s",
                merge.sim_ms(),
                merge.gflops(a.nnz())
            );
            println!("vector CSR     : {:.4} ms simulated", cusp_stats.sim_ms);
            println!("adaptive CSR   : {:.4} ms simulated", cusparse_stats.sim_ms);
        }
        "spadd" => {
            let (pa, pb) = match p.positional.as_slice() {
                [a, b, ..] => (a, b),
                _ => return Err(usage().to_string()),
            };
            let a = load(pa)?;
            let b = load(pb)?;
            let r = merge_spadd(&device, &a, &b, &SpAddConfig::default());
            println!(
                "balanced-path SpAdd: {} + {} -> {} nonzeros, {:.4} ms simulated",
                a.nnz(),
                b.nnz(),
                r.c.nnz(),
                r.sim_ms()
            );
            if let Some(out) = p.out {
                save(out.to_str().ok_or("bad output path")?, &r.c)?;
            }
        }
        "spgemm" => {
            // Either a suite name (its paper operand pair at --scale) or
            // two Matrix Market files.
            let (a, b) = match p.positional.as_slice() {
                [one] => suite(one)?.spgemm_operands(p.scale),
                [pa, pb, ..] => (load(pa)?, load(pb)?),
                _ => return Err(usage().to_string()),
            };
            if a.num_cols != b.num_rows {
                return Err(format!(
                    "inner dimensions must agree: A is {}x{}, B is {}x{}",
                    a.num_rows, a.num_cols, b.num_rows, b.num_cols
                ));
            }
            let plan = SpgemmPlan::new(&device, &a, &b, &SpgemmConfig::default());
            let c = plan.execute_matrix(&a, &b);
            let sim_ms = plan.symbolic_ms() + plan.numeric_ms();
            println!(
                "merge SpGEMM: {} products -> {} nonzeros, {sim_ms:.4} ms simulated",
                plan.products(),
                c.nnz(),
            );
            println!(
                "  symbolic {:.4} ms (pattern, cacheable) + numeric {:.4} ms (value replay, {:.2}x cheaper)",
                plan.symbolic_ms(),
                plan.numeric_ms(),
                plan.symbolic_ms() / plan.numeric_ms().max(1e-12)
            );
            let bins = plan.bin_summary();
            for ((cls, rf), (_, pf)) in bins
                .row_fractions()
                .into_iter()
                .zip(bins.product_fractions())
            {
                println!(
                    "  bin {cls:<6} {:5.1}% of rows, {:5.1}% of products",
                    rf * 100.0,
                    pf * 100.0
                );
            }
            let (ledger, total) = (plan.ledger(), sim_ms.max(f64::MIN_POSITIVE));
            for phase in FIG11_PHASES {
                let frac = ledger.phase_ms(phase) / total;
                println!("  {:<16} {:5.1}%", phase.as_str(), frac * 100.0);
            }
            if let Some(out) = p.out {
                save(out.to_str().ok_or("bad output path")?, &c)?;
            }
        }
        "trace" => {
            let arg = p.positional.first().ok_or(usage())?;
            let a = match load(arg) {
                Ok(m) => m,
                Err(load_err) => suite_by_name(arg)
                    .map(|s| s.generate(p.scale))
                    .ok_or(load_err)?,
            };
            print_stats(arg, &a);
            let b = if a.num_rows == a.num_cols {
                a.clone()
            } else {
                a.transpose()
            };
            let runs = [
                trace_exp::trace_spmv("A", &a),
                trace_exp::trace_spmm("A", &a, 8),
                trace_exp::trace_spadd("A", &a),
                trace_exp::trace_spgemm("A", &a, &b),
            ];
            for r in &runs {
                println!();
                println!("== {} ({:.4} ms simulated) ==", r.kernel, r.total_ms());
                print!("{}", r.ledger.render());
            }
        }
        "conformance" => {
            let scale = if p.tiny { Scale::Tiny } else { Scale::Full };
            let report = conformance::run(scale);
            print!("{}", report.render());
            if !report.is_clean() {
                return Err(format!(
                    "{} divergence(s) — implementations disagree",
                    report.divergences.len()
                ));
            }
        }
        "bench" => {
            let exp = p
                .positional
                .first()
                .and_then(|name| mps_bench::experiment(name))
                .ok_or(usage())?;
            let report = (exp.report)(p.tiny);
            let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            let out = p
                .out
                .or_else(|| (!p.tiny).then(|| repo_root.join(format!("BENCH_{}.json", exp.name))));
            if let Some(out) = out {
                std::fs::write(&out, report.to_json())
                    .map_err(|e| format!("could not write {}: {e}", out.display()))?;
                println!("wrote {}", out.display());
            }
        }
        "gate" => {
            if p.positional.is_empty() {
                return Err(usage().to_string());
            }
            let mut failed = 0;
            for path in &p.positional {
                let failures = gate(path);
                if failures.is_empty() {
                    println!("{path}: ok");
                }
                for f in &failures {
                    println!("{path}: FAILED {f}");
                }
                failed += failures.len();
            }
            if failed > 0 {
                return Err(format!("{failed} gate(s) failed"));
            }
        }
        "reorder" => {
            let path = p.positional.first().ok_or(usage())?;
            let a = load(path)?;
            let out = p.out.ok_or("reorder needs -o <out.mtx>")?;
            let before = bandwidth(&a);
            let perm = reverse_cuthill_mckee(&a);
            let b = permute_symmetric(&a, &perm);
            save(out.to_str().ok_or("bad output path")?, &b)?;
            println!("RCM: bandwidth {before} -> {}", bandwidth(&b));
        }
        _ => return Err(usage().to_string()),
    }
    Ok(())
}

/// The gates `path` fails; an unreadable or malformed artifact fails as a
/// whole.
fn gate(path: &str) -> Vec<String> {
    let report = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Report::from_json(&text).map_err(|e| e.to_string()));
    match report {
        Err(e) => vec![format!("unreadable report: {e}")],
        Ok(r) => mps_bench::experiment(&r.experiment)
            .and_then(|e| e.gates)
            .map_or_else(Vec::new, |gates| gates(&r)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
