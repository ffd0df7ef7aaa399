//! End-to-end and per-layer benchmark of the merge-path sparse stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <serve-hot|serve-churn|solve-amg> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, sets the program up
//! several times (the median is `setup_s`), then drives one closed loop
//! from this thread for `--seconds` seconds (and at least [`WINDOW_OPS`]
//! ops), checking every op's result outside its timed interval. The last
//! line of standard output is the JSON result: the end-to-end metrics with
//! `--trace 0`; with `--trace 1`, an untraced phase followed by a traced
//! one, whose spans give the per-layer metrics and the tracing overhead.
//! See `NOTES.md` beside this file for what each workload and metric is for.

mod report;
mod rng;
mod serve_churn;
mod serve_hot;
mod solve_amg;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Measured, Metrics};
use trace::Tracer;

/// Every workload's name, as `--workload` takes it.
pub const WORKLOADS: [&str; 3] = ["serve-hot", "serve-churn", "solve-amg"];

/// Ops in a 99th-percentile window; a measured phase holds at least one.
/// Each latency percentile is taken over consecutive windows and reported
/// as the mean over them: the host runs in speed spells of a fraction of
/// a second to several seconds, so a percentile of the pooled ops jumps
/// between the spells' modes, while the window mean moves with the share
/// of the run each spell took. Fifty samples lie beyond a window's 99th
/// percentile, so even serve-hot, whose 12 ops a round share one flush,
/// has several rounds beyond it.
pub const WINDOW_OPS: usize = 5000;
/// Ops in a median window: short enough to sit inside one spell, long
/// enough to span many serve-hot rounds.
pub const P50_WINDOW_OPS: usize = 200;
/// The replay counters are read after this many ops of the first phase.
pub const REPLAY_OPS: usize = 1000;

/// One workload: its program state, schedule, and per-layer accounting.
pub trait Workload {
    /// Build the program's state from scratch and bring it to steady
    /// state, returning the seconds spent in program calls.
    fn setup(&mut self, tr: &mut Tracer) -> f64;

    /// How many times a run repeats [`Workload::setup`].
    fn setup_reps(&self) -> usize;

    /// Start a measured phase: zero the program's counters and the
    /// workload's per-layer accumulators.
    fn begin(&mut self, tr: &mut Tracer);

    /// Run the next op (a round of ops for batched serving) and record it.
    fn step(&mut self, tr: &mut Tracer, m: &mut Measured);

    /// Close the phase: add the simulated time it accumulated to `m`.
    fn end(&mut self, m: &mut Measured);

    /// Per-layer metrics of a traced phase.
    fn layers(&self, tr: &Tracer, m: &Measured, setup_s: f64, out: &mut Metrics);

    /// Schedule digest and the counters that repeat exactly for a seed.
    fn replay(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!(
                        "--seconds {value}: expected a duration in (0, 3600]"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "serve-hot" => Box::new(serve_hot::ServeHot::new(seed)),
        "serve-churn" => Box::new(serve_churn::ServeChurn::new(seed)),
        "solve-amg" => Box::new(solve_amg::SolveAmg::new(seed)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Set up `setup_reps` times and return the median program time; the last
/// set-up's state is the one measured next.
fn set_up(w: &mut dyn Workload, traced: bool) -> f64 {
    let reps: Vec<f64> = (0..w.setup_reps())
        .map(|_| w.setup(&mut Tracer::new(traced)))
        .collect();
    stats::median(&reps)
}

/// One closed-loop phase: ops back to back for `seconds` and at least
/// [`WINDOW_OPS`] ops.
fn measure(w: &mut dyn Workload, seconds: f64, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    w.begin(tr);
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < limit || m.ops() < WINDOW_OPS {
        w.step(tr, &mut m);
    }
    w.end(&mut m);
    m
}

fn run(args: &Args) -> Result<String, String> {
    let mut w = make(&args.workload, args.seed);
    let setup_s = set_up(w.as_mut(), false);
    let spawns_before = rayon::threads_spawned();
    let plain = measure(w.as_mut(), args.seconds, &mut Tracer::new(false));
    let plain_spawns = rayon::threads_spawned() - spawns_before;
    let (plain_e2e, windows) = plain.end_to_end(setup_s, report::peak_rss_mb()?)?;
    println!(
        "replay workload={} seed={} {} pool_spawns={plain_spawns}",
        args.workload,
        args.seed,
        w.replay()
    );
    println!("windows {windows}");
    let e2e_names: Vec<(String, &str)> = report::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    if !args.trace {
        return report::result_line(
            plain.failed == 0,
            plain.attempted,
            plain.failed,
            &e2e_names,
            &plain_e2e,
            false,
        );
    }

    let traced_setup_s = set_up(w.as_mut(), true);
    let mut tr = Tracer::new(true);
    let spawns_before = rayon::threads_spawned();
    let traced = measure(w.as_mut(), args.seconds, &mut tr);
    let spawns = rayon::threads_spawned() - spawns_before;
    let (traced_e2e, _) = traced.end_to_end(traced_setup_s, report::peak_rss_mb()?)?;

    let mut layers = Metrics::default();
    let layer_names = report::per_layer();
    for (name, (n, total_us, _)) in tr.self_times() {
        // A span's mean duration is the per-layer metric of the same name.
        let metric = format!("{name}_us");
        if layer_names.iter().any(|(l, _)| *l == metric) {
            layers.set(&metric, total_us / n as f64);
        }
    }
    w.layers(&tr, &traced, traced_setup_s, &mut layers);
    layers.set("pool.threads", rayon::current_num_threads() as f64);
    layers.set("pool.spawns", spawns as f64);
    println!("tracing overhead (traced - untraced):");
    for (name, unit) in &e2e_names {
        let (a, b) = (traced_e2e.get(name), plain_e2e.get(name));
        let (a, b) = (a.unwrap_or(0.0), b.unwrap_or(0.0));
        println!("  {name:<16} {b:>14.3} -> {a:>14.3} {unit}");
        layers.set(&report::overhead_name(name), a - b);
    }
    println!("spans: name, count, total ms, self ms");
    for (name, (n, total, own)) in tr.self_times() {
        println!(
            "  {name:<24} {n:>8} {:>12.3} {:>12.3}",
            total / 1e3,
            own / 1e3
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let failed = plain.failed + traced.failed;
    report::result_line(
        failed == 0,
        plain.attempted + traced.attempted,
        failed,
        &layer_names,
        &layers,
        true,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
