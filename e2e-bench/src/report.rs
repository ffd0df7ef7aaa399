//! Metric names and units, the end-to-end metrics of a measured phase,
//! and the JSON result line.

use std::collections::BTreeMap;

use mps_simt::Phase;

use crate::stats::{percentile, ratio};
use crate::{P50_WINDOW_OPS, WINDOW_OPS};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("sim_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, before the per-phase shares and
/// the tracing overheads. A layer a workload does not exercise reads 0.
const LAYERS: [(&str, &str); 37] = [
    ("service.submit_us", "us"),
    ("service.redeem_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.flush_us", "us"),
    ("service.mutate_us", "us"),
    ("service.failed", "count"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.plan_evictions", "count"),
    ("engine.requests_per_traversal", "ratio"),
    ("engine.pool_reuse_ratio", "ratio"),
    ("engine.spgemm_symbolic_builds", "count"),
    ("engine.spgemm_numeric_execs", "count"),
    ("engine.delta_applies", "count"),
    ("engine.delta_fallbacks", "count"),
    ("engine.value_updates", "count"),
    ("engine.overhead_us_per_op", "us"),
    ("engine.rebuild_op_share", "ratio"),
    ("core.spmv_execute_us", "us"),
    ("core.spmm_execute_us", "us"),
    ("core.spmv_build_us", "us"),
    ("core.spmm_build_us", "us"),
    ("core.spgemm_symbolic_us", "us"),
    ("core.spgemm_numeric_us", "us"),
    ("core.delta_apply_us", "us"),
    ("core.nnz_per_s", "nnz/s"),
    ("core.bytes_per_op", "B"),
    ("simt.exec_sim_us_per_op", "us"),
    ("simt.build_sim_us_per_op", "us"),
    ("simt.dram_bytes_per_op", "B"),
    ("sparse.fingerprint_us", "us"),
    ("solvers.iterations", "count"),
    ("solvers.levels", "count"),
    ("solvers.vcycle_us", "us"),
    ("solvers.amg_build_s", "s"),
    ("solvers.solve_p99_us", "us"),
    ("pool.threads", "count"),
    ("pool.spawns", "count"),
];

/// `simt.phase_share.<phase>`: the phase's name in lower case with `_`.
pub fn phase_share_name(p: Phase) -> String {
    let label: String = p
        .as_str()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    format!("simt.phase_share.{label}")
}

/// `trace_overhead.<metric>`: traced minus untraced value.
pub fn overhead_name(e2e: &str) -> String {
    format!("trace_overhead.{e2e}")
}

/// Every per-layer metric in output order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(Phase::ALL.iter().map(|&p| (phase_share_name(p), "ratio")));
    out.extend(END_TO_END.iter().map(|&(n, u)| (overhead_name(n), u)));
    out
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-op latency, µs.
    pub lat_us: Vec<f64>,
    /// Per-op share of measured wall time (the sum of the ops' timed
    /// intervals), µs.
    pub busy_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated device time over the phase, ms.
    pub sim_ms: f64,
}

impl Measured {
    /// Record one op.
    pub fn op(&mut self, lat_us: f64, busy_us: f64, ok: bool) {
        self.lat_us.push(lat_us);
        self.busy_us.push(busy_us);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn ops(&self) -> usize {
        self.lat_us.len()
    }

    /// The end-to-end metrics of this phase, and the per-window values
    /// behind the percentiles. Throughput pools the whole phase; each
    /// percentile is the mean of its values over consecutive windows
    /// (see [`WINDOW_OPS`]).
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Result<(Metrics, String), String> {
        let n = self.ops();
        if n < WINDOW_OPS {
            return Err(format!("{n} ops cannot fill a window of {WINDOW_OPS}"));
        }
        let p50 = self.windowed(0.5, P50_WINDOW_OPS)?;
        let p99 = self.windowed(0.99, WINDOW_OPS)?;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let busy_s = self.busy_us.iter().sum::<f64>() / 1e6;
        let mut m = Metrics::default();
        m.set("setup_s", setup_s);
        m.set("throughput_ops", ratio(n as f64, busy_s));
        m.set("latency_p50_us", mean(&p50));
        m.set("latency_p99_us", mean(&p99));
        m.set("sim_us_per_op", ratio(self.sim_ms * 1e3, n as f64));
        m.set("peak_rss_mb", peak_rss_mb);
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let windows = format!(
            "windows latency_p50_us=[{}] latency_p99_us=[{}]",
            show(&p50),
            show(&p99)
        );
        Ok((m, windows))
    }

    /// The `p`-quantile of each consecutive window of `size` ops (the last
    /// window takes the remainder).
    fn windowed(&self, p: f64, size: usize) -> Result<Vec<f64>, String> {
        let n = self.ops();
        let windows = n / size;
        (0..windows)
            .map(|i| {
                let end = if i + 1 == windows { n } else { (i + 1) * size };
                let lat = &self.lat_us[i * size..end];
                percentile(lat, p).ok_or_else(|| {
                    format!(
                        "{} ops leave fewer than ten beyond the {}th percentile",
                        lat.len(),
                        p * 100.0
                    )
                })
            })
            .collect()
    }
}

/// Named metric values.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and each metric of
/// `names` with its unit. Metrics of `names` not in `values` read 0 when
/// `zero_missing` (layers a workload does not exercise) and are an error
/// otherwise; a non-finite value is always an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &'static str)],
    values: &Metrics,
    zero_missing: bool,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = match values.get(name) {
            Some(v) => v,
            None if zero_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must name exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::WORKLOADS.len();
        assert_eq!(json.matches("\"name\":").count(), names.len() + workloads);
    }

    #[test]
    fn percentiles_average_over_windows() {
        let mut m = Measured::default();
        for i in 0..5000 {
            m.op(if i < 2500 { 1.0 } else { 3.0 }, 1.0, true);
        }
        let (e2e, _) = m.end_to_end(0.5, 10.0).unwrap();
        assert_eq!(e2e.get("throughput_ops"), Some(1e6));
        // 13 of the 25 median windows lie in the fast half, 12 in the slow.
        assert_eq!(e2e.get("latency_p50_us"), Some((13.0 + 12.0 * 3.0) / 25.0));
        // One 99th-percentile window holds both halves; its tail is slow.
        assert_eq!(e2e.get("latency_p99_us"), Some(3.0));
        m.lat_us.truncate(4999);
        m.busy_us.truncate(4999);
        assert!(m.end_to_end(0.5, 10.0).is_err());
    }

    #[test]
    fn phase_names_are_lower_case_with_underscores() {
        assert_eq!(
            phase_share_name(Phase::EmptyRowFixup),
            "simt.phase_share.empty_row_fixup"
        );
        assert_eq!(phase_share_name(Phase::Blas1), "simt.phase_share.blas_1");
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite() {
        let names = vec![("a".to_string(), "s")];
        let mut m = Metrics::default();
        assert!(result_line(true, 1, 0, &names, &m, false).is_err());
        assert!(result_line(true, 1, 0, &names, &m, true).is_ok());
        m.set("a", f64::NAN);
        assert!(result_line(true, 1, 0, &names, &m, true).is_err());
        m.set("a", 1.5);
        assert_eq!(
            result_line(true, 3, 0, &names, &m, false).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
