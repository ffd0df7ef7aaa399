//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span holds a name, start, end, parent and op id. Spans stay in
//! memory while the traced phase runs and are written out once it ends.
//! With tracing off, [`Tracer::span`] only runs its closure, so the
//! untraced phase executes the same code minus the recording.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of an open or closed span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses other spans; `None` with tracing off.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans called `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .sum()
    }

    /// Per span name: spans, total µs, and self µs (duration minus the
    /// part its direct children cover), in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.us();
            e.2 += s.us() - c;
        }
        out
    }

    /// Write every span as one tab-separated line: index, name, op,
    /// parent index (-1 for none), start and end in ns since the tracer
    /// was created.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |SpanId(p)| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("op", 0, None);
        t.span("child", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let st = t.self_times();
        let (n, total, own) = st["op"];
        assert_eq!(n, 1);
        assert!(own < total && own >= 0.0);
        assert!((total - own - st["child"].1).abs() < 1e-6);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, || 5), 5);
        assert_eq!(t.total_us("x"), 0.0);
        assert!(t.self_times().is_empty());
    }
}
