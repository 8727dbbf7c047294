//! The recorder every workload writes into: timed spans around layer
//! calls, per-metric samples, exact counts, output checks, and reported
//! extras.
//!
//! Every timed call goes through [`Rec::start`]/[`Rec::end`]. The
//! duration always lands in the samples under `<span name>_s` (that is
//! how the per-layer metrics get their values); the span itself — name,
//! start, end, parent, rep or request id — is kept only when tracing is
//! on, and written out as JSONL when the workload ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gorder_bench::stats::median_sorted;
use gorder_obs::json::JsonObject;

/// One recorded span. `parent` indexes the span that was open when this
/// one started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A span that has started and not yet ended.
#[must_use = "end the span with Rec::end"]
pub struct Open {
    name: String,
    t: Instant,
    slot: Option<usize>,
}

/// A reported-only number (working-set ratios, serve class latencies,
/// break-even runs): printed and written to run files, never gated.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Rec {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    checksums: BTreeMap<String, u64>,
    pub extras: Vec<Extra>,
    /// Rep or request id stamped on spans started from now on.
    pub rep: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rec {
    /// A recorder; `trace` keeps spans.
    pub fn new(trace: bool) -> Rec {
        Rec {
            origin: Instant::now(),
            spans: trace.then(Vec::new),
            open: Vec::new(),
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
            checksums: BTreeMap::new(),
            extras: Vec::new(),
            rep: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether spans are kept.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Starts a span named `name` for the current rep.
    pub fn start(&mut self, name: &str) -> Open {
        let t = Instant::now();
        let slot = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name: name.to_string(),
                id: self.rep,
                start: t.duration_since(self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.open.last().copied(),
            });
            spans.len() - 1
        });
        if let Some(i) = slot {
            self.open.push(i);
        }
        Open {
            name: name.to_string(),
            t,
            slot,
        }
    }

    /// Ends `open`, records its duration as a sample of `<name>_s`, and
    /// returns the duration in seconds. Spans must end innermost first.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.t.elapsed().as_secs_f64();
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), open.slot) {
            spans[i].end = spans[i].start + secs;
            let top = self.open.pop();
            assert_eq!(top, Some(i), "span {} ended out of order", open.name);
        }
        self.sample(&format!("{}_s", open.name), secs);
        secs
    }

    /// Records a span measured elsewhere (the serve clients time their
    /// requests on their own threads).
    pub fn record(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        let secs = end.duration_since(start).as_secs_f64();
        if let Some(spans) = self.spans.as_mut() {
            let s = start.duration_since(self.origin).as_secs_f64();
            spans.push(Span {
                name: name.to_string(),
                id,
                start: s,
                end: s + secs,
                parent: None,
            });
        }
        self.sample(&format!("{name}_s"), secs);
    }

    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name` (NaN when there are none).
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// Sets a value (a derived number, or a count that may vary).
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Sets a deterministic count. Setting it again to a different value
    /// is an output failure: repeated work must count the same.
    pub fn set_exact(&mut self, name: &str, v: f64) {
        let prev = self.values.insert(name.to_string(), v);
        if let Some(prev) = prev {
            self.check(prev == v, || {
                format!("{name} changed between reps: {prev} then {v}")
            });
        }
    }

    /// Records an output checksum under `key`. Recording it again with
    /// a different value is an output failure.
    pub fn checksum(&mut self, key: &str, v: u64) {
        if let Some(&prev) = self.checksums.get(key) {
            self.check(prev == v, || {
                format!("checksum {key} changed between reps: {prev:#x} then {v:#x}")
            });
        } else {
            self.attempted += 1;
            self.checksums.insert(key.to_string(), v);
        }
    }

    pub fn checksums(&self) -> &BTreeMap<String, u64> {
        &self.checksums
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_default() += v;
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The value of a metric: a set value, else the median of its samples.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.value(name).or_else(|| {
            let s = self.samples(name);
            (!s.is_empty()).then(|| median(s))
        })
    }

    /// Counts one checked output; a false `ok` is a failure, reported on
    /// stderr.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", msg());
        }
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Extra {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Writes the spans and a per-name self-time summary as JSONL. A
    /// span's self time is its duration minus its children's durations.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.end - s.start;
            }
        }
        let mut summary: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let e = summary.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - child_secs[i];
            let line = JsonObject::new()
                .str("kind", "span")
                .u64("i", i as u64)
                .str("name", &s.name)
                .u64("id", s.id)
                .f64("start_s", s.start)
                .f64("end_s", s.end)
                .opt_u64("parent", s.parent.map(|p| p as u64))
                .finish();
            out.push_str(&line);
            out.push('\n');
        }
        for (name, (count, total, self_secs)) in summary {
            let line = JsonObject::new()
                .str("kind", "self_time")
                .str("name", name)
                .u64("count", count)
                .f64("total_s", total)
                .f64("self_s", self_secs)
                .finish();
            out.push_str(&line);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Median of unsorted samples (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// The `i`-th of the `n`-quantile cut points of `xs`, by the method of
/// Python's `statistics.quantiles(xs, n=n)` (the default, "exclusive").
/// With one sample, that sample.
pub fn quantile(xs: &[f64], i: usize, n: usize) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => f64::NAN,
        1 => v[0],
        _ => {
            let m = ld + 1;
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        }
    }
}

/// Peak resident set (VmHWM) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 1, 4), 2.75);
        assert_eq!(quantile(&xs, 2, 4), 5.5);
        assert_eq!(quantile(&xs, 3, 4), 8.25);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quantile(&[3.0, 1.0], 1, 4), 0.5);
        assert_eq!(quantile(&[3.0, 1.0], 3, 4), 3.5);
    }

    #[test]
    fn spans_nest_and_feed_samples() {
        let mut rec = Rec::new(true);
        rec.rep = 1;
        let outer = rec.start("op");
        let inner = rec.start("graph.relabel");
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.samples("op_s").len(), 1);
        assert_eq!(rec.samples("graph.relabel_s").len(), 1);
        let spans = rec.spans.as_ref().expect("tracing on");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end <= spans[0].end);
    }

    #[test]
    fn exact_counts_flag_drift() {
        let mut rec = Rec::new(false);
        rec.set_exact("c", 3.0);
        rec.set_exact("c", 3.0);
        assert_eq!(rec.failed, 0);
        rec.set_exact("c", 4.0);
        assert_eq!(rec.failed, 1);
    }
}
