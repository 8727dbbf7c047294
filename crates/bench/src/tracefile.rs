//! Streaming JSONL sweep traces for the experiment binaries.
//!
//! [`SweepTrace`] wraps the obs trace sink behind the harness's
//! `--trace-out` flag: when the flag is absent every call is a no-op, and
//! when the file cannot be opened or written the recorder warns once and
//! degrades to a no-op — losing the trace must never kill a sweep. Each
//! finished cell is flushed as its own line the moment
//! [`SweepTrace::cell`] sees it, so a sweep killed partway leaves a
//! manifest plus one `cell` line per completed cell on disk.

use crate::robust::RobustCell;
use crate::{HarnessArgs, ResumeState};
use gorder_obs::{CellEvent, OrderEvent, RowEvent, RunManifest, TraceEvent, TraceSink};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// A sweep-scoped trace recorder: manifest at open, one `cell` line per
/// finished cell, registry metrics at [`SweepTrace::finish`].
pub struct SweepTrace {
    sink: Option<TraceSink<BufWriter<File>>>,
    path: String,
    tool: String,
}

impl SweepTrace {
    /// Opens the trace named by `--trace-out` and writes the manifest
    /// line, or returns a no-op recorder when the flag is absent. An
    /// unopenable path degrades to a warning + no-op.
    pub fn open(tool: &str, args: &HarnessArgs) -> SweepTrace {
        let Some(path) = &args.trace_out else {
            return SweepTrace {
                sink: None,
                path: String::new(),
                tool: tool.to_string(),
            };
        };
        let manifest = manifest_for(tool, args);
        let opened = TraceSink::create(Path::new(path)).and_then(|mut s| {
            s.manifest(&manifest)?;
            Ok(s)
        });
        match opened {
            Ok(sink) => SweepTrace {
                sink: Some(sink),
                path: path.clone(),
                tool: tool.to_string(),
            },
            Err(e) => {
                eprintln!("[{tool}] trace {path}: {e} — tracing disabled");
                SweepTrace {
                    sink: None,
                    path: String::new(),
                    tool: tool.to_string(),
                }
            }
        }
    }

    /// Whether lines are actually being written.
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one finished sweep cell (flushed immediately).
    pub fn cell(&mut self, c: &RobustCell) {
        self.event(&TraceEvent::Cell(cell_event(c)));
    }

    /// Records one finished CSV row verbatim (flushed immediately). Row
    /// lines are what `--resume` replays: a cell whose `row` line made it
    /// to disk is recovered byte-identically; one that didn't is re-run.
    pub fn row(&mut self, table: &str, key: &str, cells: &[String]) {
        self.event(&TraceEvent::Row(RowEvent {
            table: table.to_string(),
            key: key.to_string(),
            cells: cells.to_vec(),
        }));
    }

    /// Records one ordering resolution — computed or cache-hit — as an
    /// `order` line (flushed immediately). A warm-cache run is audited
    /// from these: every line carries `cache_hit`.
    pub fn order(&mut self, e: &OrderEvent) {
        self.event(&TraceEvent::Order(e.clone()));
    }

    /// Records an arbitrary trace event (flushed immediately).
    pub fn event(&mut self, e: &TraceEvent) {
        if let Some(sink) = &mut self.sink {
            if let Err(err) = sink.event(e) {
                eprintln!(
                    "[{}] trace {}: {err} — tracing disabled",
                    self.tool, self.path
                );
                self.sink = None;
            }
        }
    }

    /// Appends the global metrics registry snapshot and reports the line
    /// count. Dropping without calling this loses only the metric lines —
    /// the manifest and cell lines are already on disk.
    pub fn finish(mut self) {
        if let Some(sink) = &mut self.sink {
            let snap = gorder_obs::global().snapshot();
            if let Err(err) = sink.metrics(&snap) {
                eprintln!("[{}] trace {}: {err}", self.tool, self.path);
                return;
            }
            eprintln!(
                "[{}] wrote {} trace lines to {}",
                self.tool,
                sink.lines_written(),
                self.path
            );
        }
    }
}

/// A [`RobustCell`] as its trace line: `seconds` goes `null` (NaN) for
/// cells that produced no usable number, and the status label says why.
pub fn cell_event(c: &RobustCell) -> CellEvent {
    CellEvent {
        dataset: c.result.dataset.clone(),
        ordering: c.result.ordering.clone(),
        algo: c.result.algo.clone(),
        status: c.status.label().to_string(),
        seconds: if c.status.is_usable() {
            c.result.seconds
        } else {
            f64::NAN
        },
        checksum: c.result.checksum,
    }
}

/// The manifest for one harness invocation: every flag that shapes the
/// grid, in a fixed order, folded into the config hash. `--resume`,
/// `--faults`, and `--order-cache` are deliberately excluded — a
/// resumed, fault-hammered, or cache-warmed run is still the *same*
/// experiment, and its trace must hash-match the original so `--resume`
/// accepts it.
fn manifest_for(tool: &str, args: &HarnessArgs) -> RunManifest {
    fn list(v: &Option<Vec<String>>) -> String {
        v.as_ref().map_or("-".to_string(), |v| v.join("+"))
    }
    let config = format!(
        "tool={tool},scale={},reps={},seed={},quick={},cell_timeout={},threads={},\
         datasets={},orderings={},algos={},extra={}",
        args.scale,
        args.reps,
        args.seed,
        args.quick,
        args.cell_timeout.map_or("-".to_string(), |t| t.to_string()),
        args.threads,
        list(&args.datasets),
        list(&args.orderings),
        list(&args.algos),
        args.extra.join("+"),
    );
    let mut m = RunManifest::new(tool, &config);
    m.threads = u64::from(args.threads);
    m
}

/// The config hash a trace written by `tool` under `args` carries in its
/// manifest line. `--resume` compares this against the prior trace's
/// manifest before trusting any recovered cell.
pub fn expected_config_hash(tool: &str, args: &HarnessArgs) -> u64 {
    manifest_for(tool, args).config_hash
}

/// Reads the prior trace `--resume` names for `tool`, logging what it
/// recovered; `None` without the flag, exit 2 on an unusable trace. Call
/// it before [`SweepTrace::open`] truncates the `--trace-out` target:
/// `--resume X --trace-out X` is the natural invocation after a crash.
pub fn load_resume(tool: &str, args: &HarnessArgs) -> Option<ResumeState> {
    let path = args.resume.as_ref()?;
    let s = ResumeState::load(path, expected_config_hash(tool, args)).unwrap_or_else(|e| {
        eprintln!("error: --resume {e}");
        std::process::exit(2)
    });
    let torn = if s.truncated_final_line {
        " (trace ends in a torn line — crash artifact, tolerated)"
    } else {
        ""
    };
    eprintln!(
        "[{tool}] resuming from {path}: {} completed cells, {} rows{torn}",
        s.cell_count(),
        s.row_count()
    );
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::CellResult;
    use crate::robust::CellStatus;
    use gorder_obs::validate_jsonl;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gorder-bench-{}-{name}", std::process::id()))
    }

    fn cell(status: CellStatus) -> RobustCell {
        RobustCell {
            result: CellResult {
                dataset: "d".into(),
                algo: "BFS".into(),
                ordering: "Gorder".into(),
                seconds: 0.5,
                checksum: 7,
                stats: Default::default(),
            },
            status,
        }
    }

    #[test]
    fn no_flag_means_no_op() {
        let mut t = SweepTrace::open("test", &HarnessArgs::default());
        assert!(!t.is_active());
        t.cell(&cell(CellStatus::Completed));
        t.finish(); // nothing to write, nothing to crash on
    }

    #[test]
    fn streams_validating_jsonl() {
        let path = tmp("stream.trace.jsonl");
        let args = HarnessArgs {
            trace_out: Some(path.display().to_string()),
            ..Default::default()
        };
        let mut t = SweepTrace::open("test", &args);
        assert!(t.is_active());
        t.cell(&cell(CellStatus::Completed));
        t.cell(&cell(CellStatus::TimedOut));
        // every line is already on disk before finish(): that is the
        // interrupted-sweep guarantee
        let partial = std::fs::read_to_string(&path).unwrap();
        assert_eq!(partial.lines().count(), 3, "manifest + 2 cells");
        t.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).expect("strict parser accepts every line");
        assert_eq!(summary.by_kind["cell"], 2);
        assert_eq!(summary.by_kind["manifest"], 1);
        // the timed-out cell's seconds went null, not NaN
        assert!(text.lines().nth(2).unwrap().contains("\"seconds\":null"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn row_events_stream_and_validate() {
        let path = tmp("rows.trace.jsonl");
        let args = HarnessArgs {
            trace_out: Some(path.display().to_string()),
            ..Default::default()
        };
        let mut t = SweepTrace::open("test", &args);
        t.row("fig5.csv", "d|BFS|Gorder", &["d".into(), "0.5".into()]);
        t.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.by_kind["row"], 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_hash_tracks_grid_filters_but_not_resume() {
        let base = HarnessArgs::default();
        let h0 = expected_config_hash("fig5", &base);
        let filtered = HarnessArgs {
            datasets: Some(vec!["epinion".into()]),
            ..base.clone()
        };
        assert_ne!(
            h0,
            expected_config_hash("fig5", &filtered),
            "dataset filter changes the grid, so it changes the hash"
        );
        let resumed = HarnessArgs {
            resume: Some("old.jsonl".into()),
            faults: Some("bench.cell=1".into()),
            order_cache: Some("perm-cache".into()),
            ..base.clone()
        };
        assert_eq!(
            h0,
            expected_config_hash("fig5", &resumed),
            "--resume/--faults/--order-cache never change the hash"
        );
        assert_ne!(h0, expected_config_hash("table2", &base), "tool is hashed");
    }

    #[test]
    fn unopenable_path_degrades_to_no_op() {
        let args = HarnessArgs {
            trace_out: Some("/dev/null/not-a-dir/x.jsonl".into()),
            ..Default::default()
        };
        let mut t = SweepTrace::open("test", &args);
        assert!(!t.is_active());
        t.cell(&cell(CellStatus::Completed));
        t.finish();
    }
}
