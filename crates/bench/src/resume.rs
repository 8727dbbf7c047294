//! Crash-safe sweep resume: rebuilding finished work from a prior
//! `--trace-out` JSONL.
//!
//! The streaming trace is the sweep's write-ahead log: the manifest
//! line pins the configuration (via its config hash), every finished
//! cell appends a `cell` line, and every finished CSV row appends a
//! `row` line — each flushed before the sweep moves on. [`ResumeState`]
//! reads such a file back through the shared trace reader
//! ([`gorder_obs::trace::read_jsonl`] in lenient mode, so the one torn
//! final line a SIGKILL mid-write leaves behind is tolerated) and the
//! `cell`/`row` decoders, and hands the experiment binaries two lookups:
//!
//! * [`ResumeState::completed_cell`] — the timing/checksum of a cell
//!   whose `cell` line made it to disk with status `completed`;
//! * [`ResumeState::row`] — the verbatim CSV cells of a finished row.
//!
//! A binary recovers a cell only when **both** are present (the cell
//! line proves the work finished; the row line carries the exact bytes
//! to re-emit), so a crash between the two lines safely re-runs the
//! cell. Recovery is refused outright when the trace's `config_hash`
//! differs from the current invocation's — resuming under a different
//! grid would splice rows from a different experiment.

use gorder_obs::trace::read_jsonl;
use gorder_obs::{CellEvent, RowEvent, RunManifest};
use std::collections::BTreeMap;

/// A completed cell as recovered from a prior trace's `cell` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveredCell {
    /// The measured (or modelled) seconds the cell recorded.
    pub seconds: f64,
    /// The cell's result checksum.
    pub checksum: u64,
}

/// Everything recoverable from one prior trace file.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Completed cells, keyed `"dataset|ordering|algo"`. Later lines
    /// overwrite earlier ones, so a trace that is itself the product of
    /// a resume (which re-emits recovered cells) never double-counts.
    cells: BTreeMap<String, RecoveredCell>,
    /// Verbatim CSV rows, keyed `(table, row key)`.
    rows: BTreeMap<(String, String), Vec<String>>,
    /// Whether the trace ended in a torn final line (crash signature).
    pub truncated_final_line: bool,
}

impl ResumeState {
    /// Parses a prior trace. `expected_hash` is the config hash the
    /// *current* invocation would stamp into its own manifest; a
    /// mismatch rejects the whole file. A torn final line (invalid,
    /// unterminated, last) is tolerated; any other malformed line is an
    /// error naming its line number and byte offset.
    pub fn parse(text: &str, expected_hash: u64) -> Result<ResumeState, String> {
        let mut state = ResumeState::default();
        // Only the manifest, `cell` and `row` records carry resume
        // information; every other kind just has to parse.
        let summary = read_jsonl(text, true, |n, kind, f| {
            match kind {
                _ if n == 1 => {
                    let hash = RunManifest::decode(f)?.config_hash;
                    if hash != expected_hash {
                        return Err(format!(
                            "config_hash mismatch: trace has {hash}, current invocation is \
                             {expected_hash} — refusing to resume a differently-configured run"
                        ));
                    }
                }
                "cell" => {
                    let c = CellEvent::decode(f)?;
                    if c.status == "completed" {
                        if c.seconds.is_nan() {
                            return Err("bad cell seconds: null".to_string());
                        }
                        state.cells.insert(
                            cell_key(&c.dataset, &c.ordering, &c.algo),
                            RecoveredCell {
                                seconds: c.seconds,
                                checksum: c.checksum,
                            },
                        );
                    }
                }
                "row" => {
                    let r = RowEvent::decode(f)?;
                    state.rows.insert((r.table, r.key), r.cells);
                }
                _ => {}
            }
            Ok(())
        })?;
        state.truncated_final_line = summary.truncated_final_line;
        Ok(state)
    }

    /// [`ResumeState::parse`] over a file, prefixing errors with `path`.
    pub fn load(path: &str, expected_hash: u64) -> Result<ResumeState, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResumeState::parse(&text, expected_hash).map_err(|e| format!("{path}: {e}"))
    }

    /// The recovered timing/checksum of a cell whose `cell` line made it
    /// to disk with status `completed`. Degraded, timed-out, and failed
    /// cells are never recovered — a resumed sweep re-runs them.
    pub fn completed_cell(
        &self,
        dataset: &str,
        ordering: &str,
        algo: &str,
    ) -> Option<RecoveredCell> {
        self.cells.get(&cell_key(dataset, ordering, algo)).copied()
    }

    /// The verbatim CSV cells of a finished `table` row.
    pub fn row(&self, table: &str, key: &str) -> Option<&[String]> {
        self.rows
            .get(&(table.to_string(), key.to_string()))
            .map(Vec::as_slice)
    }

    /// Completed cells recovered.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Rows recovered.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

fn cell_key(dataset: &str, ordering: &str, algo: &str) -> String {
    format!("{dataset}|{ordering}|{algo}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_obs::trace::config_hash;
    use gorder_obs::TraceEvent;

    const CFG: &str = "tool=test,scale=0.1";

    fn manifest_line() -> String {
        RunManifest::new("test", CFG).to_json_line()
    }

    fn cell_line(dataset: &str, ordering: &str, algo: &str, status: &str, secs: f64) -> String {
        TraceEvent::Cell(CellEvent {
            dataset: dataset.into(),
            ordering: ordering.into(),
            algo: algo.into(),
            status: status.into(),
            seconds: secs,
            checksum: 42,
        })
        .to_json_line()
    }

    fn row_line(table: &str, key: &str, cells: &[&str]) -> String {
        TraceEvent::Row(RowEvent {
            table: table.into(),
            key: key.into(),
            cells: cells.iter().map(|s| s.to_string()).collect(),
        })
        .to_json_line()
    }

    #[test]
    fn recovers_completed_cells_and_rows_only() {
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            manifest_line(),
            cell_line("d1", "Gorder", "PR", "completed", 0.5),
            cell_line("d1", "Gorder", "BFS", "timed-out", f64::NAN),
            cell_line("d1", "MLOGGAPA", "PR", "degraded", 0.9),
            row_line("fig5.csv", "d1|PR|Gorder", &["d1", "PR", "0.500000"]),
        );
        let s = ResumeState::parse(&text, config_hash(CFG)).unwrap();
        assert!(!s.truncated_final_line);
        assert_eq!(s.cell_count(), 1);
        assert_eq!(s.row_count(), 1);
        let c = s.completed_cell("d1", "Gorder", "PR").unwrap();
        assert_eq!(c.seconds, 0.5);
        assert_eq!(c.checksum, 42);
        assert_eq!(s.completed_cell("d1", "Gorder", "BFS"), None);
        assert_eq!(s.completed_cell("d1", "MLOGGAPA", "PR"), None);
        assert_eq!(
            s.row("fig5.csv", "d1|PR|Gorder").unwrap(),
            &["d1".to_string(), "PR".into(), "0.500000".into()]
        );
        assert_eq!(s.row("fig5.csv", "nope"), None);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_reported() {
        let whole = format!(
            "{}\n{}\n",
            manifest_line(),
            cell_line("d", "Gorder", "PR", "completed", 1.0)
        );
        let torn = format!("{whole}{{\"kind\":\"ce");
        let s = ResumeState::parse(&torn, config_hash(CFG)).unwrap();
        assert!(s.truncated_final_line);
        assert_eq!(s.cell_count(), 1, "everything before the tear survives");
        // a malformed line mid-file is a hard error, not a truncation
        let mid = format!("{}\n{{\"kind\":\"ce\n{whole}", manifest_line());
        let err = ResumeState::parse(&mid, config_hash(CFG)).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn config_hash_mismatch_is_refused() {
        let text = format!("{}\n", manifest_line());
        let err = ResumeState::parse(&text, config_hash("something-else")).unwrap_err();
        assert!(err.contains("config_hash mismatch"), "{err}");
        assert!(ResumeState::parse(&text, config_hash(CFG)).is_ok());
    }

    #[test]
    fn torn_manifest_and_empty_traces_are_refused() {
        assert!(ResumeState::parse("", 0).is_err());
        let m = manifest_line();
        let prefix = &m[..m.len() / 2];
        assert!(ResumeState::parse(prefix, config_hash(CFG)).is_err());
        // wrong first kind
        let text = format!("{}\n", cell_line("d", "o", "a", "completed", 1.0));
        assert!(ResumeState::parse(&text, config_hash(CFG)).is_err());
    }

    #[test]
    fn later_lines_overwrite_earlier_ones() {
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            manifest_line(),
            cell_line("d", "Gorder", "PR", "completed", 1.0),
            cell_line("d", "Gorder", "PR", "completed", 2.0),
            row_line("t.csv", "k", &["old"]),
            row_line("t.csv", "k", &["new"]),
        );
        let s = ResumeState::parse(&text, config_hash(CFG)).unwrap();
        assert_eq!(s.cell_count(), 1, "re-emitted cells never double-count");
        assert_eq!(s.completed_cell("d", "Gorder", "PR").unwrap().seconds, 2.0);
        assert_eq!(s.row("t.csv", "k").unwrap(), &["new".to_string()]);
    }

    #[test]
    fn load_reads_from_disk_and_names_the_path() {
        let path = std::env::temp_dir().join(format!("gorder-resume-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{}\n", manifest_line())).unwrap();
        let p = path.display().to_string();
        assert!(ResumeState::load(&p, config_hash(CFG)).is_ok());
        let err = ResumeState::load(&p, 0).unwrap_err();
        assert!(err.contains(&p), "{err}");
        std::fs::remove_file(&path).ok();
        let err = ResumeState::load("/nope/missing.jsonl", 0).unwrap_err();
        assert!(err.contains("missing.jsonl"), "{err}");
    }
}
