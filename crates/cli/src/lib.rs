//! # gorder-cli — command-line front end
//!
//! The workflows the original Gorder release supported (reorder an edge
//! list), plus the ones this reproduction adds: inspect, convert between
//! formats, run the benchmark algorithms, and cache-profile a graph under
//! any ordering. The binary is a thin `main` over this library so every
//! piece is unit-testable.
//!
//! ```text
//! gorder-cli stats    <input>
//! gorder-cli order    <input> <output> [--method Gorder] [--window 5]
//! gorder-cli convert  <input> <output>
//! gorder-cli run      <algo> <input> [--method NAME]
//! gorder-cli simulate <algo> <input> [--method NAME]
//! ```
//!
//! Formats are chosen by extension: `.mtx` Matrix Market, `.bin` the
//! compact binary format, anything else a whitespace edge list.

use gorder_cachesim::outcome::{kernel_label, run_named, KernelOutcome, Measure};
use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_graph::io::GraphIoError;
use gorder_graph::stats::{degree_gini, GraphStats};
use gorder_graph::Permutation;
use gorder_graph::{io, io_mm, Graph};
use gorder_obs::{OrderEvent, TraceEvent};
use gorder_orders::{ordering_by_name, run_ordering, CacheKey, ExecPlan, OrderCache};
use std::borrow::Cow;
use std::path::Path;
use std::time::Duration;

/// Structured CLI failure. Each variant maps to a distinct process exit
/// code so scripts can tell bad usage from bad input from exhausted
/// budgets (see [`CliError::exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// Unknown command, flag, algorithm, or ordering — exit 2.
    Usage(String),
    /// A budgeted stage hit its deadline with nothing usable — exit 4.
    TimedOut,
    /// A stage failed outright — exit 5.
    Failed(String),
    /// Reading or writing a graph file failed — exit 6.
    GraphIo(GraphIoError),
}

impl CliError {
    /// The process exit code for this failure. Exit 0 is success, exit 3
    /// is reserved for "succeeded but degraded" (see [`CmdOutput`]);
    /// exit 1 is left to panics/aborts so it never aliases a clean error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::TimedOut => 4,
            CliError::Failed(_) => 5,
            CliError::GraphIo(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::TimedOut => write!(f, "timed out before producing a usable result"),
            CliError::Failed(msg) => write!(f, "failed: {msg}"),
            CliError::GraphIo(e) => write!(f, "{e}"),
        }
    }
}

impl From<GraphIoError> for CliError {
    fn from(e: GraphIoError) -> Self {
        CliError::GraphIo(e)
    }
}

/// A failed command, with the `order` record its ordering left when one
/// ran: an empty-handed resolution (timed out or failed) is traced like
/// a successful one, so `--trace-out` still says how long it ran.
#[derive(Debug)]
pub struct CmdError {
    /// Why the command failed; decides the exit code.
    pub error: CliError,
    /// The `order` record, when an ordering ran or was looked up.
    pub order: Option<Box<OrderEvent>>,
}

impl CmdError {
    fn resolving(error: CliError, order: OrderEvent) -> Self {
        CmdError {
            error,
            order: Some(Box::new(order)),
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl From<CliError> for CmdError {
    fn from(error: CliError) -> Self {
        CmdError { error, order: None }
    }
}

/// A finished `run`/`simulate`: the kernel's outcome, the `--method`
/// ordering its graph was laid out with, and a marker when that ordering
/// ran out of budget partway. Degradation is still success — the output
/// is valid — but the process exits 3 and the reason goes to stderr, so
/// callers can notice.
#[derive(Debug)]
pub struct CmdOutput {
    /// The kernel run.
    pub outcome: KernelOutcome,
    /// The ordering as named on the command line; `None` is the input's
    /// own order.
    pub ordering: Option<String>,
    /// Set when a budgeted stage returned an anytime (partial) result.
    pub degraded: Option<DegradeReason>,
    /// The `order` record of the `--method` ordering, if one was named.
    pub order: Option<OrderEvent>,
}

impl CmdOutput {
    /// The human-readable one-line report.
    pub fn report(&self) -> String {
        let layout = match (&self.ordering, self.degraded) {
            (None, _) => "original order".to_string(),
            (Some(name), None) => format!("{name} order"),
            (Some(name), Some(reason)) => format!("{name} order (degraded: {reason})"),
        };
        self.outcome.report(&layout)
    }

    /// The `--stats` JSON line.
    pub fn stats_line(&self) -> String {
        self.outcome.stats_line(self.ordering.as_deref())
    }

    /// The `kernel` trace record.
    pub fn event(&self) -> TraceEvent {
        TraceEvent::Kernel(self.outcome.event(self.ordering.as_deref()))
    }

    /// Every record `--trace-out` writes after the manifest: the `order`
    /// record, if an ordering was named, then the `kernel` record.
    pub fn events(&self) -> Vec<TraceEvent> {
        let order = self.order.clone().map(TraceEvent::Order);
        order.into_iter().chain([self.event()]).collect()
    }
}

/// `validate-trace` subcommand: checks that every line of the file at
/// `path` passes the strict JSON parser and that the first line is a
/// manifest with a supported schema version. Returns a one-line summary.
///
/// With `lenient` (the `--lenient` flag), exactly one invalid,
/// unterminated **final** line is tolerated and reported — the signature
/// a crash mid-write leaves, and exactly what `--resume` accepts.
pub fn validate_trace_file(path: &Path, lenient: bool) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
    let validated = if lenient {
        gorder_obs::validate_jsonl_lenient(&text)
    } else {
        gorder_obs::validate_jsonl(&text)
    };
    let summary = validated.map_err(|e| CliError::Failed(format!("{}: {e}", path.display())))?;
    let kinds = summary
        .by_kind
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect::<Vec<_>>()
        .join(", ");
    let torn = if summary.truncated_final_line {
        " + 1 torn final line (crash artifact, tolerated)"
    } else {
        ""
    };
    Ok(format!(
        "{}: valid trace, {} lines ({kinds}){torn}",
        path.display(),
        summary.lines
    ))
}

/// Builds the [`Budget`] for a `--timeout` flag; `None` is unlimited.
pub fn budget_from(timeout: Option<Duration>) -> Budget {
    match timeout {
        Some(t) => Budget::unlimited().with_timeout(t),
        None => Budget::unlimited(),
    }
}

/// Graph file formats the CLI understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Whitespace-separated `u v` pairs (default).
    EdgeList,
    /// Matrix Market coordinate.
    MatrixMarket,
    /// This crate's compact binary CSR.
    Binary,
}

/// Picks a format from a path's extension.
pub fn format_of(path: &Path) -> Format {
    match path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase())
        .as_deref()
    {
        Some("mtx") => Format::MatrixMarket,
        Some("bin") => Format::Binary,
        _ => Format::EdgeList,
    }
}

/// Loads a graph, dispatching on extension.
pub fn load(path: &Path) -> Result<Graph, GraphIoError> {
    match format_of(path) {
        Format::EdgeList => io::read_edge_list_path(path),
        Format::MatrixMarket => io_mm::read_matrix_market_path(path),
        Format::Binary => io::read_binary_path(path),
    }
}

/// Saves a graph, dispatching on extension.
pub fn save(g: &Graph, path: &Path) -> Result<(), GraphIoError> {
    match format_of(path) {
        Format::EdgeList => io::write_edge_list_path(g, path),
        Format::MatrixMarket => io_mm::write_matrix_market_path(g, path),
        Format::Binary => io::write_binary_path(g, path),
    }
}

/// `stats` subcommand: one human-readable block.
pub fn stats_report(g: &Graph) -> String {
    let s = GraphStats::compute(g);
    format!(
        "nodes            {}\n\
         edges            {}\n\
         mean out-degree  {:.2}\n\
         max out-degree   {}\n\
         max in-degree    {}\n\
         reciprocity      {:.1}%\n\
         isolated nodes   {}\n\
         degree gini      {:.3}\n\
         csr memory       {:.1} MB",
        s.n,
        s.m,
        s.mean_degree,
        s.max_out_degree,
        s.max_in_degree,
        s.reciprocity * 100.0,
        s.isolated,
        degree_gini(g),
        g.memory_bytes() as f64 / 1e6,
    )
}

/// One resolved ordering: the permutation, the degradation marker, and
/// the trace-ready [`OrderEvent`] describing how it was obtained.
pub struct ResolvedOrdering {
    /// The permutation, computed or cache-loaded.
    pub perm: Permutation,
    /// `Some` when the (anytime) ordering ran out of budget partway.
    pub degraded: Option<DegradeReason>,
    /// The `order` trace record for this resolution.
    pub event: OrderEvent,
}

/// Resolves the named ordering of `g` under an optional timeout through
/// the unified runner ([`run_ordering`]) and an optional
/// content-addressed permutation cache: a hit skips the computation
/// entirely, a completed miss is stored back (degraded permutations are
/// never cached — they depend on the budget, not just the key). A
/// degraded result (the anytime prefix completed by a cheaper fallback)
/// is still a valid permutation and is returned with its reason; an
/// empty-handed timeout or failure becomes a [`CmdError`] that still
/// carries the [`OrderEvent`]. `dataset` labels that event (the CLI
/// passes the input path).
pub fn resolve_ordering_cached(
    g: &Graph,
    method: &str,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
    cache: Option<&OrderCache>,
    dataset: Option<&str>,
) -> Result<ResolvedOrdering, CmdError> {
    let o = ordering_by_name(method, window, seed).map_err(CliError::Usage)?;
    let key = CacheKey::for_ordering(g, o.as_ref(), seed);
    let budget = budget_from(timeout);
    let (outcome, event) = gorder_orders::resolve_ordering(&key, g.n(), cache, dataset, || {
        run_ordering(o.as_ref(), g, ExecPlan::Serial, &budget)
    });
    let (perm, degraded) = match outcome {
        ExecOutcome::Completed(perm) => (perm, None),
        ExecOutcome::Degraded(perm, reason) => (perm, Some(reason)),
        ExecOutcome::TimedOut => return Err(CmdError::resolving(CliError::TimedOut, event)),
        ExecOutcome::Failed(msg) => return Err(CmdError::resolving(CliError::Failed(msg), event)),
    };
    Ok(ResolvedOrdering {
        perm,
        degraded,
        event,
    })
}

/// `run` and `simulate` subcommands: runs kernel `algo` over `g`, first
/// relabelled by the optional `ordering` (computed under the optional
/// `timeout`; a degraded ordering still runs the kernel and is flagged in
/// [`CmdOutput::degraded`]). `measure` is the wall clock on `--threads`
/// workers for `run` (results are byte-identical to serial, only the
/// timing and the `threads_used`/`thread_busy_secs` stats change) and
/// the cache model for `simulate`.
#[allow(clippy::too_many_arguments)]
pub fn run_algorithm_budgeted(
    g: &Graph,
    algo: &str,
    ordering: Option<&str>,
    window: u32,
    seed: u64,
    timeout: Option<Duration>,
    measure: Measure,
) -> Result<CmdOutput, CmdError> {
    // Resolve the kernel first: a typo must not cost an ordering.
    let algo = kernel_label(algo).map_err(|e| CliError::Usage(e.to_string()))?;
    let (graph, degraded, order) = match ordering {
        None => (Cow::Borrowed(g), None, None),
        Some(name) => {
            let r = resolve_ordering_cached(g, name, window, seed, timeout, None, None)?;
            (Cow::Owned(g.relabel(&r.perm)), r.degraded, Some(r.event))
        }
    };
    let outcome = run_named(algo, &graph, seed, measure).expect("kernel resolved above");
    Ok(CmdOutput {
        outcome,
        ordering: ordering.map(str::to_string),
        degraded,
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert_eq!(format_of(Path::new("a.mtx")), Format::MatrixMarket);
        assert_eq!(format_of(Path::new("a.MTX")), Format::MatrixMarket);
        assert_eq!(format_of(Path::new("a.bin")), Format::Binary);
        assert_eq!(format_of(Path::new("a.txt")), Format::EdgeList);
        assert_eq!(format_of(Path::new("noext")), Format::EdgeList);
    }

    #[test]
    fn load_save_roundtrip_all_formats() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (4, 0)]);
        let dir = std::env::temp_dir().join("gorder_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["g.txt", "g.mtx", "g.bin"] {
            let p = dir.join(name);
            save(&g, &p).unwrap();
            assert_eq!(load(&p).unwrap(), g, "{name}");
        }
    }

    #[test]
    fn ordering_resolution() {
        assert!(ordering_by_name("Gorder", 5, 1).is_ok());
        assert!(ordering_by_name("gorder", 9, 1).is_ok());
        assert!(ordering_by_name("rcm", 5, 1).is_ok());
        assert!(ordering_by_name("DBG", 5, 1).is_ok());
        assert!(ordering_by_name("nope", 5, 1).is_err());
        assert!(gorder_orders::extended_names().contains(&"SlashBurn"));
    }

    #[test]
    fn stats_report_contains_counts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = stats_report(&g);
        assert!(r.contains("nodes            3"));
        assert!(r.contains("edges            2"));
    }

    #[test]
    fn run_and_simulate_work() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let run = run_algorithm_budgeted(
            &g,
            "BFS",
            Some("Gorder"),
            5,
            1,
            None,
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        assert!(run.report().contains("BFS over Gorder order"));
        let sim = run_algorithm_budgeted(&g, "PR", None, 5, 1, None, Measure::Modelled).unwrap();
        assert!(sim.report().contains("L1-mr"));
        assert!(
            run_algorithm_budgeted(&g, "XX", None, 5, 1, None, Measure::Wall { threads: 1 })
                .is_err()
        );
        assert!(
            run_algorithm_budgeted(&g, "PR", Some("zzz"), 5, 1, None, Measure::Modelled).is_err()
        );
    }

    #[test]
    fn exit_codes_are_distinct() {
        let errs = [
            CliError::Usage("x".into()),
            CliError::TimedOut,
            CliError::Failed("y".into()),
            CliError::GraphIo(GraphIoError::BadMagic),
        ];
        let mut codes: Vec<u8> = errs.iter().map(CliError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "exit codes must not alias");
        // 0 = success, 1 = panic/abort, 3 = degraded are reserved.
        assert!(!codes.contains(&0) && !codes.contains(&1) && !codes.contains(&3));
    }

    #[test]
    fn zero_timeout_gorder_degrades_but_still_runs() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(
            &g,
            "BFS",
            Some("Gorder"),
            5,
            1,
            Some(Duration::from_secs(0)),
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        assert!(out.degraded.is_some(), "zero budget must degrade");
        assert!(out.report().contains("degraded"));
    }

    #[test]
    fn zero_timeout_without_anytime_path_times_out() {
        // RCM has no compute_budgeted override: the trait default returns
        // TimedOut when the budget is exhausted before it starts.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        match run_algorithm_budgeted(
            &g,
            "BFS",
            Some("RCM"),
            5,
            1,
            Some(Duration::from_secs(0)),
            Measure::Wall { threads: 1 },
        ) {
            Err(CmdError {
                error: CliError::TimedOut,
                order: Some(order),
            }) => assert_eq!(order.status, "timed-out"),
            other => panic!("expected TimedOut with its order record, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budgeted_matches_unbudgeted() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let plain = run_algorithm_budgeted(
            &g,
            "NQ",
            Some("ChDFS"),
            5,
            1,
            None,
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        let hour = Some(Duration::from_secs(3600));
        let budgeted = run_algorithm_budgeted(
            &g,
            "NQ",
            Some("ChDFS"),
            5,
            1,
            hour,
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        assert!(budgeted.degraded.is_none());
        // Reports match up to the timing suffix.
        let head = |s: &str| s.split(" in ").next().unwrap().to_string();
        assert_eq!(head(&plain.report()), head(&budgeted.report()));
    }

    #[test]
    fn unknown_ordering_or_gorder_window_zero_is_usage() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        match resolve_ordering_cached(&g, "nope", 5, 1, None, None, None).map_err(|e| e.error) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("unknown ordering")),
            Err(other) => panic!("expected Usage, got {other:?}"),
            Ok(_) => panic!("expected Usage, got a permutation"),
        }
        match run_algorithm_budgeted(&g, "BFS", Some("Gorder"), 0, 1, None, Measure::Modelled)
            .map_err(|e| e.error)
        {
            Err(CliError::Usage(msg)) => assert!(msg.contains("window"), "{msg}"),
            other => panic!("expected Usage, got {other:?}"),
        }
    }

    /// The shared strict parser from `gorder_obs`: the same validation
    /// path the golden tests, the CI trace check, and `validate-trace`
    /// use, so "parses here" means "parses everywhere downstream".
    use gorder_obs::json::parse_object as parse_json_object;

    const STATS_KEYS: [&str; 15] = [
        "algo",
        "ordering",
        "checksum",
        "seconds",
        "engine",
        "iterations",
        "edges_relaxed",
        "frontier_pushes",
        "frontier_peak",
        "init_secs",
        "compute_secs",
        "finish_secs",
        "threads_used",
        "thread_busy_secs",
        "degraded_serial",
    ];

    #[test]
    fn run_stats_json_is_valid_and_complete() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(
            &g,
            "BFS",
            Some("Gorder"),
            5,
            1,
            None,
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        let line = out.stats_line();
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        for key in STATS_KEYS {
            assert!(obj.contains_key(key), "missing {key} in {line}");
        }
        assert_eq!(obj["algo"], "\"BFS\"");
        assert_eq!(obj["ordering"], "\"Gorder\"");
        assert_eq!(obj["engine"], "true");
        assert_eq!(obj["threads_used"], "1");
        assert_eq!(obj["thread_busy_secs"], "[]", "serial runs have no workers");
        assert_eq!(obj["degraded_serial"], "false", "clean runs never degrade");
        assert!(obj["iterations"].parse::<u64>().unwrap() >= 1, "{line}");
        // BFS (with restarts) scans every out-edge exactly once
        assert_eq!(obj["edges_relaxed"].parse::<u64>().unwrap(), g.m());
    }

    #[test]
    fn parallel_run_reports_threads_and_busy_times() {
        // A graph wide enough that the PR partitioner yields four
        // non-empty ranges: 200 nodes in a ring plus some chords.
        let mut edges: Vec<(u32, u32)> = (0..200u32).map(|u| (u, (u + 1) % 200)).collect();
        edges.extend((0..50u32).map(|u| (u * 4, (u * 7 + 3) % 200)));
        let g = Graph::from_edges(200, &edges);
        let out = run_algorithm_budgeted(&g, "PR", None, 5, 1, None, Measure::Wall { threads: 4 })
            .unwrap();
        let line = out.stats_line();
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(obj["threads_used"], "4", "{line}");
        let busy = obj["thread_busy_secs"].trim_matches(['[', ']']);
        let entries: Vec<f64> = busy.split(',').map(|s| s.parse().unwrap()).collect();
        assert_eq!(entries.len(), 4, "{line}");
        assert!(entries.iter().all(|&s| s > 0.0), "{line}");
    }

    #[test]
    fn simulate_stats_json_covers_engine_and_extensions() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(&g, "PR", None, 5, 1, None, Measure::Modelled).unwrap();
        let line = out.stats_line();
        let obj = parse_json_object(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert_eq!(obj["ordering"], "null");
        assert_eq!(obj["engine"], "true");
        // simulate fixes pr_iterations at 5
        assert_eq!(obj["iterations"], "5");

        let out = run_algorithm_budgeted(&g, "WCC", None, 5, 1, None, Measure::Modelled).unwrap();
        let obj = parse_json_object(&out.stats_line()).unwrap();
        assert_eq!(obj["engine"], "true");
        // one iterate per component (one here) plus the final root scan
        assert_eq!(obj["iterations"], "2");
        assert_eq!(obj["edges_relaxed"], (2 * g.m()).to_string());
    }

    #[test]
    fn all_thirteen_kernels_resolve_case_insensitively() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let names = gorder_cachesim::outcome::kernel_labels();
        assert_eq!(names.len(), 13);
        for name in names {
            for spelling in [name.to_lowercase(), name.to_uppercase()] {
                let run = run_algorithm_budgeted(
                    &g,
                    &spelling,
                    None,
                    5,
                    1,
                    None,
                    Measure::Wall { threads: 1 },
                )
                .unwrap_or_else(|e| panic!("run {spelling}: {e}"));
                let obj = parse_json_object(&run.stats_line()).unwrap();
                assert_eq!(obj["algo"], format!("\"{name}\""), "run {spelling}");
                let sim =
                    run_algorithm_budgeted(&g, &spelling, None, 5, 1, None, Measure::Modelled)
                        .unwrap_or_else(|e| panic!("simulate {spelling}: {e}"));
                let obj = parse_json_object(&sim.stats_line()).unwrap();
                assert_ne!(obj["iterations"], "0", "simulate {spelling}");
                assert_eq!(obj["algo"], format!("\"{name}\""), "simulate {spelling}");
                assert!(
                    sim.report().starts_with(&format!("{name} over")),
                    "{spelling}"
                );
                match sim.event() {
                    gorder_obs::TraceEvent::Kernel(k) => assert_eq!(k.algo, name),
                    other => panic!("simulate emits a kernel event, got {other:?}"),
                }
            }
        }
        let out = run_algorithm_budgeted(&g, "WCC", None, 5, 1, None, Measure::Wall { threads: 1 })
            .unwrap();
        let obj = parse_json_object(&out.stats_line()).unwrap();
        assert_ne!(obj["iterations"], "0", "WCC reports its engine iterations");
    }

    #[test]
    fn run_trace_round_trips_the_strict_parser() {
        // The acceptance path end-to-end in memory: manifest + the kernel
        // event `run` produces + a registry snapshot, every line through
        // the same strict parser `validate-trace` and CI use.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let out = run_algorithm_budgeted(
            &g,
            "BFS",
            Some("Gorder"),
            5,
            1,
            None,
            Measure::Wall { threads: 1 },
        )
        .unwrap();
        let mut sink = gorder_obs::TraceSink::new(Vec::new());
        sink.manifest(&gorder_obs::RunManifest::new("gorder-cli run", "test"))
            .unwrap();
        sink.event(&out.event()).unwrap();
        sink.metrics(&gorder_obs::global().snapshot()).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let summary = gorder_obs::validate_jsonl(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(summary.by_kind["manifest"], 1);
        assert_eq!(summary.by_kind["kernel"], 1);
        // the kernel event's keys mirror the --stats line exactly
        let kernel_line = text.lines().nth(1).unwrap();
        let obj = parse_json_object(kernel_line).unwrap();
        assert_eq!(obj["kind"], "\"kernel\"");
        for key in STATS_KEYS {
            assert!(obj.contains_key(key), "missing {key} in {kernel_line}");
        }
        assert_eq!(obj["engine"], "\"serial\"", "trace uses the label form");
    }

    #[test]
    fn validate_trace_file_accepts_good_and_rejects_bad() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("gorder-cli-good-{}.jsonl", std::process::id()));
        let mut sink = gorder_obs::TraceSink::create(&good).unwrap();
        sink.manifest(&gorder_obs::RunManifest::new("t", "c"))
            .unwrap();
        drop(sink);
        let summary = validate_trace_file(&good, false).unwrap();
        assert!(summary.contains("valid trace, 1 lines"), "{summary}");
        std::fs::remove_file(&good).ok();

        let bad = dir.join(format!("gorder-cli-bad-{}.jsonl", std::process::id()));
        std::fs::write(&bad, "{\"kind\":\"cell\"}\n").unwrap();
        match validate_trace_file(&bad, false) {
            Err(CliError::Failed(msg)) => {
                assert!(
                    msg.contains("manifest"),
                    "first line must be a manifest: {msg}"
                )
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn validate_trace_file_lenient_tolerates_a_torn_final_line() {
        // The exact artifact a SIGKILL mid-write leaves: a valid
        // manifest, a valid event, then a half-written line with no
        // trailing newline. Strict mode must reject it; --lenient must
        // accept it and say so in the summary.
        let dir = std::env::temp_dir();
        let torn = dir.join(format!("gorder-cli-torn-{}.jsonl", std::process::id()));
        let mut sink = gorder_obs::TraceSink::create(&torn).unwrap();
        sink.manifest(&gorder_obs::RunManifest::new("t", "c"))
            .unwrap();
        sink.event(&gorder_obs::TraceEvent::Phase(gorder_obs::PhaseEvent {
            name: "order".to_string(),
            seconds: 0.5,
        }))
        .unwrap();
        drop(sink);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&torn)
            .unwrap();
        f.write_all(b"{\"kind\":\"ce").unwrap();
        drop(f);

        match validate_trace_file(&torn, false) {
            Err(CliError::Failed(_)) => {}
            other => panic!("strict mode must reject a torn line, got {other:?}"),
        }
        let summary = validate_trace_file(&torn, true).unwrap();
        assert!(summary.contains("torn final line"), "{summary}");
        assert!(summary.contains("valid trace, 2 lines"), "{summary}");
        std::fs::remove_file(&torn).ok();
    }
}
