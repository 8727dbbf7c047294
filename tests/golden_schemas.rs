//! Golden-output tests for the machine-readable surfaces other tools
//! consume: the fig5/table2 CSV headers and the `--stats` JSON key
//! sequence. Snapshots live under `tests/golden/`; a mismatch means the
//! schema drifted — either update the snapshot *and* every reader
//! (fig6's multi-generation header list, downstream scripts), or revert
//! the drift. Silent changes are exactly what this file exists to stop.

use gorder_bench::schema::{FIG5_HEADER, FIG5_KNOWN_HEADERS, TABLE2_HEADER};
use gorder_cachesim::Measure;
use gorder_cli::run_algorithm_budgeted;
use gorder_graph::Graph;
use gorder_obs::json::top_level_keys;
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()))
}

#[test]
fn fig5_csv_header_matches_golden() {
    assert_eq!(
        FIG5_HEADER.join(","),
        golden("fig5_header.txt").trim_end(),
        "fig5 CSV schema drifted; update tests/golden/fig5_header.txt AND \
         the fig6 reader's known-generation list together"
    );
}

#[test]
fn table2_csv_header_matches_golden() {
    assert_eq!(
        TABLE2_HEADER.join(","),
        golden("table2_header.txt").trim_end(),
        "table2 CSV schema drifted; update tests/golden/table2_header.txt"
    );
}

#[test]
fn fig6_reader_accepts_the_written_generation() {
    // The two-generation trap this suite was built for: fig5 writes a new
    // column but fig6's accept-list still only knows the old headers, so
    // cached grids silently fall back to a full re-run.
    assert!(
        FIG5_KNOWN_HEADERS.contains(&FIG5_HEADER),
        "fig6 would reject the CSV fig5 currently writes"
    );
}

#[test]
fn stats_json_keys_match_golden() {
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
    let out =
        run_algorithm_budgeted(&g, "BFS", None, 5, 1, None, Measure::Wall { threads: 2 }).unwrap();
    let line = out.stats_line();
    let want: Vec<String> = golden("stats_keys.txt")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        top_level_keys(&line),
        want,
        "--stats JSON schema drifted; update tests/golden/stats_keys.txt \
         and notify downstream consumers (line: {line})"
    );
}

#[test]
fn gate_report_schema_matches_golden() {
    use gorder_bench::gate::{render_report, run_gate, GateConfig, GateMode};

    // A tiny grid — the schema is identical to the CI-pinned one.
    let mut cfg = GateConfig::pinned(GateMode::Sim);
    cfg.scale = 0.02;
    cfg.datasets = vec!["epinion".into()];
    cfg.orderings = vec!["Original".into(), "Gorder".into()];
    cfg.algos = vec!["NQ".into()];
    let text = render_report(&run_gate(&cfg).expect("tiny gate run"));

    // Pin both the file structure (one manifest, then gate cells, then
    // order records) and the per-kind top-level key order.
    let mut kinds: Vec<String> = Vec::new();
    let mut keys: std::collections::BTreeMap<String, String> = Default::default();
    for line in text.lines() {
        let obj = gorder_obs::json::parse_object(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let kind = obj["kind"].trim_matches('"').to_string();
        if kinds.last() != Some(&kind) {
            kinds.push(kind.clone());
        }
        keys.entry(kind)
            .or_insert_with(|| top_level_keys(line).join(","));
    }
    let mut got = format!("kinds: {}\n", kinds.join(","));
    for (kind, k) in &keys {
        got.push_str(&format!("{kind}: {k}\n"));
    }
    assert_eq!(
        got,
        golden("gate_schema.txt"),
        "BENCH_gate.json schema drifted; update tests/golden/gate_schema.txt, \
         bump gorder_obs::SCHEMA_VERSION, and regenerate committed baselines \
         with `gorder-bench gate --update`"
    );
}

#[test]
fn trace_jsonl_keys_match_golden() {
    use gorder_obs::json::parse_object;
    use gorder_obs::{
        CellEvent, GateEvent, KernelEvent, OrderEvent, PhaseEvent, Registry, RowEvent, RunManifest,
        ServeEvent, TraceEvent, TraceSink, SCHEMA_VERSION,
    };

    assert_eq!(
        SCHEMA_VERSION, 5,
        "bumping the trace schema version requires regenerating \
         tests/golden/trace_keys.txt and notifying trace consumers"
    );

    // One line of every kind the sink can emit, through the real writer.
    let mut manifest = RunManifest::new("golden", "cfg");
    manifest.dataset = Some("d".into());
    manifest.ordering = Some("Gorder".into());
    manifest.algo = Some("BFS".into());
    manifest.window = Some(5);
    let reg = Registry::new();
    reg.counter_add("c", 1);
    reg.gauge_set("g", 2.0);
    reg.observe("h", &[1.0, 2.0], 1.5);
    reg.span("s").finish();
    let mut sink = TraceSink::new(Vec::new());
    sink.manifest(&manifest).unwrap();
    sink.event(&TraceEvent::Cell(CellEvent {
        dataset: "d".into(),
        ordering: "Gorder".into(),
        algo: "BFS".into(),
        status: "completed".into(),
        seconds: 0.5,
        checksum: 7,
    }))
    .unwrap();
    sink.event(&TraceEvent::Kernel(KernelEvent {
        algo: "BFS".into(),
        ordering: "Gorder".into(),
        checksum: 7,
        seconds: 0.5,
        engine: "serial".into(),
        iterations: 3,
        edges_relaxed: 9,
        frontier_pushes: 4,
        frontier_peak: 2,
        init_secs: 0.1,
        compute_secs: 0.3,
        finish_secs: 0.1,
        threads_used: 1,
        thread_busy_secs: 0.0,
        degraded_serial: false,
    }))
    .unwrap();
    sink.event(&TraceEvent::Phase(PhaseEvent {
        name: "order".into(),
        seconds: 0.2,
    }))
    .unwrap();
    sink.event(&TraceEvent::Gate(GateEvent {
        mode: "sim".into(),
        dataset: "d".into(),
        ordering: "Gorder".into(),
        algo: "BFS".into(),
        checksum: 7,
        iterations: 3,
        edges_relaxed: 9,
        refs: 100,
        level_misses: vec![10, 5, 2],
        mem_accesses: 2,
        ops: 40,
        reuse_total: 90,
        reuse_sum: 1234.0,
        reuse_counts: vec![80, 10],
        pairs: 0,
        speedup: 0.0,
        sign_p: 0.0,
        ci_lo: 0.0,
        ci_hi: 0.0,
    }))
    .unwrap();
    sink.event(&TraceEvent::Order(OrderEvent {
        dataset: Some("d".into()),
        name: "Gorder".into(),
        params: "w=5".into(),
        seed: 42,
        graph_digest: 0xabcd,
        identity: "graph=000000000000abcd,order=Gorder,params=w=5,seed=42".into(),
        status: "completed".into(),
        seconds: 0.2,
        nodes_placed: 6,
        heap_increments: 10,
        heap_decrements: 2,
        heap_pops: 6,
        threads_used: 1,
        cache_hit: false,
    }))
    .unwrap();
    sink.event(&TraceEvent::Row(RowEvent {
        table: "fig5.csv".into(),
        key: "d|BFS|Gorder".into(),
        cells: vec!["d".into(), "BFS".into(), "Gorder".into()],
    }))
    .unwrap();
    sink.event(&TraceEvent::Serve(ServeEvent {
        op: "run".into(),
        dataset: Some("d".into()),
        ordering: Some("Gorder".into()),
        algo: Some("BFS".into()),
        status: "ok".into(),
        tier: Some("cache".into()),
        degraded_serial: false,
        queue_secs: 0.001,
        seconds: 0.5,
        checksum: 7,
    }))
    .unwrap();
    sink.metrics(&reg.snapshot()).unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();

    let mut seen: std::collections::BTreeMap<String, String> = Default::default();
    for line in text.lines() {
        let obj = parse_object(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let kind = obj["kind"].trim_matches('"').to_string();
        seen.entry(kind)
            .or_insert_with(|| top_level_keys(line).join(","));
    }
    let got: String = seen
        .iter()
        .map(|(kind, keys)| format!("{kind}: {keys}\n"))
        .collect();
    assert_eq!(
        got,
        golden("trace_keys.txt"),
        "trace JSONL schema drifted; update tests/golden/trace_keys.txt, \
         bump gorder_obs::SCHEMA_VERSION, and notify trace consumers"
    );
}
