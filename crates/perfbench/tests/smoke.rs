//! Runs every workload at `--smoke` scale through the real binaries —
//! `gorder-perfbench` and the `gorder-serve` daemon built beside it — and
//! checks what they emit against the declaration in `BENCHMARK.json`.
//!
//! The daemon is never skipped: if it has not been built (`cargo build
//! -p gorder-serve`, which `cargo test --workspace` does), the serve-mixed
//! run fails with a message saying so.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use gorder_perfbench::decl::{Decl, BENCHMARK_JSON};
use gorder_perfbench::json::{parse_result_line, Json};

const BIN: &str = env!("CARGO_BIN_EXE_gorder-perfbench");

/// A fresh working directory for one test; the benchmark writes only
/// below its working directory.
fn workdir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's working directory");
    dir
}

/// Runs the benchmark binary in `dir` and returns its stdout; panics with
/// its stderr unless the exit code is one of `ok_codes`.
fn perfbench(dir: &Path, args: &[&str], ok_codes: &[i32]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn gorder-perfbench");
    let code = out.status.code().unwrap_or(-1);
    assert!(
        ok_codes.contains(&code),
        "gorder-perfbench {args:?} exited {code}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn declaration_meets_the_limits() {
    let raw = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = raw.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for w in raw.get("workloads").expect("workloads").as_arr() {
        let why = w.str_at("why").expect("every workload says why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }

    let decl = Decl::load();
    assert!((1.0..=60.0).contains(&decl.run_seconds) && decl.run_seconds.fract() == 0.0);
    assert!((2..=8).contains(&decl.workloads.len()));
    assert!(
        (1..=16).contains(&decl.end_to_end.len()),
        "at most 16 end-to-end metrics"
    );
    assert!(
        (1..=128).contains(&decl.per_layer.len()),
        "at most 128 per-layer metrics"
    );
    let mut seen = BTreeSet::new();
    let metrics = decl.end_to_end.iter().chain(&decl.per_layer);
    for name in decl
        .workloads
        .iter()
        .chain(metrics.clone().map(|m| &m.name))
    {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for m in metrics {
        assert!(valid_unit(&m.unit), "bad unit {:?} of {}", m.unit, m.name);
    }
    // Bounds are at most 25%, and `setup_s`, timed only a few times at
    // process start, carries the largest.
    let setup = decl.metric("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    let setup_bound = setup.bound.expect("setup_s has a bound");
    for m in &decl.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        assert!(
            bound <= setup_bound,
            "{} bound {bound} exceeds setup_s's",
            m.name
        );
    }
    assert!(decl.per_layer.iter().all(|m| m.bound.is_none()));
}

/// One smoke-scale `bench` run of `workload`; returns its metrics after
/// checking the result line: correct, no failures, and exactly the
/// declared metrics of the run's kind.
fn bench(dir: &Path, decl: &Decl, workload: &str, trace: bool) -> BTreeMap<String, (f64, String)> {
    let args = [
        "bench",
        "--workload",
        workload,
        "--seed",
        "42",
        "--seconds",
        "0",
        "--smoke",
        "--trace",
        if trace { "1" } else { "0" },
    ];
    let stdout = perfbench(dir, &args, &[0]);
    let last = stdout.lines().last().expect("bench prints a result line");
    let (correct, attempted, failed, metrics) =
        parse_result_line(last).expect("result line parses");
    assert!(
        correct && attempted > 0 && failed == 0,
        "{workload}: {last}"
    );

    let declared = if trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let want: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    let got: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        got.difference(&want).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "{workload} emitted undeclared metrics"
    );
    assert_eq!(
        want.difference(&got).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "{workload} did not emit declared metrics"
    );
    for m in &metrics {
        let d = decl.metric(&m.name).expect("declared");
        assert_eq!(m.unit, d.unit, "{workload} {}", m.name);
        assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
    }
    metrics
        .into_iter()
        .map(|m| (m.name, (m.value, m.unit)))
        .collect()
}

/// Runs `workload` once untraced and twice traced: each run emits exactly
/// its declared metrics, and the two traced runs count the same.
fn smoke(workload: &str) {
    let dir = workdir(workload);
    let decl = Decl::load();
    bench(&dir, &decl, workload, false);
    let counts = |m: BTreeMap<String, (f64, String)>| -> BTreeMap<String, f64> {
        m.into_iter()
            .filter(|(_, (_, unit))| unit == "count")
            .map(|(name, (v, _))| (name, v))
            .collect()
    };
    let first = counts(bench(&dir, &decl, workload, true));
    let second = counts(bench(&dir, &decl, workload, true));
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "{workload}: count metrics differ between two runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_smoke_tests_cover_every_declared_workload() {
    assert_eq!(
        Decl::load().workloads,
        ["order-social", "kernels-web", "sim-web", "serve-mixed"]
    );
}

#[test]
fn smoke_order_social() {
    smoke("order-social");
}

#[test]
fn smoke_kernels_web() {
    smoke("kernels-web");
}

#[test]
fn smoke_sim_web() {
    smoke("sim-web");
}

#[test]
fn smoke_serve_mixed() {
    smoke("serve-mixed");
}

#[test]
fn run_writes_traces_and_run_files_that_spread_reads() {
    let dir = workdir("tooling");
    let stdout = perfbench(
        &dir,
        &[
            "run",
            "--smoke",
            "--seconds",
            "0",
            "--workloads",
            "order-social",
            "--trace",
            "spans",
            "--repeat",
            "2",
            "--out",
            "runs",
        ],
        &[0],
    );
    for key in [
        "cpu_model",
        "nproc",
        "l2_bytes",
        "l3_bytes",
        "rustc",
        "git_rev",
        "seed",
    ] {
        assert!(
            stdout.contains(&format!("manifest {key} ")),
            "manifest lacks {key}"
        );
    }
    for line in [
        "order-social op_ms ",
        "order-social trace_overhead ",
        "order-social error_rate 0 ",
    ] {
        assert!(stdout.contains(line), "run output lacks {line:?}");
    }
    let spans =
        std::fs::read_to_string(dir.join("spans/order-social.spans.jsonl")).expect("span file");
    assert!(spans.lines().any(|l| l.contains("\"kind\":\"span\"")));
    assert!(spans.lines().any(|l| l.contains("\"kind\":\"self_time\"")));

    // Exit 1 only flags a spread beyond a bound, which two smoke runs may
    // show; 2 would be a tooling error.
    let report = perfbench(&dir, &["spread", "runs", "runs"], &[0, 1]);
    assert!(report
        .lines()
        .any(|l| l.starts_with("order-social") && l.contains("op_ms")));
    assert!(report.contains("set2 median"));
    let _ = std::fs::remove_dir_all(&dir);
}
