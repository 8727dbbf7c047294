//! End-to-end tests for the `gate` binary: the baseline workflow
//! (`--update`, compare, exit codes), byte-identical re-runs, the
//! injected-regression self-test, and rejection of unusable baselines
//! with the validate-trace error conventions (line + byte offset,
//! `config_hash mismatch` → exit 2, like `--resume`).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A deliberately tiny sim grid; `--scale` is passed explicitly so the
/// binary takes it over its pinned default.
const GRID: &[&str] = &[
    "--scale",
    "0.02",
    "--seed",
    "7",
    "--datasets",
    "epinion",
    "--orderings",
    "Original,Gorder",
    "--algos",
    "NQ",
];

fn gate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gate"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-gate-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &Path, extra: &[&str]) -> std::process::Output {
    gate()
        .args(GRID)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("spawn gate")
}

#[test]
fn baseline_workflow_roundtrips_byte_for_byte() {
    let dir = scratch("workflow");

    // no baseline yet: unusable invocation, not a regression
    let out = run_in(&dir, &[]);
    assert_eq!(out.status.code(), Some(2), "missing baseline must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--update"), "hint the fix: {stderr}");

    // create it
    let out = run_in(&dir, &["--update"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let baseline = std::fs::read(dir.join("BENCH_gate.json")).expect("baseline written");

    // a fresh run must reproduce the baseline byte-for-byte and pass
    let out = run_in(&dir, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    let rerun = std::fs::read(dir.join("results/BENCH_gate.json")).expect("report written");
    assert_eq!(
        baseline, rerun,
        "sim reports must be byte-identical across runs"
    );

    // lossless round trip through the parser
    let text = String::from_utf8(baseline).unwrap();
    let report = gorder_bench::gate::parse_report(&text).expect("own output parses");
    assert_eq!(gorder_bench::gate::render_report(&report), text);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_regression_trips_the_gate_with_a_delta_table() {
    let dir = scratch("inject");
    assert_eq!(run_in(&dir, &["--update"]).status.code(), Some(0));

    // shrinking Gorder's window to 1 degrades its locality: counters
    // shift, the gate must exit 1 and name the offending cells
    let out = run_in(&dir, &["--gorder-window", "1"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "an injected regression must fail the gate: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    for col in [
        "dataset", "ordering", "algo", "metric", "epinion", "Gorder", "NQ",
    ] {
        assert!(
            stdout.contains(col),
            "delta table missing {col:?}:\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("Original"),
        "Original cells are untouched by the hook and must not be flagged:\n{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_config_hash_exits_2() {
    let dir = scratch("hash");
    assert_eq!(run_in(&dir, &["--update"]).status.code(), Some(0));

    // a different seed is a different experiment: refuse to compare
    let out = gate()
        .args(["--scale", "0.02", "--seed", "8"])
        .args(&GRID[4..]) // datasets/orderings/algos unchanged
        .current_dir(&dir)
        .output()
        .expect("spawn gate");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("config_hash mismatch"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_truncated_baselines_are_rejected_with_offsets() {
    let dir = scratch("corrupt");
    assert_eq!(run_in(&dir, &["--update"]).status.code(), Some(0));
    let path = dir.join("BENCH_gate.json");
    let good = std::fs::read_to_string(&path).unwrap();

    // corruption mid-file: garbage replacing line 2
    let manifest_len = good.find('\n').unwrap() + 1;
    std::fs::write(&path, format!("{}garbage\n", &good[..manifest_len])).unwrap();
    let out = run_in(&dir, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("line 2 (byte offset {manifest_len})")),
        "error must name line and byte offset: {stderr}"
    );

    // truncation: a final line missing its newline (torn write)
    std::fs::write(&path, good.trim_end()).unwrap();
    let out = run_in(&dir, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_names_exit_2() {
    let dir = scratch("flags");
    let out = run_in(&dir, &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = gate()
        .args(["--datasets", "atlantis", "--update"])
        .current_dir(&dir)
        .output()
        .expect("spawn gate");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_sim_gate_renders_the_committed_baseline_byte_for_byte() {
    use gorder_bench::gate::{render_report, run_gate, GateConfig, GateMode};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels under the repo root");
    let committed = std::fs::read_to_string(root.join("BENCH_gate.json")).expect("BENCH_gate.json");
    let fresh = render_report(&run_gate(&GateConfig::pinned(GateMode::Sim)).expect("pinned run"));
    if let Some((i, (want, got))) = committed
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("line {} differs:\ncommitted {want}\nfresh     {got}", i + 1);
    }
    assert_eq!(committed, fresh, "same lines, different length or endings");
}
