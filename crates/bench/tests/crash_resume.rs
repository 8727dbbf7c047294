//! The tentpole acceptance test: SIGKILL a sweep mid-grid, resume it,
//! and require the final CSV to be **byte-identical** to an
//! uninterrupted run's.
//!
//! Runs the real `fig5` binary three times in scratch directories:
//!
//! 1. a clean run (the reference CSV);
//! 2. a run with the deterministic `bench.cell` slow-down fault armed on
//!    **exactly the fourth cell** (a ~10-minute sleep, far beyond any
//!    plausible test duration) that is SIGKILLed once the first three
//!    `row` lines reach the trace — at that point the child is
//!    necessarily alive inside cell four's sleep, so there is no window
//!    in which "observed enough rows" and "child still running" can
//!    disagree, however stalled the host;
//! 3. a `--resume` run over the killed run's trace.
//!
//! fig5 defaults to simulated (modelled) time, so cell seconds are
//! deterministic and byte-identical CSVs are actually achievable; the
//! injected sleeps never touch the modelled numbers.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Grid flags shared by all three runs. `--resume`/`--faults` are not
/// part of the config hash, so the resumed run hash-matches the trace.
const GRID: &[&str] = &[
    "--quick",
    "--scale",
    "0.02",
    "--seed",
    "7",
    "--cell-timeout",
    "60",
    "--datasets",
    "epinion",
    "--orderings",
    "Original,ChDFS,Gorder",
    "--algos",
    "NQ,BFS",
];
const TOTAL_CELLS: usize = 6; // 1 dataset × 3 orderings × 2 algos

fn fig5() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig5"))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn row_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().filter(|l| l.contains("\"kind\":\"row\"")).count())
        .unwrap_or(0)
}

#[test]
fn sigkill_mid_sweep_then_resume_reproduces_the_csv_byte_for_byte() {
    // 1. clean reference run
    let clean = scratch("clean");
    let status = fig5()
        .args(GRID)
        .args(["--trace-out", "trace.jsonl"])
        .current_dir(&clean)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn clean fig5");
    assert!(status.success(), "clean run failed: {status}");
    let reference = std::fs::read(clean.join("results/fig5.csv")).expect("clean CSV");

    // 2. run with cell four blocked, SIGKILLed once three rows are on
    // disk. Only cell four sleeps (`site=4`, not `1+`): cells 1–3 finish
    // at full speed, then the sweep parks in a sleep orders of magnitude
    // longer than the poll deadline. When the third row appears the
    // child cannot have produced a fourth — no timing assumption needed.
    let crashed = scratch("crashed");
    let mut child = fig5()
        .args(GRID)
        .args(["--trace-out", "trace.jsonl"])
        .args(["--faults", "bench.cell=4,slow_ms=600000"])
        .current_dir(&crashed)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn slowed fig5");
    let trace = crashed.join("trace.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while row_lines(&trace) < 3 {
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "sweep exited before its blocked cell — slow-cell fault not armed?"
        );
        assert!(Instant::now() < deadline, "no rows appeared in 60 s");
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    let rows_at_kill = row_lines(&trace);
    assert_eq!(
        rows_at_kill, 3,
        "cell four sleeps for minutes: exactly the first three rows can exist"
    );
    assert!(rows_at_kill < TOTAL_CELLS, "died mid-grid by construction");
    assert!(
        !crashed.join("results/fig5.csv").exists(),
        "a killed sweep must not leave a partial CSV (atomic rename)"
    );

    // 3. resume over the killed run's trace
    let status = fig5()
        .args(GRID)
        .args(["--resume", "trace.jsonl", "--trace-out", "trace2.jsonl"])
        .current_dir(&crashed)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn resumed fig5");
    assert!(status.success(), "resumed run failed: {status}");
    let resumed = std::fs::read(crashed.join("results/fig5.csv")).expect("resumed CSV");
    assert_eq!(
        String::from_utf8_lossy(&reference),
        String::from_utf8_lossy(&resumed),
        "resumed CSV differs from the uninterrupted run's"
    );
    assert_eq!(reference, resumed, "byte-identical, not just textually");

    // the resumed trace re-emits every recovered row, so a second
    // resume (crash during resume) would recover from it just the same
    assert_eq!(row_lines(&crashed.join("trace2.jsonl")), TOTAL_CELLS);

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn resume_refuses_a_differently_configured_trace() {
    let dir = scratch("mismatch");
    // write a trace under one grid...
    let status = fig5()
        .args(GRID)
        .args(["--trace-out", "trace.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn fig5");
    assert!(status.success());
    // ...then try to resume it under a different seed: must exit 2
    let mut other: Vec<&str> = GRID.to_vec();
    let seed_at = other.iter().position(|a| *a == "7").unwrap();
    other[seed_at] = "8";
    let out = fig5()
        .args(&other)
        .args(["--resume", "trace.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .output()
        .expect("spawn mismatched fig5");
    assert_eq!(out.status.code(), Some(2), "config mismatch must be fatal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("config_hash mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rerun_cell_of_a_partly_recovered_pair_writes_its_own_row() {
    let dir = scratch("partial");
    let status = fig5()
        .args(GRID)
        .args(["--trace-out", "trace.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn fig5");
    assert!(status.success());
    let reference = std::fs::read_to_string(dir.join("results/fig5.csv")).expect("CSV");
    let seconds = |csv: &str, algo: &str| -> String {
        let row = csv
            .lines()
            .find(|l| l.starts_with(&format!("epinion,{algo},ChDFS,")))
            .expect("ChDFS row");
        row.split(',').nth(3).unwrap().to_string()
    };

    // Keep ChDFS/NQ with a sentinel time in its row; drop ChDFS/BFS, so
    // the resumed sweep must re-run the whole ChDFS pair.
    let fresh = seconds(&reference, "NQ");
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    let partial: String = trace
        .lines()
        .filter(|l| !l.contains("epinion|BFS|ChDFS"))
        .filter(|l| {
            !(l.contains("\"kind\":\"cell\"")
                && l.contains("\"ordering\":\"ChDFS\"")
                && l.contains("\"algo\":\"BFS\""))
        })
        .map(|l| {
            if l.contains("epinion|NQ|ChDFS") {
                let planted = l.replace(
                    &format!("\"ChDFS\",\"{fresh}\""),
                    "\"ChDFS\",\"999.000000\"",
                );
                assert_ne!(planted, l, "sentinel planted");
                planted
            } else {
                l.to_string()
            }
        })
        .map(|l| l + "\n")
        .collect();
    std::fs::write(dir.join("partial.jsonl"), partial).unwrap();

    let status = fig5()
        .args(GRID)
        .args(["--resume", "partial.jsonl", "--trace-out", "trace2.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn resumed fig5");
    assert!(status.success(), "resumed run failed: {status}");
    let resumed = std::fs::read_to_string(dir.join("results/fig5.csv")).expect("resumed CSV");
    assert_eq!(seconds(&resumed, "NQ"), fresh, "the re-run cell's own time");
    assert_eq!(resumed, reference, "sim mode reproduces every row");

    // the row agrees with the re-run cell's own `cell` record
    let trace2 = std::fs::read_to_string(dir.join("trace2.jsonl")).unwrap();
    let cell = trace2
        .lines()
        .map(|l| gorder_obs::json::Fields::parse(l).unwrap())
        .find(|f| {
            f.str("kind").as_deref() == Ok("cell")
                && f.str("ordering").as_deref() == Ok("ChDFS")
                && f.str("algo").as_deref() == Ok("NQ")
        })
        .expect("ChDFS/NQ cell record");
    assert_eq!(format!("{:.6}", cell.f64("seconds").unwrap()), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}
