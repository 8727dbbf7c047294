//! `gorder-perfbench` — the repository benchmark.
//!
//! The binary is a thin shell over [`main`]; the declaration ([`decl`])
//! and the result-line format ([`json`]) are public for the smoke test.
//!
//! ```text
//! gorder-perfbench run [--seed N] [--seconds S] [--workloads A,B] [--smoke]
//!                      [--trace DIR] [--repeat N --out DIR] [--serve-bin PATH]
//! gorder-perfbench bench --workload W --seed N --seconds S --trace 0|1|DIR
//!                        [--smoke] [--serve-bin PATH]
//! gorder-perfbench spread DIR [DIR2]
//! ```
//!
//! `run` runs each workload in a fresh child process (`bench`) and prints
//! every metric as `workload metric value unit`. `bench` runs one
//! workload and ends its output with the one-line JSON result. `spread`
//! summarises run files written by `run --out`. See README.md.
//!
//! `run --trace` always names a directory. `bench --trace` takes the 0|1
//! of BENCHMARK.json's command, or a directory for the span files; `run`
//! passes its directory as an absolute path, which is never `0` or `1`.

pub mod decl;
pub mod json;
mod layers;
mod manifest;
mod measure;
mod serve;
mod spread;
mod workloads;

use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use gorder_obs::json::JsonObject;

use decl::Decl;
use json::Metric;
use manifest::Host;
use measure::Rec;
use workloads::Params;

/// Kernel checksums (and the Gorder permutation digest) for seed 42 at
/// full scale, as `pin <workload> <label> <layout> 0x<hex>` lines.
const PINS: &str = include_str!("../pins.txt");
const PINNED_SEED: u64 = 42;

const USAGE: &str = "usage:
  gorder-perfbench run [--seed N] [--seconds S] [--workloads A,B] [--smoke]
                       [--trace DIR] [--repeat N --out DIR] [--serve-bin PATH]
  gorder-perfbench bench --workload W --seed N --seconds S --trace 0|1|DIR
                         [--smoke] [--serve-bin PATH]
  gorder-perfbench spread DIR [DIR2]";

/// Runs the command line `args` (without the program name).
pub fn main(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("bench") => Flags::parse(&args[1..]).and_then(|f| bench(&f)),
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        Some("spread") if (2..=3).contains(&args.len()) => spread::report(
            &Decl::load(),
            Path::new(&args[1]),
            args.get(2).map(Path::new),
        ),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gorder-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line flags shared by `run` and `bench`.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    workloads: Option<Vec<String>>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace` as given; `bench` and `run` read it differently.
    trace: Option<String>,
    smoke: bool,
    repeat: Option<u64>,
    out: Option<PathBuf>,
    serve_bin: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                f.smoke = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let num = |what: &str| -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("{what} must be a non-negative number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => f.workload = Some(value.clone()),
                "--workloads" => f.workloads = Some(value.split(',').map(str::to_string).collect()),
                "--seed" => {
                    f.seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => f.seconds = Some(num("--seconds")?),
                "--repeat" => f.repeat = Some(num("--repeat")? as u64),
                "--trace" => f.trace = Some(value.clone()),
                "--out" => f.out = Some(PathBuf::from(value)),
                "--serve-bin" => f.serve_bin = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        Ok(f)
    }
}

/// Runs one workload in this process; prints its lines and the result.
fn bench(f: &Flags) -> Result<bool, String> {
    let decl = Decl::load();
    let name = f.workload.clone().ok_or("bench needs --workload")?;
    if !decl.workloads.contains(&name) {
        return Err(format!(
            "unknown workload {name:?}; known: {:?}",
            decl.workloads
        ));
    }
    let seed = f.seed.ok_or("bench needs --seed")?;
    let (trace, trace_dir) = match f.trace.as_deref() {
        None | Some("0") => (false, None),
        Some("1") => (true, None),
        Some(dir) => (true, Some(PathBuf::from(dir))),
    };
    let host = Host::probe();
    for (k, v) in host.fields(seed) {
        println!("manifest {k} {v}");
    }
    // Scratch space below the working directory, removed again at the end.
    let scratch = Path::new(".perfbench");
    let work = scratch.join(format!("work-{}", std::process::id()));
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let p = Params {
        seed,
        seconds: f.seconds.unwrap_or(decl.run_seconds),
        smoke: f.smoke,
        serve_bin: f.serve_bin.clone(),
        work: work.clone(),
        trace_dir: trace_dir.clone(),
        host,
    };
    let mut rec = Rec::new(trace);
    let outcome = workloads::run(&name, &p, &mut rec);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(scratch); // only if no other run uses it
    outcome?;
    if let Some(dir) = &trace_dir {
        let path = dir.join(format!("{name}.spans.jsonl"));
        rec.write_spans(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if seed == PINNED_SEED && !f.smoke {
        check_pins(&mut rec, &name);
    }

    let mut emitted = Vec::new();
    let declared = if trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    for m in declared {
        match rec.metric(&m.name).filter(|v| v.is_finite()) {
            Some(value) => emitted.push(Metric {
                name: m.name.clone(),
                value,
                unit: m.unit.clone(),
            }),
            None => rec.check(false, || format!("declared metric {} has no value", m.name)),
        }
    }
    let print = |metric: &str, value: f64, unit: &str| println!("{name} {metric} {value} {unit}");
    for m in &decl.end_to_end {
        if let Some(v) = rec.metric(&m.name) {
            print(&m.name, v, &m.unit);
        }
    }
    if trace {
        for m in &emitted {
            print(&m.name, m.value, &m.unit);
        }
    }
    for e in &rec.extras {
        print(&e.name, e.value, e.unit);
    }
    for (key, v) in rec.checksums() {
        println!("pin {name} {key} {v:#x}");
    }
    let correct = rec.failed == 0;
    println!(
        "{}",
        json::result_line(correct, rec.attempted, rec.failed, &emitted)
    );
    Ok(correct)
}

/// Compares this run's checksums with the pinned ones, both ways.
fn check_pins(rec: &mut Rec, workload: &str) {
    let pinned: BTreeMap<String, u64> = PINS
        .lines()
        .filter_map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            match w.as_slice() {
                ["pin", wl, label, layout, hex] if *wl == workload => {
                    let v = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
                    Some((format!("{label} {layout}"), v))
                }
                _ => None,
            }
        })
        .collect();
    let produced = rec.checksums().clone();
    for (key, v) in &produced {
        let want = pinned.get(key).copied();
        rec.check(want == Some(*v), || {
            format!("checksum {key} is {v:#x}; pins.txt has {want:x?}")
        });
    }
    for key in pinned.keys().filter(|k| !produced.contains_key(*k)) {
        rec.check(false, || format!("pinned checksum {key} was not produced"));
    }
}

/// One child's parsed output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, value, unit)` from the child's lines.
    lines: Vec<(String, f64, String)>,
}

impl ChildRun {
    fn get(&self, metric: &str) -> Option<f64> {
        self.lines
            .iter()
            .find(|(m, _, _)| m == metric)
            .map(|(_, v, _)| *v)
    }
}

/// Runs `bench` for one workload in a child process, traced into
/// `trace_dir` (an absolute path) if one is given.
fn child(
    f: &Flags,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&Path>,
) -> Result<ChildRun, String> {
    let traced = trace_dir.is_some();
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", workload, "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--trace")
        .arg(trace_dir.map_or(OsStr::new("0"), Path::as_os_str))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if f.smoke {
        cmd.arg("--smoke");
    }
    if let Some(bin) = &f.serve_bin {
        cmd.arg("--serve-bin").arg(bin);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let (correct, attempted, failed, _) = json::parse_result_line(last)
        .map_err(|e| format!("{workload} printed no result ({}): {e}", out.status))?;
    let mut lines = Vec::new();
    for line in stdout.lines() {
        let w: Vec<&str> = line.split_whitespace().collect();
        match w.as_slice() {
            // The traced child's checksums are the same; print them once.
            ["pin", ..] if !traced => println!("{line}"),
            [wl, metric, value, unit] if *wl == workload => {
                if let Ok(v) = value.parse::<f64>() {
                    lines.push((metric.to_string(), v, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    Ok(ChildRun {
        correct: correct && out.status.success(),
        attempted,
        failed,
        lines,
    })
}

/// Runs the workloads as children and prints every metric.
fn run(f: &Flags) -> Result<bool, String> {
    let decl = Decl::load();
    let seed = f.seed.unwrap_or(PINNED_SEED);
    let seconds = f.seconds.unwrap_or(decl.run_seconds);
    let names = f
        .workloads
        .clone()
        .unwrap_or_else(|| decl.workloads.clone());
    if let Some(bad) = names.iter().find(|n| !decl.workloads.contains(n)) {
        return Err(format!(
            "unknown workload {bad:?}; known: {:?}",
            decl.workloads
        ));
    }
    if f.repeat.is_some() != f.out.is_some() {
        return Err("--repeat and --out go together".into());
    }
    let trace_dir = (f.trace.as_ref().map(std::path::absolute).transpose())
        .map_err(|e| format!("--trace: {e}"))?;
    let host = Host::probe();
    let manifest = host.fields(seed);
    for (k, v) in &manifest {
        println!("manifest {k} {v}");
    }
    let mut all_correct = true;
    for rep in 0..f.repeat.unwrap_or(1) {
        let mut records = vec![manifest_record(&manifest, seconds, f.smoke)];
        for name in &names {
            let plain = child(f, name, seed, seconds, None)?;
            let mut runs = vec![("", &plain)];
            let traced = match &trace_dir {
                Some(dir) => Some(child(f, name, seed, seconds, Some(dir))?),
                None => None,
            };
            if let Some(t) = &traced {
                runs.push(("traced.", t));
            }
            for (prefix, r) in &runs {
                for (metric, value, unit) in &r.lines {
                    println!("{name} {prefix}{metric} {value} {unit}");
                    records.push(metric_record(
                        name,
                        &format!("{prefix}{metric}"),
                        *value,
                        unit,
                    ));
                }
            }
            if let (Some(t), Some(a)) = (&traced, plain.get("op_ms")) {
                let overhead = t.get("op_ms").unwrap_or(f64::NAN) / a - 1.0;
                println!("{name} trace_overhead {overhead} ratio");
                records.push(metric_record(name, "trace_overhead", overhead, "ratio"));
            }
            for (prefix, r) in runs {
                let rate = r.failed as f64 / r.attempted.max(1) as f64;
                println!("{name} {prefix}error_rate {rate} fraction");
                println!("{name} {prefix}correct {} bool", u8::from(r.correct));
                records.push(
                    JsonObject::new()
                        .str("kind", "result")
                        .str("workload", name)
                        .bool("traced", !prefix.is_empty())
                        .bool("correct", r.correct)
                        .u64("attempted", r.attempted)
                        .u64("failed", r.failed)
                        .finish(),
                );
                all_correct &= r.correct;
            }
        }
        if let Some(dir) = &f.out {
            let path = spread::write_run_file(dir, &records)?;
            eprintln!(
                "gorder-perfbench: run {} of {} written to {}",
                rep + 1,
                f.repeat.unwrap_or(1),
                path.display()
            );
        }
    }
    Ok(all_correct)
}

fn manifest_record(fields: &[(&str, String)], seconds: f64, smoke: bool) -> String {
    let mut o = JsonObject::new().str("kind", "manifest");
    for (k, v) in fields {
        o = o.str(k, v);
    }
    o.f64("seconds", seconds).bool("smoke", smoke).finish()
}

fn metric_record(workload: &str, metric: &str, value: f64, unit: &str) -> String {
    JsonObject::new()
        .str("kind", "metric")
        .str("workload", workload)
        .str("name", metric)
        .f64("value", value)
        .str("unit", unit)
        .finish()
}
