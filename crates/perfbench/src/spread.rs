//! Run files (`run --repeat N --out DIR`) and the `spread` report over
//! one or two directories of them.
//!
//! A run file is one JSON array with one flat object per line: a
//! `manifest`, then a `metric` per (workload, metric), then a `result`
//! per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gorder_bench::stats::paired_stats;

use crate::decl::Decl;
use crate::json::Json;
use crate::measure::{median, quantile};

/// Writes `records` as the next free `run-NNN.json` in `dir`.
pub fn write_run_file(dir: &Path, records: &[String]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = (1..)
        .map(|i| dir.join(format!("run-{i:03}.json")))
        .find(|p| !p.exists())
        .expect("some index is free");
    let body = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// (workload, metric) → (unit, one value per run file, in file order).
type Set = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no run files", dir.display()));
    }
    let mut set = Set::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for rec in doc.as_arr() {
            if rec.get("kind").and_then(Json::as_str) != Some("metric") {
                continue;
            }
            let (Ok(w), Ok(m), Ok(unit)) = (
                rec.str_at("workload"),
                rec.str_at("name"),
                rec.str_at("unit"),
            ) else {
                return Err(format!("{}: malformed metric record", path.display()));
            };
            // Non-finite values (a kernel that never breaks even) are
            // written as null and left out.
            if let Ok(v) = rec.num_at("value") {
                let e = set
                    .entry((w.to_string(), m.to_string()))
                    .or_insert((unit.to_string(), Vec::new()));
                e.1.push(v);
            }
        }
    }
    Ok(set)
}

/// Interquartile range over the median, as a share (0 when all agree).
fn iqr_share(xs: &[f64]) -> f64 {
    let iqr = quantile(xs, 3, 4) - quantile(xs, 1, 4);
    if iqr == 0.0 {
        0.0
    } else {
        iqr / median(xs)
    }
}

/// Largest over smallest, minus 1 (0 when all agree).
fn max_min_share(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    if max == min {
        0.0
    } else {
        max / min - 1.0
    }
}

/// Prints the spread of one set, or the comparison of two. Returns false
/// when an end-to-end metric's spread or set-to-set worsening exceeds its
/// bound, or a declared count differs between runs.
pub fn report(decl: &Decl, a: &Path, b: Option<&Path>) -> Result<bool, String> {
    let sa = load_set(a)?;
    let sb = b.map(load_set).transpose()?;
    let mut clean = true;
    println!(
        "{:<12} {:<34} {:>9} {:>3} {:>14} {:>7} {:>8} {:>6}  flags",
        "workload", "metric", "unit", "n", "median", "iqr%", "max/min%", "bound%"
    );
    for ((w, m), (unit, xs)) in &sa {
        let bound = decl.metric(m).and_then(|d| d.bound);
        // Declared counts must repeat exactly, traced or not; undeclared
        // ones (requests served in the window) may vary.
        let declared = decl.metric(m.strip_prefix("traced.").unwrap_or(m));
        let exact = unit == "count" && declared.is_some();
        let mut flags = Vec::new();
        let spread = iqr_share(xs);
        if bound.is_some_and(|bd| spread > bd) {
            flags.push("SPREAD>BOUND");
        }
        if exact && xs.iter().any(|x| *x != xs[0]) {
            flags.push("COUNT-VARIES");
        }
        let mut versus = String::new();
        if let Some((_, ys)) = sb.as_ref().and_then(|s| s.get(&(w.clone(), m.clone()))) {
            let higher_better = declared.is_some_and(|d| d.higher_is_better);
            let delta = median(ys) / median(xs) - 1.0;
            let worse = if higher_better { -delta } else { delta };
            if bound.is_some_and(|bd| worse > bd) {
                flags.push("WORSE>BOUND");
            }
            if exact && ys.iter().any(|y| *y != xs[0]) {
                flags.push("COUNT-DIFFERS");
            }
            // Run i of each set pairs up (same seed, same position).
            let n = xs.len().min(ys.len());
            let paired = paired_stats(&xs[..n], &ys[..n]);
            versus = format!(
                " set2 median {:.6} ({:+.2}%; paired {:+.2}%, sign p {:.3})",
                median(ys),
                delta * 100.0,
                paired.delta_pct(),
                paired.sign_p
            );
        }
        clean &= flags.is_empty();
        println!(
            "{:<12} {:<34} {:>9} {:>3} {:>14.6} {:>7.2} {:>8.2} {:>6}  {}{versus}",
            w,
            m,
            unit,
            xs.len(),
            median(xs),
            spread * 100.0,
            max_min_share(xs) * 100.0,
            bound.map_or("-".to_string(), |bd| format!("{:.0}", bd * 100.0)),
            flags.join(" ")
        );
    }
    Ok(clean)
}
