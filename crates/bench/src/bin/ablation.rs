//! Ablation study (DESIGN.md §8): does the paper's quality function
//! predict runtime, and how close do cheap skew-aware orderings
//! (HubSort / HubCluster / DBG, from the follow-on literature the paper's
//! discussion cites) get to Gorder?
//!
//! For every ordering — the paper's ten plus the three extensions — on
//! one social and one web dataset, reports: ordering computation time,
//! PageRank runtime, simulated L1 miss rate, the Gorder objective `F(π)`,
//! mean edge span, and bandwidth.

use gorder_bench::fmt::{write_csv, Table};
use gorder_bench::timing::{median_secs, pretty_secs, time_once};
use gorder_bench::{load_resume, resolve_ordering, resolve_orderings, HarnessArgs, SweepTrace};
use gorder_cachesim::trace::pagerank as traced_pr;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder_core::budget::ExecOutcome;
use gorder_core::score::{bandwidth_of, f_score_of};
use gorder_engine::{run_by_name, KernelCtx};
use gorder_graph::datasets::{self, Dataset};
use gorder_graph::locality::mean_edge_span;
use gorder_obs::{CellEvent, PhaseEvent, TraceEvent};
use gorder_orders::{CacheKey, OrderCache};
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    if let Some(spec) = &args.faults {
        if let Err(e) = gorder_obs::faults::arm_from_spec(spec) {
            eprintln!("error: --faults {e}");
            std::process::exit(2);
        }
    }
    let ctx = KernelCtx {
        pr_iterations: if args.quick { 5 } else { 50 },
        ..Default::default()
    };
    let tctx = KernelCtx {
        pr_iterations: if args.quick { 2 } else { 5 },
        ..Default::default()
    };
    let mut csv_rows = Vec::new();
    let timeout = args.cell_timeout_duration();
    // Unknown dataset names, and datasets outside the study's pair, fail
    // before any graph is built.
    let datasets = ablation_datasets(args.datasets.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: --datasets: {e}");
        std::process::exit(2)
    });
    // Unknown ordering names fail before any graph is built; known ones
    // match case-insensitively.
    let orderings = resolve_orderings(&args.orderings, true, args.seed).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let cache = args.order_cache.as_ref().map(|dir| {
        OrderCache::new(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: --order-cache {dir}: {e}");
            std::process::exit(2)
        })
    });
    let resume = load_resume("ablation", &args);
    // --trace-out streams one `phase` line per ordering construction,
    // one `cell` line per PageRank row, and one verbatim `row` line per
    // CSV row, flushed as each lands.
    let mut trace = SweepTrace::open("ablation", &args);
    for d in datasets {
        let g = Arc::new(d.build(args.scale));
        println!(
            "Ablation on {} ({}, n = {}, m = {})\n",
            d.name,
            d.category,
            g.n(),
            g.m()
        );
        let mut t = Table::new([
            "Ordering",
            "order time",
            "PR time",
            "L1-mr",
            "F(pi)/m",
            "mean span",
            "bandwidth",
        ]);
        for o in &orderings {
            // Recovery first: a row whose PR `cell` line completed and
            // whose verbatim `row` line survived is replayed without
            // recomputing the ordering or any metric. The ordering's
            // `phase` line is deliberately not re-emitted — no ordering
            // was computed in this process.
            let key = format!("{}|{}", d.name, o.name());
            let recovered = resume.as_ref().and_then(|s| {
                let c = s.completed_cell(d.name, o.name(), "PR")?;
                Some((c, s.row("ablation.csv", &key)?.to_vec()))
            });
            if let Some((rec, row)) = recovered {
                trace.event(&TraceEvent::Cell(CellEvent {
                    dataset: d.name.to_string(),
                    ordering: o.name().to_string(),
                    algo: "PR".to_string(),
                    status: "completed".to_string(),
                    seconds: rec.seconds,
                    checksum: rec.checksum,
                }));
                trace.row("ablation.csv", &key, &row);
                let num = |i: usize| row[i].parse::<f64>().unwrap_or(f64::NAN);
                t.row([
                    o.name().to_string(),
                    pretty_secs(num(2)),
                    pretty_secs(num(3)),
                    format!("{:.1}%", num(4) * 100.0),
                    format!("{:.2}", num(5)),
                    format!("{:.0}", num(6)),
                    row[7].clone(),
                ]);
                csv_rows.push(row);
                eprintln!("[ablation] {} on {} recovered", o.name(), d.name);
                continue;
            }
            // Guarded: a misbehaving ordering loses its row, not the run.
            // With --order-cache a previously completed permutation is
            // loaded rather than recomputed (the `order` line records
            // `cache_hit`).
            // the key (a graph digest) is built inside the timed call,
            // as the published order times always included it
            let (order_secs, (outcome, order_ev)) = time_once(|| {
                let key = CacheKey::for_ordering(&g, o.as_ref(), args.seed);
                resolve_ordering(o, &g, &key, d.name, timeout, cache.as_ref())
            });
            trace.order(&order_ev);
            let skipped_cell = |status: &str| {
                TraceEvent::Cell(CellEvent {
                    dataset: d.name.to_string(),
                    ordering: o.name().to_string(),
                    algo: "PR".to_string(),
                    status: status.to_string(),
                    seconds: f64::NAN,
                    checksum: 0,
                })
            };
            let (perm, status) = match outcome {
                ExecOutcome::Completed(p) => (p, "completed"),
                ExecOutcome::Degraded(p, reason) => {
                    eprintln!("[ablation] {} on {} degraded: {reason}", o.name(), d.name);
                    (p, "degraded")
                }
                ExecOutcome::TimedOut => {
                    eprintln!(
                        "[ablation] {} on {} timed out — row skipped",
                        o.name(),
                        d.name
                    );
                    trace.event(&skipped_cell("timed-out"));
                    continue;
                }
                ExecOutcome::Failed(msg) => {
                    eprintln!(
                        "[ablation] {} on {} failed: {msg} — row skipped",
                        o.name(),
                        d.name
                    );
                    trace.event(&skipped_cell("failed"));
                    continue;
                }
            };
            trace.event(&TraceEvent::Phase(PhaseEvent {
                name: format!("order.{}.{}", d.name, o.name()),
                seconds: order_secs,
            }));
            let rg = g.relabel(&perm);
            let (pr_secs, pr_checksum) = median_secs(
                || {
                    run_by_name("PR", &rg, &ctx)
                        .expect("PR is an engine kernel")
                        .checksum
                },
                args.reps,
            );
            trace.event(&TraceEvent::Cell(CellEvent {
                dataset: d.name.to_string(),
                ordering: o.name().to_string(),
                algo: "PR".to_string(),
                status: status.to_string(),
                seconds: pr_secs,
                checksum: pr_checksum,
            }));
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            traced_pr(&rg, &mut tracer, &tctx);
            let l1_mr = tracer.stats().l1_miss_rate;
            // F is O(n·w·deg): affordable at harness scale, skip if huge
            let f = if g.n() <= 200_000 {
                f_score_of(&g, &perm, 5) as f64 / g.m() as f64
            } else {
                f64::NAN
            };
            let span = mean_edge_span(&rg);
            let bw = bandwidth_of(&g, &perm);
            t.row([
                o.name().to_string(),
                pretty_secs(order_secs),
                pretty_secs(pr_secs),
                format!("{:.1}%", l1_mr * 100.0),
                format!("{f:.2}"),
                format!("{span:.0}"),
                bw.to_string(),
            ]);
            let row = vec![
                d.name.to_string(),
                o.name().to_string(),
                format!("{order_secs:.6}"),
                format!("{pr_secs:.6}"),
                format!("{l1_mr:.5}"),
                format!("{f:.4}"),
                format!("{span:.1}"),
                bw.to_string(),
            ];
            // the verbatim row line is what a later --resume replays
            trace.row("ablation.csv", &key, &row);
            csv_rows.push(row);
            eprintln!("[ablation] {} on {} done", o.name(), d.name);
        }
        t.print();
        println!();
    }
    println!("(expect: higher F(pi)/m and lower span track lower L1-mr and faster PR;");
    println!(" HubSort/HubCluster/DBG land between InDegSort and Gorder at ~InDegSort cost)");
    match write_csv(
        "ablation.csv",
        &[
            "dataset",
            "ordering",
            "order_seconds",
            "pr_seconds",
            "l1_mr",
            "f_per_edge",
            "mean_span",
            "bandwidth",
        ],
        &csv_rows,
    ) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    trace.finish();
}

/// The datasets the study runs on: one social and one web graph.
const ABLATION_DATASETS: [&str; 2] = ["flickr", "pldarc"];

/// The datasets `--datasets` selects, in [`ABLATION_DATASETS`] order
/// (both when it is absent). Every name must be a known dataset and one
/// of those two; otherwise the error names it, before any graph is built.
fn ablation_datasets(names: Option<&[String]>) -> Result<Vec<Dataset>, String> {
    for n in names.unwrap_or_default() {
        let d = datasets::by_name(n).ok_or_else(|| format!("unknown dataset {n:?}"))?;
        if !ABLATION_DATASETS.contains(&d.name) {
            return Err(format!(
                "ablation runs on {ABLATION_DATASETS:?} only, not {n:?}"
            ));
        }
    }
    Ok(ABLATION_DATASETS
        .into_iter()
        .filter(|a| names.is_none_or(|keep| keep.iter().any(|n| n == a)))
        .map(|a| datasets::by_name(a).expect("ablation datasets are recipes"))
        .collect())
}
