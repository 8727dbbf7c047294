//! Differential test of the front ends that run a kernel by name. For
//! every kernel under no ordering, Gorder and RCM, the engine over the
//! relabelled graph, the CLI library and an in-process daemon must
//! report one checksum, on the wall clock and through the cache model
//! alike (and, modelled, one cache profile); and the relabel-invariant
//! kernels must report it under every ordering.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use gorder_cachesim::outcome::kernel_labels;
use gorder_cachesim::trace::replay_with_stats;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, Measure, Tracer};
use gorder_cli::run_algorithm_budgeted;
use gorder_engine::{run_by_name, KernelCtx};
use gorder_graph::{datasets, Graph};
use gorder_serve::client::{call, RetryPolicy};
use gorder_serve::protocol::{Request, WorkSpec};
use gorder_serve::server::{Server, ServerConfig};

const DATASET: &str = "wiki";
const SCALE: f64 = 0.02;
const SEED: u64 = 3;
const ORDERINGS: [Option<&str>; 3] = [None, Some("Gorder"), Some("RCM")];
/// The sourceless kernels whose checksums hash relabel-invariant
/// quantities (see `tests/engine_props.rs`).
const INVARIANT: [&str; 5] = ["NQ", "SCC", "Kcore", "WCC", "Tri"];

/// `g` in the layout `ordering` gives it.
fn layout(g: &Graph, ordering: Option<&str>) -> Graph {
    match ordering {
        None => g.clone(),
        Some(name) => {
            let o = gorder_orders::ordering_by_name(name, 5, SEED).unwrap();
            g.relabel(&o.compute(g))
        }
    }
}

/// Stops the daemon when dropped, so a failed assertion cannot leave
/// the scope waiting on it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn engine_cli_and_daemon_agree_on_every_checksum() {
    let g = datasets::by_name(DATASET).unwrap().build(SCALE);
    let server = Server::bind(ServerConfig {
        datasets: vec![DATASET.to_string()],
        scale: SCALE,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = AtomicBool::new(false);
    let served = |req: Request| {
        let (reply, _) = call(&addr, &req, &RetryPolicy::default()).unwrap();
        let checksum = reply.checksum.expect("work replies carry a checksum");
        (checksum, reply.report)
    };
    let spec = |ordering: Option<&str>, algo: &str| WorkSpec {
        dataset: DATASET.to_string(),
        ordering: ordering.map(str::to_string),
        algo: Some(algo.to_string()),
        window: 5,
        seed: SEED,
        timeout_ms: None,
        threads: 2,
    };
    let wall_ctx = KernelCtx {
        seed: SEED,
        ..Default::default()
    };
    let sim_ctx = KernelCtx {
        pr_iterations: 5,
        diameter_samples: 4,
        seed: SEED,
        ..Default::default()
    };
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run(&shutdown));
        let stop = StopOnDrop(&shutdown);
        // (kernel, measure) → the checksum under each ordering.
        let mut seen: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
        for ordering in ORDERINGS {
            let h = layout(&g, ordering);
            for algo in kernel_labels() {
                let case = format!("{algo} over {ordering:?}");
                let cli = |measure| {
                    run_algorithm_budgeted(&g, algo, ordering, 5, SEED, None, measure)
                        .unwrap_or_else(|e| panic!("{case}: {e}"))
                };

                let engine = run_by_name(algo, &h, &wall_ctx).unwrap().checksum;
                let run = (
                    cli(Measure::Wall { threads: 1 }).outcome.checksum,
                    served(Request::Run(spec(ordering, algo))).0,
                );
                assert_eq!(run, (engine, engine), "run {case}: (cli, serve) vs engine");
                seen.entry((algo, "run")).or_default().push(engine);

                let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
                let replayed = replay_with_stats(algo, &h, &mut tracer, &sim_ctx)
                    .unwrap()
                    .0;
                let cli_sim = cli(Measure::Modelled);
                let (served_sim, served_report) = served(Request::Simulate(spec(ordering, algo)));
                assert_eq!(
                    (cli_sim.outcome.checksum, served_sim),
                    (replayed, replayed),
                    "simulate {case}: (cli, serve) vs replay"
                );
                // Both reports name the layout alike and print the one
                // cache profile, which carries no timing.
                assert_eq!(served_report, cli_sim.report(), "simulate {case}");
                seen.entry((algo, "simulate")).or_default().push(replayed);
            }
        }
        for ((algo, measure), checksums) in &seen {
            if INVARIANT.contains(algo) {
                assert!(
                    checksums.iter().all(|&c| c == checksums[0]),
                    "{measure} {algo} is relabel-invariant: {checksums:?}"
                );
            }
        }
        drop(stop);
        let summary = daemon.join().unwrap().expect("drain");
        assert_eq!(summary.accepted, summary.answered, "{summary:?}");
    });
}
