//! The cache-simulator replays must *be* the algorithms: for every
//! engine kernel, the replay through the tracing probe returns the same
//! checksum as the unprobed wall-clock run, on multiple graphs and under
//! multiple orderings, and the extension kernels' replays keep their
//! committed cache counters. This is what licenses reading the
//! simulator's counters as "the algorithm's cache behaviour".

use gorder::cachesim::trace::replay;
use gorder::cachesim::{CacheHierarchy, HierarchyConfig, Tracer};
use gorder::engine::{kernel_names, EXTENSION_KERNELS};
use gorder::prelude::*;

fn graphs() -> Vec<Graph> {
    vec![
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (4, 5)]),
        gorder::graph::datasets::epinion_like().build(0.06),
        gorder::graph::gen::copying_model(300, 5, 0.6, 9),
    ]
}

fn context(seed: u64) -> KernelCtx {
    KernelCtx {
        source: None,
        pr_iterations: 7,
        damping: 0.85,
        diameter_samples: 3,
        seed,
    }
}

fn traced(name: &str, g: &Graph, ctx: &KernelCtx) -> u64 {
    let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
    replay(name, g, &mut tracer, ctx).unwrap()
}

#[test]
fn replayers_match_algorithms_on_plain_graphs() {
    let ctx = context(5);
    for (gi, g) in graphs().iter().enumerate() {
        for name in kernel_names() {
            let expected = run_by_name(name, g, &ctx).unwrap().checksum;
            assert_eq!(
                traced(name, g, &ctx),
                expected,
                "{name} diverges on graph {gi}"
            );
        }
    }
}

#[test]
fn replayers_match_algorithms_under_reordering() {
    let g = gorder::graph::datasets::epinion_like().build(0.05);
    let mut ctx = context(8);
    let logical = g.max_degree_node().unwrap();
    for ordering in ["Random", "RCM", "Gorder"] {
        let perm = gorder::orders::by_name(ordering, 2).unwrap().compute(&g);
        let rg = g.relabel(&perm);
        ctx.source = Some(perm.apply(logical));
        for name in kernel_names().into_iter().chain(EXTENSION_KERNELS) {
            let expected = run_by_name(name, &rg, &ctx).unwrap().checksum;
            assert_eq!(
                traced(name, &rg, &ctx),
                expected,
                "{name} diverges under {ordering}"
            );
        }
    }
}

#[test]
fn extension_replayers_match_algorithms() {
    let ctx = context(3);
    for (gi, g) in graphs().iter().enumerate() {
        for name in EXTENSION_KERNELS {
            let expected = run_by_name(name, g, &ctx).unwrap().checksum;
            assert_eq!(
                traced(name, g, &ctx),
                expected,
                "{name} diverges on graph {gi}"
            );
        }
    }
}

fn extension_counters_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/extension_counters.txt")
}

/// One line per (graph, layout, extension algorithm): the replay's
/// checksum, data references, misses per cache level and counted ops.
fn render_extension_counters() -> String {
    let ctx = context(3);
    let mut out = String::new();
    for (gi, g) in graphs().iter().enumerate() {
        let perm = gorder::orders::by_name("Gorder", 2).unwrap().compute(g);
        for (layout, lg) in [("Original", g.clone()), ("Gorder", g.relabel(&perm))] {
            for name in EXTENSION_KERNELS {
                let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
                let checksum = replay(name, &lg, &mut tracer, &ctx).unwrap();
                let c = tracer.counters();
                let misses: Vec<String> = c.level_misses.iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "g{gi} {layout} {name} checksum={checksum} refs={} misses={} ops={}\n",
                    c.refs,
                    misses.join("/"),
                    c.ops
                ));
            }
        }
    }
    out
}

/// The extension replays (WCC, Tri, LP, BC) keep the checksums and cache
/// counters committed in `tests/golden/extension_counters.txt`: a change
/// to their loops that moves a single reference shows up here.
///
/// Regenerate (only when a replay is *intentionally* changed) with
/// `GORDER_UPDATE_GOLDENS=1 cargo test --test replayer_equivalence`.
#[test]
fn extension_replays_match_golden_counters() {
    let current = render_extension_counters();
    let path = extension_counters_path();
    if std::env::var_os("GORDER_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &current).expect("write golden counters");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (got, expect) in current.lines().zip(want.lines()) {
        assert_eq!(got, expect, "extension replay drifted from its golden");
    }
    assert_eq!(current.lines().count(), want.lines().count());
}

/// The simulator actually exercises deeper levels on a graph bigger than
/// its scaled-down L1.
#[test]
fn replays_produce_plausible_cache_traffic() {
    let g = gorder::graph::datasets::epinion_like().build(0.3);
    let ctx = context(1);
    for name in kernel_names().into_iter().chain(EXTENSION_KERNELS) {
        let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
        replay(name, &g, &mut tracer, &ctx).unwrap();
        let s = tracer.stats();
        assert!(s.l1_refs > u64::from(g.n()), "{name}: too few references");
        assert!(s.l1_miss_rate > 0.0, "{name}: suspiciously perfect L1");
        assert!(s.l1_miss_rate < 0.9, "{name}: suspiciously terrible L1");
        assert!(
            s.cache_miss_rate <= s.l1_miss_rate,
            "{name}: level filter inverted"
        );
    }
}
