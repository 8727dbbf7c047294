//! Property-based tests for the kernel execution engine: every kernel
//! run through [`gorder_engine::run_by_name`] must produce
//! relabeling-invariant results (checksums where the underlying quantity
//! is invariant, structural properties where it is not), whatever the
//! execution plan, and the WCC kernel must find the same partition as an
//! independent union–find.

use gorder::prelude::*;
use gorder_engine::{run_by_name_plan, ExecPlan, EXTENSION_KERNELS};
use proptest::prelude::*;

/// Strategy: a directed graph with up to `max_n` nodes and `max_m` edges.
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Strategy: a valid permutation of n elements from a shuffle seed.
fn arb_perm(n: u32, seed: u64) -> Permutation {
    use rand::SeedableRng;
    Permutation::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// A fast context for property runs: few PR iterations, few Diam samples.
fn quick_ctx(source: Option<u32>) -> KernelCtx {
    KernelCtx {
        source,
        pr_iterations: 5,
        diameter_samples: 2,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Kernels whose checksums hash relabeling-invariant quantities must
    // return bit-identical checksums on an isomorphic copy (with the
    // source mapped through the permutation for the rooted traversals).
    #[test]
    fn integer_kernels_invariant_under_relabel(g in arb_graph(60, 200), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = g.max_degree_node().unwrap_or(0);
        let ctx_g = quick_ctx(Some(src));
        let ctx_h = quick_ctx(Some(p.apply(src)));
        for name in ["NQ", "BFS", "SP", "SCC", "Kcore", "WCC", "Tri"] {
            let rg = run_by_name(name, &g, &ctx_g).expect("engine kernel");
            let rh = run_by_name(name, &h, &ctx_h).expect("engine kernel");
            prop_assert_eq!(rg.checksum, rh.checksum, "{} checksum not invariant", name);
        }
    }

    // PageRank values (floating point, so not hashed exactly) must map
    // through the permutation up to accumulated rounding error.
    #[test]
    fn pagerank_values_map_through_relabel(g in arb_graph(50, 150), seed in any::<u64>()) {
        use gorder_engine::kernels::pagerank::pagerank;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let rg = pagerank(&g, 30, 0.85);
        let rh = pagerank(&h, 30, 0.85);
        for u in g.nodes() {
            let a = rg.rank[u as usize];
            let b = rh.rank[p.apply(u) as usize];
            prop_assert!((a - b).abs() < 1e-9, "node {}: {} vs {}", u, a, b);
        }
    }

    // Diameter from explicitly mapped sources is an integer quantity and
    // must be exactly invariant (the seeded sampler picks by node id, so
    // invariance only holds when the sources are pinned).
    #[test]
    fn diameter_invariant_with_mapped_sources(g in arb_graph(50, 150), seed in any::<u64>()) {
        use gorder_engine::kernels::diameter::diameter_from_sources;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let sources: Vec<u32> = (0..g.n()).step_by(7).collect();
        let mapped: Vec<u32> = sources.iter().map(|&u| p.apply(u)).collect();
        let dg = diameter_from_sources(&g, &sources);
        let dh = diameter_from_sources(&h, &mapped);
        prop_assert_eq!(dg.lower_bound, dh.lower_bound);
    }

    // DFS discovery order is id-dependent, so its checksum is not
    // invariant — but the traversal must stay deterministic and scan
    // every edge exactly once on any relabeling.
    #[test]
    fn dfs_deterministic_and_scans_every_edge(g in arb_graph(60, 200), seed in any::<u64>()) {
        let p = arb_perm(g.n(), seed);
        let ctx = quick_ctx(None);
        for graph in [&g, &g.relabel(&p)] {
            let a = run_by_name("DFS", graph, &ctx).expect("engine kernel");
            let b = run_by_name("DFS", graph, &ctx).expect("engine kernel");
            prop_assert_eq!(a.checksum, b.checksum, "DFS not deterministic");
            prop_assert_eq!(a.stats.edges_relaxed, graph.m(), "DFS must scan each edge once");
        }
    }

    // Greedy dominating-set tie-breaks by id, so the chosen set may
    // differ across relabelings — but it must always dominate.
    #[test]
    fn dominating_set_dominates_any_relabeling(g in arb_graph(60, 200), seed in any::<u64>()) {
        use gorder_engine::kernels::domset::dominating_set;
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let r = dominating_set(&h);
        let mut covered = vec![false; h.n() as usize];
        for &u in &r.set {
            covered[u as usize] = true;
            for &v in h.out_neighbors(u) {
                covered[v as usize] = true;
            }
        }
        for u in h.nodes() {
            prop_assert!(covered[u as usize], "node {} not dominated", u);
        }
    }

    // Parallel plans are a scheduling decision only: at any thread count,
    // every kernel must return the serial checksum and the serial work
    // counters on arbitrary graphs.
    #[test]
    fn parallel_plans_never_change_results(g in arb_graph(60, 200), threads in 2u32..8) {
        let ctx = quick_ctx(None);
        let plan = ExecPlan::with_threads(threads);
        for name in gorder_engine::kernel_names().into_iter().chain(EXTENSION_KERNELS) {
            let serial = run_by_name(name, &g, &ctx).expect("engine kernel");
            let par = run_by_name_plan(name, &g, &ctx, plan).expect("engine kernel");
            prop_assert_eq!(serial.checksum, par.checksum, "{} checksum at {} threads", name, threads);
            prop_assert_eq!(serial.stats.iterations, par.stats.iterations, "{} iterations", name);
            prop_assert_eq!(serial.stats.edges_relaxed, par.stats.edges_relaxed, "{} edges", name);
            prop_assert_eq!(par.stats.threads_used, threads, "{} threads_used", name);
        }
    }

    // Relabeling and parallelising commute: for the invariant kernels, a
    // parallel run on an isomorphic copy (source mapped through the
    // permutation) must equal the serial run on the original.
    #[test]
    fn relabel_and_parallelize_commute(g in arb_graph(60, 200), seed in any::<u64>(), threads in 1u32..8) {
        let p = arb_perm(g.n(), seed);
        let h = g.relabel(&p);
        let src = g.max_degree_node().unwrap_or(0);
        let ctx_g = quick_ctx(Some(src));
        let ctx_h = quick_ctx(Some(p.apply(src)));
        let plan = ExecPlan::with_threads(threads);
        for name in ["NQ", "BFS", "SP", "SCC", "Kcore", "WCC", "Tri"] {
            let serial_g = run_by_name(name, &g, &ctx_g).expect("engine kernel");
            let par_h = run_by_name_plan(name, &h, &ctx_h, plan).expect("engine kernel");
            prop_assert_eq!(
                serial_g.checksum, par_h.checksum,
                "{} serial-on-g vs {}-thread-on-relabel", name, threads
            );
        }
    }

    // PageRank's determinism contract is bit-level: the parallel rank
    // vector must equal the serial one at `f64::to_bits` granularity on
    // arbitrary graphs and thread counts.
    #[test]
    fn pagerank_parallel_is_bit_identical(g in arb_graph(50, 150), threads in 2u32..8) {
        use gorder_engine::kernels::pagerank::pagerank_with_plan;
        let serial = pagerank_with_plan(&g, 20, 0.85, ExecPlan::Serial);
        let par = pagerank_with_plan(&g, 20, 0.85, ExecPlan::with_threads(threads));
        for u in g.nodes() {
            prop_assert_eq!(
                serial.rank[u as usize].to_bits(),
                par.rank[u as usize].to_bits(),
                "node {} at {} threads", u, threads
            );
        }
    }

    // The WCC kernel's components are exactly union–find's, on sparse
    // random graphs (many isolated nodes and small trees) as well as
    // denser ones: two nodes share a kernel component iff they share a
    // union–find root.
    #[test]
    fn wcc_partition_matches_union_find(n in 1u32..300, density in 0u32..300, seed in any::<u64>()) {
        let g = gorder::graph::gen::erdos_renyi(n, u64::from(n * density / 100), seed);
        let r = gorder::engine::kernels::wcc::wcc(&g);
        let roots = union_find_roots(&g);
        let mut kernel_of_root = std::collections::HashMap::new();
        let mut root_of_kernel = std::collections::HashMap::new();
        for u in g.nodes() {
            let (c, root) = (r.component[u as usize], roots[u as usize]);
            prop_assert_eq!(*kernel_of_root.entry(root).or_insert(c), c, "node {} split", u);
            prop_assert_eq!(*root_of_kernel.entry(c).or_insert(root), root, "node {} merged", u);
        }
        prop_assert_eq!(r.count() as usize, kernel_of_root.len());
        let total: u32 = r.sizes.iter().sum();
        prop_assert_eq!(total, g.n());
    }
}

/// Union–find with path halving and union by size over every edge,
/// ignoring direction; returns each node's root.
fn union_find_roots(g: &Graph) -> Vec<u32> {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut parent: Vec<u32> = g.nodes().collect();
    let mut size = vec![1u32; g.n() as usize];
    for (u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            let (big, small) = if size[ru as usize] >= size[rv as usize] {
                (ru, rv)
            } else {
                (rv, ru)
            };
            parent[small as usize] = big;
            size[big as usize] += size[small as usize];
        }
    }
    g.nodes().map(|u| find(&mut parent, u)).collect()
}
