//! The four workloads. Each one sets up several times (`setup_s` is the
//! median), measures its own unit of work for the window — interleaving
//! the Gorder and Original sides, alternating which runs first — and
//! then verifies its graph with the same oracle pass, which also times
//! the layers its loop did not touch. So every workload reports every
//! metric, each measured on that workload's own graph.
//!
//! | workload | `op_ms` | `original_op_ms` |
//! |---|---|---|
//! | order-social | best Gorder build + relabel + PR(20) | best PR(20) on the Original layout |
//! | kernels-web | sum of the nine kernels' best runs, Gorder layout | the same, Original layout |
//! | sim-web | sum of the best NQ, BFS, PR(4) cache replays, Gorder layout | the same, Original layout |
//! | serve-mixed | p50 latency of the request mix | best latency of a plain wiki BFS request sent alone |

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gorder_bench::stats::paired_stats;
use gorder_cachesim::HierarchyConfig;
use gorder_core::budget::Budget;
use gorder_engine::{ExecPlan, KernelCtx};
use gorder_graph::datasets::{self, Dataset};
use gorder_graph::Graph;
use gorder_orders::{CacheKey, OrderCache};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Layout, Ordered, INVARIANT, SIM_KERNELS};
use crate::manifest::Host;
use crate::measure::{quantile, Rec};
use crate::serve::{self, Conn, Daemon, DaemonConfig, Reply};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;
/// Ops measured however short the window.
const MIN_OPS: u64 = 3;
/// PR iterations of the timed kernels (the paper uses 100; 20 keeps PR
/// from dominating the suite).
const PR_ITERATIONS: u32 = 20;
/// PR iterations of the cache replay.
const SIM_PR_ITERATIONS: u32 = 4;
const LAYOUTS: [Layout; 2] = [Layout::Original, Layout::Gorder];

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory owned by this run (order caches, daemon state).
    pub work: PathBuf,
    /// Where traced runs leave their span files.
    pub trace_dir: Option<PathBuf>,
    pub host: Host,
}

impl Params {
    fn scale(&self, full: f64, smoke: f64) -> f64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Runs workload `name` into `rec`. Each workload sets its own `op_ms`
/// and `original_op_ms`; the medians of the op samples are reported too.
pub fn run(name: &str, p: &Params, rec: &mut Rec) -> Result<(), String> {
    match name {
        "order-social" => order_social(p, rec),
        "kernels-web" => kernels_web(p, rec),
        "sim-web" => sim_web(p, rec),
        "serve-mixed" => serve_mixed(p, rec),
        other => Err(format!(
            "workload {other:?} is declared but not implemented"
        )),
    }?;
    for span in ["op", "original_op"] {
        let p50 = rec.median(&format!("{span}_s")) * 1e3;
        rec.extra(&format!("{span}_p50_ms"), p50, "ms");
    }
    if rec.value("peak_rss_mb").is_none() {
        let own = crate::measure::peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?;
        rec.set("peak_rss_mb", own);
    }
    Ok(())
}

/// Runs the set-up `SETUP_REPS` times, freeing each before the next, and
/// keeps the last.
fn setup<T>(rec: &mut Rec, mut f: impl FnMut(&mut Rec) -> Result<T, String>) -> Result<T, String> {
    let mut last = None;
    for i in 0..SETUP_REPS {
        drop(last.take());
        rec.rep = i;
        let s = rec.start("setup");
        last = Some(f(rec)?);
        rec.end(s);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

/// Calls `op(rec, rep)` until the window closes, at least `MIN_OPS` times.
fn measure(p: &Params, rec: &mut Rec, mut op: impl FnMut(&mut Rec, u64)) {
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut rep = 0;
    while rep < MIN_OPS || Instant::now() < deadline {
        rec.rep = rep;
        op(rec, rep);
        rep += 1;
    }
}

/// Both layouts, the Gorder side first on even reps: drift on the host
/// then hits both sides equally.
fn interleaved(rep: u64) -> [Layout; 2] {
    if rep.is_multiple_of(2) {
        [Layout::Gorder, Layout::Original]
    } else {
        [Layout::Original, Layout::Gorder]
    }
}

fn op_span(layout: Layout) -> &'static str {
    match layout {
        Layout::Gorder => "op",
        Layout::Original => "original_op",
    }
}

/// The best-case time of a fixed op, in ms: the sum over its stages (span
/// names) of each stage's fastest run. A fixed op is a deterministic
/// computation and host interference only ever adds time, so the fastest
/// run is the least disturbed estimate of a stage's cost; across runs on a
/// shared host it varies about half as much as the median.
fn best_ms(rec: &Rec, stages: &[impl AsRef<str>]) -> f64 {
    let fastest = |stage: &str| {
        let samples = rec.samples(&format!("{stage}_s"));
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    };
    stages.iter().map(|s| fastest(s.as_ref())).sum::<f64>() * 1e3
}

/// The `<layer>.<kernel>.<layout>` spans of `kernels`.
fn kernel_spans(layer: &str, kernels: &[&str], layout: Layout) -> Vec<String> {
    kernels
        .iter()
        .map(|k| format!("{layer}.{k}.{}", layout.name()))
        .collect()
}

fn order_social(p: &Params, rec: &mut Rec) -> Result<(), String> {
    let ds = datasets::flickr_like();
    let g = setup(rec, |rec| Ok(layers::gen(rec, &ds, p.scale(2.0, 0.1))))?;
    working_set(p, rec, &g);
    let ctx = KernelCtx {
        pr_iterations: PR_ITERATIONS,
        seed: p.seed,
        ..KernelCtx::default()
    };
    let mut last = None;
    measure(p, rec, |rec, rep| {
        for layout in interleaved(rep) {
            let s = rec.start(op_span(layout));
            match layout {
                Layout::Gorder => last = Some(pipeline(rec, &g, &ctx)),
                Layout::Original => {
                    layers::kernel(rec, "PR", &g, &ctx, Layout::Original);
                }
            }
            rec.end(s);
        }
    });
    let op = ["orders.gorder.compute", "graph.relabel", "engine.PR.gorder"];
    rec.set("op_ms", best_ms(rec, &op));
    rec.set("original_op_ms", best_ms(rec, &["engine.PR.original"]));
    let (perm, h) = last.expect("measure runs at least one rep");
    verify(p, rec, &Ordered { g, perm, h }, Have::default());
    Ok(())
}

/// The order-social op: build the ordering, apply it, run PR on it.
fn pipeline(rec: &mut Rec, g: &Graph, ctx: &KernelCtx) -> (gorder_graph::Permutation, Graph) {
    let perm = layers::gorder(rec, g);
    let h = layers::relabel(rec, g, &perm);
    layers::kernel(rec, "PR", &h, ctx, Layout::Gorder);
    (perm, h)
}

fn web(p: &Params) -> (Dataset, f64) {
    (datasets::wiki_like(), p.scale(2.0, 0.15))
}

fn kernels_web(p: &Params, rec: &mut Rec) -> Result<(), String> {
    let (ds, scale) = web(p);
    let o = setup(rec, |rec| Ok(layers::ordered(rec, &ds, scale)))?;
    working_set(p, rec, &o.g);
    let ctxs = o.ctxs(p.seed, PR_ITERATIONS);
    measure(p, rec, |rec, rep| {
        for layout in interleaved(rep) {
            let s = rec.start(op_span(layout));
            layers::suite(rec, o.graph(layout), &ctxs[layout as usize], layout);
            rec.end(s);
        }
    });
    let kernels = gorder_engine::kernel_names();
    rec.set(
        "op_ms",
        best_ms(rec, &kernel_spans("engine", &kernels, Layout::Gorder)),
    );
    let original = kernel_spans("engine", &kernels, Layout::Original);
    rec.set("original_op_ms", best_ms(rec, &original));
    verify(
        p,
        rec,
        &o,
        Have {
            engine: true,
            sim: false,
        },
    );
    Ok(())
}

fn sim_web(p: &Params, rec: &mut Rec) -> Result<(), String> {
    let (ds, scale) = web(p);
    let o = setup(rec, |rec| Ok(layers::ordered(rec, &ds, scale)))?;
    working_set(p, rec, &o.g);
    let sim_l3 = sim_bytes(2);
    let bytes = o.g.memory_bytes() as u64;
    rec.check(bytes > sim_l3, || {
        format!(
            "sim-web working set ({bytes} B) fits in the simulated L3 ({sim_l3} B): \
             only compulsory misses would be counted"
        )
    });
    let ctxs = o.ctxs(p.seed, SIM_PR_ITERATIONS);
    measure(p, rec, |rec, rep| {
        for layout in interleaved(rep) {
            let s = rec.start(op_span(layout));
            layers::sim_pass(rec, o.graph(layout), &ctxs[layout as usize], layout);
            rec.end(s);
        }
    });
    rec.set(
        "op_ms",
        best_ms(rec, &kernel_spans("cachesim", &SIM_KERNELS, Layout::Gorder)),
    );
    let original = kernel_spans("cachesim", &SIM_KERNELS, Layout::Original);
    rec.set("original_op_ms", best_ms(rec, &original));
    let l3 = |rec: &Rec, layout: Layout| {
        rec.value(&format!("cachesim.PR.{}.l3_misses", layout.name()))
            .unwrap_or(f64::NAN)
    };
    let (gorder, original) = (l3(rec, Layout::Gorder), l3(rec, Layout::Original));
    if p.smoke {
        // PR's rank arrays fit the simulated L3 at smoke scale, so both
        // layouts see compulsory misses only.
        eprintln!("perfbench: smoke scale: the PR L3 locality check is not applied");
    } else {
        rec.check(gorder < original, || {
            format!(
                "Gorder PR L3 misses ({gorder}) are not below Original's ({original}): \
                 the workload cannot see LLC locality"
            )
        });
    }
    verify(
        p,
        rec,
        &o,
        Have {
            engine: false,
            sim: true,
        },
    );
    Ok(())
}

/// Bytes of the simulated hierarchy's level `i` (0 = L1).
fn sim_bytes(i: usize) -> u64 {
    HierarchyConfig::scaled_down().levels[i].size_bytes
}

/// Records the working set and its ratio to the host's and the
/// simulator's caches.
fn working_set(p: &Params, rec: &mut Rec, g: &Graph) {
    let bytes = g.memory_bytes() as f64;
    rec.extra("ws.n", f64::from(g.n()), "count");
    rec.extra("ws.m", g.m() as f64, "count");
    rec.extra("ws.bytes", bytes, "B");
    rec.extra("ws.host_l2_ratio", bytes / p.host.l2_bytes as f64, "x");
    rec.extra("ws.host_llc_ratio", bytes / p.host.l3_bytes as f64, "x");
    rec.extra("ws.sim_l2_ratio", bytes / sim_bytes(1) as f64, "x");
    rec.extra("ws.sim_l3_ratio", bytes / sim_bytes(2) as f64, "x");
}

/// Which oracle-pass parts a workload's own loop already produced.
#[derive(Default)]
struct Have {
    engine: bool,
    sim: bool,
}

/// The oracle pass every workload ends with: all nine kernels and the
/// cache replay on both layouts (unless the loop ran them), PR's ranks,
/// an order cache round trip, the relabel-invariance checks, and the
/// derived metrics. So `llc_misses` comes from this pass everywhere but
/// sim-web, whose own loop replays.
fn verify(p: &Params, rec: &mut Rec, o: &Ordered, have: Have) {
    rec.rep = 0;
    if !have.engine {
        let ctxs = o.ctxs(p.seed, PR_ITERATIONS);
        for (layout, ctx) in LAYOUTS.into_iter().zip(&ctxs) {
            layers::suite(rec, o.graph(layout), ctx, layout);
        }
    }
    if !have.sim {
        let ctxs = o.ctxs(p.seed, SIM_PR_ITERATIONS);
        for (layout, ctx) in LAYOUTS.into_iter().zip(&ctxs) {
            layers::sim_pass(rec, o.graph(layout), ctx, layout);
        }
    }
    layers::pr_ranks(rec, o, &o.ctxs(p.seed, PR_ITERATIONS)[0]);
    layers::cache_roundtrip(rec, &p.work.join("order-cache"), &o.g, &o.perm);

    for name in INVARIANT {
        let sums = rec.checksums();
        let a = sums.get(&format!("{name} original")).copied();
        let b = sums.get(&format!("{name} gorder")).copied();
        rec.check(a.is_some() && a == b, || {
            format!("{name} checksum differs between layouts: {a:x?} vs {b:x?}")
        });
    }

    rec.set("graph.memory_mb", o.g.memory_bytes() as f64 / 1e6);
    let llc: f64 = SIM_KERNELS
        .iter()
        .filter_map(|k| rec.value(&format!("cachesim.{k}.gorder.l3_misses")))
        .sum();
    rec.set("llc_misses", llc);
    let refs_per_s = rec.value("cachesim.refs_replayed").unwrap_or(0.0)
        / rec.value("cachesim.replay_secs").unwrap_or(f64::NAN);
    rec.set("cachesim.refs_per_s", refs_per_s);
    let ordering_cost = rec.median("orders.gorder.compute_s") + rec.median("graph.relabel_s");
    for k in gorder_engine::kernel_names() {
        let original = rec.samples(&format!("engine.{k}.original_s")).to_vec();
        let gorder = rec.samples(&format!("engine.{k}.gorder_s")).to_vec();
        // Rep i of each side ran back to back, so the samples pair up.
        let n = original.len().min(gorder.len());
        let paired = paired_stats(&original[..n], &gorder[..n]);
        rec.set(
            &format!("engine.{k}.speedup"),
            (-paired.median_log_ratio).exp(),
        );
        let saved = crate::measure::median(&original) - crate::measure::median(&gorder);
        let runs = if saved > 0.0 {
            ordering_cost / saved
        } else {
            f64::INFINITY
        };
        rec.extra(&format!("engine.{k}.break_even_runs"), runs, "runs");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Plain,
    Miss,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Plain => "plain",
            Class::Miss => "miss",
        }
    }
}

struct Req {
    class: Class,
    dataset: &'static str,
    algo: &'static str,
    seed: u64,
}

impl Req {
    fn line(&self) -> String {
        match self.class {
            Class::Hit => serve::request(
                "run",
                self.dataset,
                Some(layers::ORDERING),
                Some(self.algo),
                0,
            ),
            Class::Plain => serve::request("run", self.dataset, None, Some(self.algo), 0),
            Class::Miss => serve::request("order", self.dataset, Some("RCM"), None, self.seed),
        }
    }
}

const SERVE_DATASETS: [&str; 2] = ["flickr", "wiki"];
const SERVE_ALGOS: [&str; 2] = ["NQ", "BFS"];
/// The mix per dataset and kernel in each block of 200 requests: 70% hits,
/// 20% plain runs, 10% misses (a miss orders, so its kernel is unused).
const MIX: [(Class, usize); 3] = [(Class::Hit, 35), (Class::Plain, 10), (Class::Miss, 5)];
/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Segments of the mix, each followed by plain requests sent alone.
const SEGMENTS: usize = 8;
/// Plain requests sent alone after each segment (`original_op_ms`).
const IDLE_PER_SEGMENT: usize = 5;

/// The seeded request sequence: blocks with exactly the proportions of
/// `MIX` for every dataset and kernel, shuffled within the block, and a
/// fresh RCM seed per miss. Only the order and the miss seeds depend on
/// `seed`, so the latency mix is the same for every seed.
fn request_mix(seed: u64, blocks: usize) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..blocks {
        let mut block: Vec<Req> = Vec::new();
        for dataset in SERVE_DATASETS {
            for algo in SERVE_ALGOS {
                for (class, n) in MIX {
                    block.extend((0..n).map(|_| Req {
                        class,
                        dataset,
                        algo,
                        seed: 0,
                    }));
                }
            }
        }
        block.shuffle(&mut rng);
        for req in &mut block {
            if req.class == Class::Miss {
                req.seed = rng.gen_range(1..u64::MAX);
            }
        }
        out.extend(block);
    }
    out
}

struct Served {
    idx: usize,
    start: Instant,
    end: Instant,
    reply: Result<Reply, String>,
}

/// One client of the closed loop: sends the next request of the mix as
/// soon as the previous one is answered, until `deadline` (after at least
/// `MIN_OPS` requests overall).
fn closed_loop(conn: &mut Conn, mix: &[Req], next: &AtomicUsize, deadline: Instant) -> Vec<Served> {
    let mut out = Vec::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= mix.len() || (idx >= MIN_OPS as usize && Instant::now() >= deadline) {
            return out;
        }
        let start = Instant::now();
        let reply = conn.call(&mix[idx].line());
        out.push(Served {
            idx,
            start,
            end: Instant::now(),
            reply,
        });
    }
}

fn serve_mixed(p: &Params, rec: &mut Rec) -> Result<(), String> {
    let bin = serve::locate_bin(p.serve_bin.as_deref())?;
    let scale = p.scale(1.0, 0.1);
    let tracing = rec.tracing();
    let mut n = 0;
    let daemon = setup(rec, |_| {
        n += 1;
        let dir = p.work.join(format!("serve-{n}"));
        let d = Daemon::start(&DaemonConfig {
            bin: &bin,
            dir: &dir,
            scale,
            datasets: &SERVE_DATASETS,
            trace: tracing,
        })?;
        let mut c = d.connect()?;
        for ds in SERVE_DATASETS {
            let r = c.call(&serve::request(
                "order",
                ds,
                Some(layers::ORDERING),
                None,
                0,
            ))?;
            if r.status != "ok" {
                return Err(format!("warming the order cache for {ds}: {}", r.text));
            }
        }
        Ok(d)
    })?;

    // The oracle: the same graphs, ordered and run in-process. Wiki, the
    // larger, also feeds the per-layer metrics; flickr's calls are not
    // recorded.
    let mut graphs: HashMap<&str, Ordered> = HashMap::new();
    let mut expected: HashMap<(&str, bool, &str), u64> = HashMap::new();
    let served_cache = OrderCache::new(&daemon.cache_dir).map_err(|e| e.to_string())?;
    let gorder = gorder_orders::by_name_extended(layers::ORDERING, 0).expect("registered");
    for ds in SERVE_DATASETS {
        let mut quiet = Rec::new(false);
        let r = if ds == "wiki" { &mut *rec } else { &mut quiet };
        let recipe = datasets::by_name(ds).expect("serve datasets are recipes");
        let o = layers::ordered(r, &recipe, scale);
        // What the daemon runs a request with seed 0 under.
        let ctx = KernelCtx {
            seed: 0,
            ..KernelCtx::default()
        };
        for algo in SERVE_ALGOS {
            for (ordered, g) in [(false, &o.g), (true, &o.h)] {
                let run = gorder_engine::run_by_name_plan(algo, g, &ctx, ExecPlan::Serial)
                    .expect("registered kernel");
                expected.insert((ds, ordered, algo), run.checksum);
            }
        }
        let s = r.start("orders.cache_key");
        let key = CacheKey::for_ordering(&o.g, gorder.as_ref(), 0);
        r.end(s);
        let s = r.start("orders.cache_load");
        let cached = served_cache.load(&key, o.g.n());
        r.end(s);
        rec.check(cached.as_ref().map(|c| c.as_slice()) == Some(o.perm.as_slice()), || {
            format!("the daemon's cached Gorder permutation of {ds} differs from the in-process one")
        });
        graphs.insert(ds, o);
    }

    // The mix runs in segments. After each, with both clients paused, one
    // fixed plain request is sent alone a few times: the cost of serving
    // without an ordering, sampled across the whole window rather than in
    // one moment. (Under the mix a plain request may or may not wait behind
    // the other connection's, and the mix's four kinds of plain request
    // differ in cost, so their p50 there jumps between modes.)
    let mix = request_mix(p.seed, 100);
    let idle_req = Req {
        class: Class::Plain,
        dataset: "wiki",
        algo: "BFS",
        seed: 0,
    };
    let next = AtomicUsize::new(0);
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut alone = daemon.connect()?;
    let (mut results, mut idle) = (Vec::new(), Vec::new());
    let mut window = Duration::ZERO;
    for _ in 0..SEGMENTS {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(p.seconds / SEGMENTS as f64);
        let served: Vec<Served> = std::thread::scope(|s| {
            let loops: Vec<_> = clients
                .iter_mut()
                .map(|conn| s.spawn(|| closed_loop(conn, &mix, &next, deadline)))
                .collect();
            loops
                .into_iter()
                .flat_map(|l| l.join().expect("client thread panicked"))
                .collect()
        });
        window += served.iter().map(|r| r.end).max().unwrap_or(start) - start;
        results.extend(served);
        for _ in 0..IDLE_PER_SEGMENT {
            let start = Instant::now();
            let reply = alone.call(&idle_req.line());
            idle.push(Served {
                idx: idle.len(),
                start,
                end: Instant::now(),
                reply,
            });
        }
    }
    drop((clients, alone));
    if let Some(mb) = daemon.peak_rss_mb() {
        rec.set("peak_rss_mb", mb);
    }
    let trace_path = daemon.trace_path.clone();
    let served_dir = daemon.cache_dir.clone();
    daemon.stop()?;

    let (mut hits, mut hit_tier_cache, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut misses = Vec::new();
    let tagged = (results.iter().map(|r| (r, "op", &mix[r.idx])))
        .chain(idle.iter().map(|r| (r, "original_op", &idle_req)));
    for (r, span, req) in tagged {
        rec.record(span, r.idx as u64, r.start, r.end);
        if span == "op" {
            let secs = (r.end - r.start).as_secs_f64();
            rec.sample(&format!("serve.{}_s", req.class.name()), secs);
        }
        let reply = match &r.reply {
            Ok(reply) => reply,
            Err(e) => {
                errors += 1;
                rec.check(false, || format!("request {}: {e}", r.idx));
                continue;
            }
        };
        match reply.status.as_str() {
            "ok" => {}
            "busy" => busy += 1,
            _ => errors += 1,
        }
        if req.class == Class::Hit {
            hits += 1;
            hit_tier_cache += u64::from(reply.tier.as_deref() == Some("cache"));
        }
        let ok = reply.status == "ok"
            && match req.class {
                Class::Miss => {
                    misses.push(r.idx);
                    true
                }
                class => {
                    let want = expected[&(req.dataset, class == Class::Hit, req.algo)];
                    reply.checksums.contains(&want)
                }
            };
        rec.check(ok, || {
            format!(
                "request {} ({} {} {}): status {}, checksums {:x?}: {}",
                r.idx,
                req.class.name(),
                req.dataset,
                req.algo,
                reply.status,
                reply.checksums,
                reply.text
            )
        });
    }
    check_misses(rec, &mix, &misses, &graphs, &served_dir);

    rec.set("op_ms", rec.median("op_s") * 1e3);
    rec.set("original_op_ms", best_ms(rec, &["original_op"]));
    rec.extra("serve.requests", results.len() as f64, "count");
    rec.extra(
        "serve.req_per_s",
        results.len() as f64 / window.as_secs_f64(),
        "1/s",
    );
    rec.extra(
        "serve.cache_hit_ratio",
        hit_tier_cache as f64 / hits.max(1) as f64,
        "ratio",
    );
    rec.extra("serve.busy", busy as f64, "count");
    rec.extra("serve.errors", errors as f64, "count");
    for class in [Class::Hit, Class::Plain, Class::Miss] {
        let p50 = rec.median(&format!("serve.{}_s", class.name())) * 1e3;
        rec.extra(&format!("serve.{}_ms_p50", class.name()), p50, "ms");
    }
    let all = rec.samples("op_s").to_vec();
    rec.extra("serve.req_p90_ms", quantile(&all, 9, 10) * 1e3, "ms");
    rec.extra("serve.req_p98_ms", quantile(&all, 98, 100) * 1e3, "ms");
    if let Some(path) = trace_path {
        let stages = serve::trace_stage_secs(&path)?;
        let queue: Vec<f64> = stages.iter().map(|s| s.0).collect();
        let service: Vec<f64> = stages.iter().map(|s| s.1).collect();
        rec.extra(
            "serve.queue_ms_p50",
            crate::measure::median(&queue) * 1e3,
            "ms",
        );
        rec.extra(
            "serve.service_ms_p50",
            crate::measure::median(&service) * 1e3,
            "ms",
        );
        if let Some(dir) = &p.trace_dir {
            std::fs::copy(&path, dir.join("serve-mixed.daemon.jsonl"))
                .map_err(|e| format!("copying the daemon trace: {e}"))?;
        }
    }

    let wiki = graphs.remove("wiki").expect("wiki is served");
    if rec.tracing() {
        serve_stages(rec, &wiki, &served_dir)?;
    }
    working_set(p, rec, &wiki.g);
    verify(p, rec, &wiki, Have::default());
    Ok(())
}

/// What a cache-hit `run` costs inside the daemon, stage by stage, timed
/// by calling the functions the daemon calls on the same served graph.
/// Traced runs only.
fn serve_stages(rec: &mut Rec, o: &Ordered, cache_dir: &Path) -> Result<(), String> {
    const REPS: u64 = 5;
    const STAGES: [&str; 5] = ["digest", "cache_load", "relabel", "clone", "kernel"];
    let cache = OrderCache::new(cache_dir).map_err(|e| e.to_string())?;
    let gorder = gorder_orders::by_name_extended(layers::ORDERING, 0).expect("registered");
    let ctx = KernelCtx {
        seed: 0,
        ..KernelCtx::default()
    };
    for rep in 0..REPS {
        rec.rep = rep;
        let s = rec.start("serve.stage.digest");
        let key = CacheKey::for_ordering(&o.g, gorder.as_ref(), 0);
        rec.end(s);
        let s = rec.start("serve.stage.cache_load");
        let perm = cache.load(&key, o.g.n());
        rec.end(s);
        let perm = perm.ok_or("the daemon's order cache lost the wiki Gorder permutation")?;
        let s = rec.start("serve.stage.relabel");
        let h = o.g.relabel(&perm);
        rec.end(s);
        let s = rec.start("serve.stage.clone");
        let copy = o.g.clone();
        rec.end(s);
        drop(copy);
        let s = rec.start("serve.stage.kernel");
        gorder_engine::run_by_name_plan("BFS", &h, &ctx, ExecPlan::Serial)
            .expect("BFS is registered");
        rec.end(s);
    }
    for stage in STAGES {
        let ms = rec.median(&format!("serve.stage.{stage}_s")) * 1e3;
        rec.extra(&format!("serve.stage.{stage}_ms"), ms, "ms");
    }
    Ok(())
}

/// Every miss must have left its RCM permutation in the daemon's order
/// cache; the first few are also compared with an in-process RCM.
fn check_misses(
    rec: &mut Rec,
    mix: &[Req],
    misses: &[usize],
    graphs: &HashMap<&str, Ordered>,
    dir: &Path,
) {
    const EXACT: usize = 3;
    let cache = match OrderCache::new(dir) {
        Ok(c) => c,
        Err(e) => return rec.check(false, || format!("opening the daemon's order cache: {e}")),
    };
    for (i, &idx) in misses.iter().enumerate() {
        let req = &mix[idx];
        let g = &graphs[req.dataset].g;
        let rcm = gorder_orders::by_name_extended("RCM", req.seed).expect("RCM is registered");
        let key = CacheKey::for_ordering(g, rcm.as_ref(), req.seed);
        let stored = cache.load(&key, g.n());
        let ok = match (&stored, i < EXACT) {
            (None, _) => false,
            (Some(_), false) => true,
            (Some(perm), true) => {
                let own = gorder_orders::run_ordering(
                    rcm.as_ref(),
                    g,
                    ExecPlan::Serial,
                    &Budget::unlimited(),
                )
                .value()
                .expect("an unlimited budget always completes");
                own.perm.as_slice() == perm.as_slice()
            }
        };
        rec.check(ok, || {
            format!(
                "miss request {idx}: RCM seed {} of {} not in the order cache as computed",
                req.seed, req.dataset
            )
        });
    }
}
