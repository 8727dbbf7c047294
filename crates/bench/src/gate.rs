//! The benchmark regression gate behind `gorder-bench gate`.
//!
//! CI cannot trust raw wall clocks (shared runners, frequency scaling),
//! and it cannot skip performance checking either — the whole paper is a
//! performance claim. The gate therefore has two modes against one
//! committed baseline file (`BENCH_gate.json`, JSONL like every trace):
//!
//! * **sim** — replays a pinned grid (datasets × orderings × kernels)
//!   through the cache simulator and records *exact* counters: per-level
//!   misses, reuse-distance histograms, edges relaxed, unit-heap ops.
//!   The counters are pure functions of (graph, ordering, kernel), so
//!   two runs of the same tree produce **byte-identical** reports and CI
//!   can diff against the committed baseline with zero noise tolerance.
//! * **wall** — measures paired, interleaved A/B samples (A = Original
//!   layout, B = the ordering under test) and reduces them with
//!   [`crate::stats`] into a median speedup with a sign-test p-value and
//!   a bootstrap CI, so a regression verdict means "statistically slower
//!   by more than the threshold", not "one noisy sample moved".
//!
//! The report serialises with the obs trace machinery (schema-versioned
//! manifest first, fixed key order per record kind), parses back through
//! the same reader as `validate-trace` ([`gorder_obs::trace::read_jsonl`],
//! with the `gate`/`order` decoders next to their writers), and
//! [`compare`] renders any drift as a delta table naming the offending
//! (dataset, ordering, algo, metric) cells.

use crate::fmt::Table;
use crate::robust::{sweep, Job, Layout, Measure, Sweep};
use crate::schema::GATE_DELTA_HEADER;
use crate::stats::paired_stats;
use crate::timing::time_once;
use gorder_cachesim::trace::replay_with_stats;
use gorder_cachesim::{kernel_label, CacheHierarchy, HierarchyConfig, Tracer};
use gorder_engine::{ExecPlan, KernelCtx, KernelStats};
use gorder_graph::datasets;
use gorder_obs::trace::read_jsonl;
use gorder_obs::{GateEvent, OrderEvent, RunManifest, TraceEvent};
use gorder_orders::OrderingAlgorithm;
use std::collections::BTreeMap;
use std::sync::Arc;

/// PageRank iterations for sim-mode replays (replays cost ~40× native,
/// and the counters only need a stable, representative access stream).
const SIM_PR_ITERATIONS: u32 = 4;
/// Diameter BFS sources for sim-mode replays.
const SIM_DIAMETER_SAMPLES: u32 = 2;
/// PageRank iterations for wall-mode runs (long enough to time, short
/// enough for CI).
const WALL_PR_ITERATIONS: u32 = 10;
/// Diameter BFS sources for wall-mode runs.
const WALL_DIAMETER_SAMPLES: u32 = 4;

/// Which measurement the gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Deterministic cache-simulator counters (CI-exact).
    Sim,
    /// Paired interleaved wall-clock samples (statistical verdicts).
    Wall,
}

impl GateMode {
    /// The mode string carried by every gate record.
    pub fn label(self) -> &'static str {
        match self {
            GateMode::Sim => "sim",
            GateMode::Wall => "wall",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<GateMode> {
        match s {
            "sim" => Some(GateMode::Sim),
            "wall" => Some(GateMode::Wall),
            _ => None,
        }
    }
}

/// Everything that shapes one gate run. [`GateConfig::pinned`] is the
/// grid CI runs; every field except `gorder_window` enters the config
/// hash, so a baseline can only be compared against a run of the same
/// experiment.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Measurement mode.
    pub mode: GateMode,
    /// Dataset size multiplier.
    pub scale: f64,
    /// Seed for randomised orderings and source sampling.
    pub seed: u64,
    /// Dataset names (resolved via [`datasets::by_name`]).
    pub datasets: Vec<String>,
    /// Ordering names (resolved via the extended registry). Wall mode
    /// requires `"Original"` among them — it is the A side of every pair.
    pub orderings: Vec<String>,
    /// Engine kernel names (any of the 13, in either mode).
    pub algos: Vec<String>,
    /// Wall mode: interleaved A/B sample pairs kept per cell.
    pub pairs: u32,
    /// Wall mode: leading pairs discarded as warmup.
    pub warmup: u32,
    /// Test hook: overrides Gorder's window size. Deliberately **not**
    /// part of the config hash — the injected-regression self-test must
    /// reach the comparison (and fail it with a delta table), not bounce
    /// off a hash mismatch at the door.
    pub gorder_window: Option<u32>,
}

impl GateConfig {
    /// The pinned CI grid: two generated graphs × three orderings ×
    /// three kernels, small enough to replay in seconds.
    pub fn pinned(mode: GateMode) -> GateConfig {
        GateConfig {
            mode,
            scale: 0.05,
            seed: 42,
            datasets: vec!["epinion".into(), "flickr".into()],
            orderings: vec!["Original".into(), "RCM".into(), "Gorder".into()],
            algos: vec!["NQ".into(), "BFS".into(), "PR".into()],
            pairs: 8,
            warmup: 2,
            gorder_window: None,
        }
    }

    /// The canonical config string folded into the manifest hash. Wall
    /// knobs are zeroed in sim mode (they cannot affect sim output, so
    /// they must not split sim baselines).
    pub fn config_string(&self) -> String {
        let (pairs, warmup) = match self.mode {
            GateMode::Sim => (0, 0),
            GateMode::Wall => (self.pairs, self.warmup),
        };
        format!(
            "tool=gate,mode={},scale={},seed={},datasets={},orderings={},algos={},\
             pairs={pairs},warmup={warmup}",
            self.mode.label(),
            self.scale,
            self.seed,
            self.datasets.join("+"),
            self.orderings.join("+"),
            self.algos.join("+"),
        )
    }

    /// The report's manifest line. `started_unix_secs` is pinned to 0:
    /// the baseline is content-addressed, and a timestamp is exactly the
    /// kind of byte that would break double-run identity.
    pub fn manifest(&self) -> RunManifest {
        let mut m = RunManifest::new("gate", &self.config_string());
        m.threads = 1;
        m.window = self.gorder_window.map(u64::from);
        m.started_unix_secs = 0;
        m
    }
}

/// One gate run, ready to serialise: the manifest, one `gate` record per
/// grid cell, one `order` record per (dataset, ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Provenance + config hash (`started_unix_secs` pinned to 0).
    pub manifest: RunManifest,
    /// Grid cells in generation order (dataset-major, then ordering).
    pub cells: Vec<GateEvent>,
    /// Ordering constructions, with `seconds` pinned to 0.0 so sim
    /// reports stay byte-reproducible.
    pub orders: Vec<OrderEvent>,
}

/// Runs the configured grid through the sweep driver. Unknown
/// dataset/ordering/algo names fail up-front, before any graph is built.
pub fn run_gate(cfg: &GateConfig) -> Result<GateReport, String> {
    let datasets = cfg
        .datasets
        .iter()
        .map(|name| datasets::by_name(name).ok_or_else(|| format!("unknown dataset {name:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let orderings: Vec<Arc<dyn OrderingAlgorithm>> = cfg
        .orderings
        .iter()
        .map(|name| {
            gorder_orders::ordering_by_name(name, cfg.gorder_window.unwrap_or(5), cfg.seed)
                .map(Arc::from)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let kernels = cfg
        .algos
        .iter()
        .map(|name| kernel_label(name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    if cfg.mode == GateMode::Wall && !orderings.iter().any(|o| o.name() == "Original") {
        return Err("wall mode needs \"Original\" among --orderings (it is the A side)".into());
    }
    let grid = Sweep {
        datasets,
        scale: cfg.scale,
        orderings,
        kernels,
        seed: cfg.seed,
        timeout: None,
        cache: None,
        recovered: None,
    };
    let mut measure = match cfg.mode {
        GateMode::Sim => sim_measure(cfg.seed),
        GateMode::Wall => wall_measure(cfg),
    };
    let mut orders = Vec::new();
    let swept = sweep(
        &grid,
        &mut *measure,
        &mut |e| {
            // Pinned: construction time and threads are host noise, and
            // the order record is here for its deterministic counters.
            orders.push(OrderEvent {
                seconds: 0.0,
                threads_used: 1,
                ..e.clone()
            })
        },
        &mut |_| {},
    );
    let cells = swept.cells.into_iter().map(|c| {
        c.value
            .ok_or_else(|| format!("{}/{}/{}: {:?}", c.dataset, c.ordering, c.algo, c.status))
    });
    Ok(GateReport {
        manifest: cfg.manifest(),
        cells: cells.collect::<Result<_, _>>()?,
        orders,
    })
}

/// A gate record for `algo` on layout `l` with every measurement zeroed.
fn gate_event(mode: GateMode, l: &Layout<'_>, algo: &str) -> GateEvent {
    GateEvent {
        mode: mode.label().into(),
        dataset: l.dataset.to_string(),
        ordering: l.ordering.to_string(),
        algo: algo.to_string(),
        checksum: 0,
        iterations: 0,
        edges_relaxed: 0,
        refs: 0,
        level_misses: Vec::new(),
        mem_accesses: 0,
        ops: 0,
        reuse_total: 0,
        reuse_sum: 0.0,
        reuse_counts: Vec::new(),
        pairs: 0,
        speedup: 0.0,
        sign_p: 0.0,
        ci_lo: 0.0,
        ci_hi: 0.0,
    }
}

/// Sim mode: one replay per cell with reuse tracking on, recording the
/// cache model's exact counters.
fn sim_measure(seed: u64) -> Box<Measure<'static, GateEvent>> {
    Box::new(move |l: &Layout<'_>, algo| {
        let g = Arc::clone(l.graph);
        let ctx = KernelCtx {
            source: Some(l.source),
            pr_iterations: SIM_PR_ITERATIONS,
            damping: 0.85,
            diameter_samples: SIM_DIAMETER_SAMPLES,
            seed,
        };
        let event = gate_event(GateMode::Sim, l, algo);
        let job: Job<GateEvent> = Box::new(move || {
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            tracer.enable_reuse_tracking();
            let (checksum, kstats) = replay_with_stats(algo, &g, &mut tracer, &ctx)
                .expect("algo names validated against the engine");
            let c = tracer.counters();
            GateEvent {
                checksum,
                iterations: kstats.iterations,
                edges_relaxed: kstats.edges_relaxed,
                refs: c.refs,
                level_misses: c.level_misses,
                mem_accesses: c.memory_accesses,
                ops: c.ops,
                reuse_total: c.reuse_total,
                reuse_sum: c.reuse_sum,
                reuse_counts: c.reuse_counts,
                ..event
            }
        });
        Some(job)
    })
}

/// Wall mode: interleaved A/B pairs per cell, A on the dataset's base
/// graph (`Original` is the identity, so it has no cells of its own) and
/// B on the ordering's layout, reduced by [`paired_stats`].
fn wall_measure(cfg: &GateConfig) -> Box<Measure<'static, GateEvent>> {
    let (seed, pairs, warmup) = (cfg.seed, cfg.pairs, cfg.warmup);
    Box::new(move |l: &Layout<'_>, algo| {
        if l.ordering == "Original" {
            return None;
        }
        let (og, rg) = (Arc::clone(l.base), Arc::clone(l.graph));
        let base_ctx = KernelCtx {
            source: None,
            pr_iterations: WALL_PR_ITERATIONS,
            damping: 0.85,
            diameter_samples: WALL_DIAMETER_SAMPLES,
            seed,
        };
        let actx = KernelCtx {
            source: Some(l.base_source),
            ..base_ctx.clone()
        };
        let bctx = KernelCtx {
            source: Some(l.source),
            ..base_ctx
        };
        let event = gate_event(GateMode::Wall, l, algo);
        let job: Job<GateEvent> = Box::new(move || {
            let run = |g: &gorder_graph::Graph, ctx: &KernelCtx| {
                gorder_engine::run_by_name_plan(algo, g, ctx, ExecPlan::with_threads(1))
                    .expect("algo names validated against the engine")
            };
            let mut t_orig = Vec::new();
            let mut t_ord = Vec::new();
            let mut checksum = 0u64;
            let mut kstats = KernelStats::default();
            for i in 0..warmup + pairs {
                // Interleaved A then B: slow drift (thermal, neighbours)
                // lands on both sides of every pair.
                let (sa, _) = time_once(|| run(&og, &actx));
                let (sb, b) = time_once(|| run(&rg, &bctx));
                checksum = b.checksum;
                kstats = b.stats;
                if i >= warmup {
                    t_orig.push(sa);
                    t_ord.push(sb);
                }
            }
            // paired_stats(a, b) medians ln(b/a): with a = ordering
            // times and b = Original times that is ln(speedup).
            let st = paired_stats(&t_ord, &t_orig);
            GateEvent {
                checksum,
                iterations: kstats.iterations,
                edges_relaxed: kstats.edges_relaxed,
                pairs: st.pairs,
                speedup: st.median_log_ratio.exp(),
                sign_p: st.sign_p,
                ci_lo: st.ci_lo.exp(),
                ci_hi: st.ci_hi.exp(),
                ..event
            }
        });
        Some(job)
    })
}

/// Serialises a report to `BENCH_gate.json` content: manifest line, then
/// `gate` lines, then `order` lines, every line newline-terminated.
pub fn render_report(r: &GateReport) -> String {
    let mut out = String::new();
    out.push_str(&r.manifest.to_json_line());
    out.push('\n');
    for c in &r.cells {
        out.push_str(&TraceEvent::Gate(c.clone()).to_json_line());
        out.push('\n');
    }
    for o in &r.orders {
        out.push_str(&TraceEvent::Order(o.clone()).to_json_line());
        out.push('\n');
    }
    out
}

/// Parses `BENCH_gate.json` content back into a [`GateReport`],
/// losslessly ([`render_report`] of the result reproduces the input
/// byte-for-byte), through the shared trace reader and its record
/// decoders. Errors carry the validate-trace conventions: `line {n}
/// (byte offset {offset}): {what}`. A baseline is written whole, never
/// streamed, so a final line without its newline is rejected as
/// truncated rather than forgiven as a crash tear.
pub fn parse_report(text: &str) -> Result<GateReport, String> {
    if text.is_empty() {
        return Err("empty gate file: expected at least a manifest line".into());
    }
    if !text.ends_with('\n') {
        let offset = text.rfind('\n').map_or(0, |i| i + 1);
        let n = text.matches('\n').count() + 1;
        return Err(format!(
            "line {n} (byte offset {offset}): truncated line (missing trailing newline)"
        ));
    }
    let mut manifest = None;
    let mut cells = Vec::new();
    let mut orders = Vec::new();
    read_jsonl(text, false, |n, kind, f| {
        match kind {
            _ if n == 1 => manifest = Some(RunManifest::decode(f)?),
            "gate" => cells.push(GateEvent::decode(f)?),
            "order" => orders.push(OrderEvent::decode(f)?),
            other => return Err(format!("unexpected record kind {other:?} in a gate file")),
        }
        Ok(())
    })
    .map_err(|e| {
        if e.contains("schema_version") {
            format!("{e} — regenerate the baseline with --update")
        } else {
            e
        }
    })?;
    Ok(GateReport {
        manifest: manifest.expect("the reader rejects a trace without a manifest"),
        cells,
        orders,
    })
}

/// One baseline-vs-current discrepancy, addressable down to the metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDelta {
    /// Dataset of the offending cell.
    pub dataset: String,
    /// Ordering of the offending cell.
    pub ordering: String,
    /// Algorithm of the offending cell (`"-"` for order records).
    pub algo: String,
    /// Which metric drifted (e.g. `"level_misses[2]"`, `"speedup"`).
    pub metric: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
}

/// The outcome of [`compare`]: empty deltas = gate passed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateComparison {
    /// Every discrepancy found, in baseline order.
    pub deltas: Vec<GateDelta>,
}

impl GateComparison {
    /// True when current matched the baseline everywhere.
    pub fn passed(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The human-readable delta table CI prints on failure.
    pub fn render_table(&self) -> String {
        let mut t = Table::new(GATE_DELTA_HEADER.iter().copied());
        for d in &self.deltas {
            t.row([
                d.dataset.as_str(),
                d.ordering.as_str(),
                d.algo.as_str(),
                d.metric.as_str(),
                d.baseline.as_str(),
                d.current.as_str(),
            ]);
        }
        t.render()
    }
}

/// `|cur - base| <= base · tol%` — with zero tolerance, exact equality.
fn within_u64(base: u64, cur: u64, tol_pct: f64) -> bool {
    if tol_pct <= 0.0 {
        return base == cur;
    }
    (cur as f64 - base as f64).abs() <= base as f64 * tol_pct / 100.0
}

fn within_f64(base: f64, cur: f64, tol_pct: f64) -> bool {
    if tol_pct <= 0.0 {
        return base == cur;
    }
    (cur - base).abs() <= base.abs() * tol_pct / 100.0
}

/// Compares a current report against the committed baseline.
///
/// Sim cells: the checksum must match exactly (a checksum drift means
/// the kernel computed something else — no tolerance makes that ok), and
/// every counter must match within `tolerance_pct` (CI uses 0 = exact).
/// Wall cells: a regression is declared when the current CI upper bound
/// on the speedup falls below the baseline speedup shrunk by
/// `threshold_pct` — i.e. the whole confidence interval says
/// "statistically slower by more than X%". Order records compare their
/// deterministic counters like sim cells. Missing and unexpected cells
/// are discrepancies in both modes.
pub fn compare(
    base: &GateReport,
    cur: &GateReport,
    tolerance_pct: f64,
    threshold_pct: f64,
) -> GateComparison {
    let mut out = GateComparison::default();
    let cur_cells: BTreeMap<_, _> = cur
        .cells
        .iter()
        .map(|c| ((&c.dataset, &c.ordering, &c.algo), c))
        .collect();
    for b in &base.cells {
        let Some(c) = cur_cells.get(&(&b.dataset, &b.ordering, &b.algo)) else {
            out.deltas.push(delta(b, "cell", "present", "missing"));
            continue;
        };
        compare_cell(b, c, tolerance_pct, threshold_pct, &mut out.deltas);
    }
    let base_keys: std::collections::BTreeSet<_> = base
        .cells
        .iter()
        .map(|c| (&c.dataset, &c.ordering, &c.algo))
        .collect();
    for c in &cur.cells {
        if !base_keys.contains(&(&c.dataset, &c.ordering, &c.algo)) {
            out.deltas.push(delta(c, "cell", "missing", "present"));
        }
    }

    let cur_orders: BTreeMap<_, _> = cur
        .orders
        .iter()
        .map(|o| ((&o.dataset, &o.name), o))
        .collect();
    for b in &base.orders {
        let Some(c) = cur_orders.get(&(&b.dataset, &b.name)) else {
            out.deltas
                .push(order_delta(b, "order", "present", "missing"));
            continue;
        };
        compare_order(b, c, tolerance_pct, &mut out.deltas);
    }
    let base_order_keys: std::collections::BTreeSet<_> =
        base.orders.iter().map(|o| (&o.dataset, &o.name)).collect();
    for c in &cur.orders {
        if !base_order_keys.contains(&(&c.dataset, &c.name)) {
            out.deltas
                .push(order_delta(c, "order", "missing", "present"));
        }
    }
    out
}

fn delta(
    c: &GateEvent,
    metric: &str,
    baseline: impl ToString,
    current: impl ToString,
) -> GateDelta {
    GateDelta {
        dataset: c.dataset.clone(),
        ordering: c.ordering.clone(),
        algo: c.algo.clone(),
        metric: metric.to_string(),
        baseline: baseline.to_string(),
        current: current.to_string(),
    }
}

fn order_delta(
    o: &OrderEvent,
    metric: &str,
    baseline: impl ToString,
    current: impl ToString,
) -> GateDelta {
    GateDelta {
        dataset: o.dataset.clone().unwrap_or_else(|| "-".into()),
        ordering: o.name.clone(),
        algo: "-".into(),
        metric: metric.to_string(),
        baseline: baseline.to_string(),
        current: current.to_string(),
    }
}

fn compare_cell(
    b: &GateEvent,
    c: &GateEvent,
    tolerance_pct: f64,
    threshold_pct: f64,
    deltas: &mut Vec<GateDelta>,
) {
    if b.mode != c.mode {
        deltas.push(delta(b, "mode", &b.mode, &c.mode));
        return;
    }
    if b.checksum != c.checksum {
        deltas.push(delta(b, "checksum", b.checksum, c.checksum));
    }
    if b.mode == "sim" {
        let scalars = [
            ("iterations", b.iterations, c.iterations),
            ("edges_relaxed", b.edges_relaxed, c.edges_relaxed),
            ("refs", b.refs, c.refs),
            ("mem_accesses", b.mem_accesses, c.mem_accesses),
            ("ops", b.ops, c.ops),
            ("reuse_total", b.reuse_total, c.reuse_total),
        ];
        for (name, bv, cv) in scalars {
            if !within_u64(bv, cv, tolerance_pct) {
                deltas.push(delta(b, name, bv, cv));
            }
        }
        if !within_f64(b.reuse_sum, c.reuse_sum, tolerance_pct) {
            deltas.push(delta(b, "reuse_sum", b.reuse_sum, c.reuse_sum));
        }
        for (name, bv, cv) in [
            ("level_misses", &b.level_misses, &c.level_misses),
            ("reuse_counts", &b.reuse_counts, &c.reuse_counts),
        ] {
            if bv.len() != cv.len() {
                deltas.push(delta(b, &format!("{name}.len"), bv.len(), cv.len()));
                continue;
            }
            for (i, (x, y)) in bv.iter().zip(cv).enumerate() {
                if !within_u64(*x, *y, tolerance_pct) {
                    deltas.push(delta(b, &format!("{name}[{i}]"), x, y));
                }
            }
        }
    } else {
        // Wall: regression = the current interval's most optimistic end
        // is still slower than the baseline speedup minus the threshold.
        let floor = b.speedup / (1.0 + threshold_pct.max(0.0) / 100.0);
        if c.ci_hi < floor {
            deltas.push(delta(
                b,
                "speedup",
                format!("{:.4}", b.speedup),
                format!(
                    "{:.4} (ci {:.4}..{:.4}, p={:.4})",
                    c.speedup, c.ci_lo, c.ci_hi, c.sign_p
                ),
            ));
        }
    }
}

fn compare_order(b: &OrderEvent, c: &OrderEvent, tolerance_pct: f64, deltas: &mut Vec<GateDelta>) {
    if b.identity != c.identity {
        deltas.push(order_delta(b, "identity", &b.identity, &c.identity));
    }
    let scalars = [
        ("nodes_placed", b.nodes_placed, c.nodes_placed),
        ("heap_increments", b.heap_increments, c.heap_increments),
        ("heap_decrements", b.heap_decrements, c.heap_decrements),
        ("heap_pops", b.heap_pops, c.heap_pops),
    ];
    for (name, bv, cv) in scalars {
        if !within_u64(bv, cv, tolerance_pct) {
            deltas.push(order_delta(b, name, bv, cv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_obs::SCHEMA_VERSION;

    /// A one-dataset, two-ordering, one-kernel sim grid that runs in
    /// well under a second.
    fn tiny(mode: GateMode) -> GateConfig {
        GateConfig {
            mode,
            scale: 0.02,
            seed: 7,
            datasets: vec!["epinion".into()],
            orderings: vec!["Original".into(), "Gorder".into()],
            algos: vec!["NQ".into()],
            pairs: 3,
            warmup: 1,
            gorder_window: None,
        }
    }

    #[test]
    fn config_hash_ignores_the_window_hook() {
        let base = tiny(GateMode::Sim);
        let hooked = GateConfig {
            gorder_window: Some(1),
            ..base.clone()
        };
        assert_eq!(
            base.manifest().config_hash,
            hooked.manifest().config_hash,
            "the injected-regression hook must reach the comparison, not die on hash mismatch"
        );
        assert_eq!(base.manifest().started_unix_secs, 0);
        // ...but the wall knobs do hash in wall mode
        let wall = tiny(GateMode::Wall);
        let more_pairs = GateConfig {
            pairs: 9,
            ..wall.clone()
        };
        assert_ne!(
            wall.manifest().config_hash,
            more_pairs.manifest().config_hash
        );
        // ...and not in sim mode, where they are inert
        let sim_more_pairs = GateConfig {
            pairs: 9,
            ..base.clone()
        };
        assert_eq!(
            base.manifest().config_hash,
            sim_more_pairs.manifest().config_hash
        );
    }

    #[test]
    fn sim_run_is_deterministic_and_roundtrips() {
        let cfg = tiny(GateMode::Sim);
        let r1 = run_gate(&cfg).unwrap();
        let r2 = run_gate(&cfg).unwrap();
        let text = render_report(&r1);
        assert_eq!(
            text,
            render_report(&r2),
            "sim reports must be byte-identical"
        );
        assert_eq!(r1.cells.len(), 2);
        assert_eq!(r1.orders.len(), 2);
        assert!(r1
            .cells
            .iter()
            .all(|c| c.refs > 0 && !c.level_misses.is_empty()));
        // lossless round trip
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed, r1);
        assert_eq!(render_report(&parsed), text);
        // a report compares clean against itself, exactly
        assert!(compare(&r1, &parsed, 0.0, 5.0).passed());
    }

    #[test]
    fn injected_window_regression_is_caught_and_named() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let hooked = GateConfig {
            gorder_window: Some(1),
            ..cfg
        };
        let cur = run_gate(&hooked).unwrap();
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert!(!cmp.passed(), "w=1 must shift the simulated counters");
        assert!(
            cmp.deltas.iter().all(|d| d.ordering == "Gorder"),
            "only Gorder cells may drift: {:?}",
            cmp.deltas
        );
        let table = cmp.render_table();
        assert!(table.contains("Gorder") && table.contains("epinion"));
    }

    #[test]
    fn tolerance_absorbs_small_counter_drift() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let mut cur = base.clone();
        cur.cells[0].refs += 1;
        assert!(!compare(&base, &cur, 0.0, 5.0).passed());
        assert!(compare(&base, &cur, 1.0, 5.0).passed());
        // checksum drift is never tolerated
        cur.cells[0].checksum ^= 1;
        assert!(!compare(&base, &cur, 50.0, 5.0).passed());
    }

    #[test]
    fn missing_and_extra_cells_are_discrepancies() {
        let cfg = tiny(GateMode::Sim);
        let base = run_gate(&cfg).unwrap();
        let mut cur = base.clone();
        let moved = cur.cells.remove(0);
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.deltas[0].metric, "cell");
        assert_eq!(cmp.deltas[0].current, "missing");
        cur.cells.push(GateEvent {
            algo: "PR".into(),
            ..moved
        });
        let cmp = compare(&base, &cur, 0.0, 5.0);
        assert!(cmp.deltas.iter().any(|d| d.current == "present"));
    }

    #[test]
    fn parse_errors_name_line_and_byte_offset() {
        let cfg = tiny(GateMode::Sim);
        let text = render_report(&run_gate(&cfg).unwrap());
        // truncation: drop the final newline
        let err = parse_report(text.trim_end()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // corruption mid-file: garbage where line 2 starts
        let manifest_len = text.find('\n').unwrap() + 1;
        let corrupt = format!("{}not json\n", &text[..manifest_len]);
        let err = parse_report(&corrupt).unwrap_err();
        assert!(
            err.starts_with(&format!("line 2 (byte offset {manifest_len}):")),
            "{err}"
        );
        // foreign record kinds are rejected
        let foreign = format!("{}{{\"kind\":\"cell\",\"x\":1}}\n", &text[..manifest_len]);
        assert!(parse_report(&foreign)
            .unwrap_err()
            .contains("unexpected record kind"));
        // stale schema version names the fix
        let stale = text.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":1",
            1,
        );
        assert!(parse_report(&stale).unwrap_err().contains("--update"));
        // empty file
        assert!(parse_report("").unwrap_err().contains("empty gate file"));
    }

    #[test]
    fn wall_comparison_uses_the_interval_not_the_point() {
        let cfg = tiny(GateMode::Wall);
        let mk = |speedup: f64, ci_lo: f64, ci_hi: f64| GateReport {
            manifest: cfg.manifest(),
            cells: vec![GateEvent {
                mode: "wall".into(),
                dataset: "epinion".into(),
                ordering: "Gorder".into(),
                algo: "NQ".into(),
                checksum: 1,
                iterations: 1,
                edges_relaxed: 1,
                refs: 0,
                level_misses: Vec::new(),
                mem_accesses: 0,
                ops: 0,
                reuse_total: 0,
                reuse_sum: 0.0,
                reuse_counts: Vec::new(),
                pairs: 8,
                speedup,
                sign_p: 0.01,
                ci_lo,
                ci_hi,
            }],
            orders: Vec::new(),
        };
        let base = mk(1.30, 1.25, 1.35);
        // point estimate dropped, but the interval still reaches the
        // floor: not a regression
        let noisy = mk(1.20, 1.10, 1.30);
        assert!(compare(&base, &noisy, 0.0, 5.0).passed());
        // the whole interval is below baseline/1.05: regression
        let slow = mk(1.10, 1.05, 1.15);
        let cmp = compare(&base, &slow, 0.0, 5.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.deltas[0].metric, "speedup");
        // a bigger threshold forgives it
        assert!(compare(&base, &slow, 0.0, 25.0).passed());
    }

    #[test]
    fn wall_mode_requires_original() {
        let mut cfg = tiny(GateMode::Wall);
        cfg.orderings = vec!["Gorder".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("Original"));
    }

    #[test]
    fn wall_run_times_every_other_ordering_against_original() {
        let mut cfg = tiny(GateMode::Wall);
        cfg.orderings = vec!["original".into(), "Gorder".into()];
        let r = run_gate(&cfg).unwrap();
        // Original is resolved (and recorded) but has no cells: it is
        // the A side of every pair
        assert_eq!(r.orders.len(), 2);
        assert_eq!(r.cells.len(), 1);
        let c = &r.cells[0];
        assert_eq!(
            (c.mode.as_str(), c.ordering.as_str(), c.algo.as_str()),
            ("wall", "Gorder", "NQ")
        );
        assert_eq!(c.pairs, 3);
        assert!(c.speedup > 0.0 && c.ci_lo <= c.ci_hi, "{c:?}");
        assert!(r
            .orders
            .iter()
            .all(|o| o.seconds == 0.0 && o.threads_used == 1));
    }

    #[test]
    fn unknown_names_fail_fast() {
        let mut cfg = tiny(GateMode::Sim);
        cfg.datasets = vec!["nope".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("unknown dataset"));
        let mut cfg = tiny(GateMode::Sim);
        cfg.orderings = vec!["nope".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("unknown ordering"));
        let mut cfg = tiny(GateMode::Sim);
        cfg.algos = vec!["WCC+".into()];
        assert!(run_gate(&cfg).unwrap_err().contains("unknown algorithm"));
    }
}
