//! The unified ordering runner — the ordering-side twin of the kernel
//! engine's `run_kernel`.
//!
//! Every ordering construction in the harness goes through
//! [`run_ordering`]: it times the computation, collects the ordering's
//! internal counters into an [`OrderStats`], exports those counters to
//! the global [`gorder_obs`] registry **exactly once per run** (the
//! legacy `GorderStats::export` double-counted or under-counted
//! depending on which compute path the caller picked — that method is
//! gone), and hands back the permutation and stats together as an
//! [`OrderingRun`].
//!
//! [`run_by_name_plan`] is the string-keyed entry point the CLI and
//! sweeps use: it resolves a name against the extended registry
//! ([`crate::extensions::extended`]) and runs it under a plan + budget.
//! [`resolve_ordering`] puts the permutation cache and the `order` trace
//! record around a run; the sweeps, the CLI and the daemon all resolve
//! through it.

use std::time::Instant;

use gorder_core::budget::{Budget, ExecOutcome};
use gorder_engine::ExecPlan;
use gorder_graph::Graph;
use gorder_graph::Permutation;
use gorder_obs::OrderEvent;

use crate::{CacheKey, OrderCache, OrderingAlgorithm};

/// Counters and timings describing one ordering construction — the
/// ordering-side mirror of the engine's `KernelStats`. Heap counters are
/// zero for orderings that do not run on the unit heap.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OrderStats {
    /// Nodes the ordering placed (= `g.n()` for a completed run).
    pub nodes_placed: u64,
    /// Coalesced unit-heap updates with a positive net key change
    /// (Gorder family; one per touched candidate per placement step).
    pub heap_increments: u64,
    /// Coalesced unit-heap updates with a negative net key change
    /// (Gorder family).
    pub heap_decrements: u64,
    /// Unit-heap max-pops (Gorder family).
    pub heap_pops: u64,
    /// Coalesced unit-heap updates with a net key change of zero —
    /// bucket-position refreshes that keep per-unit tie-breaking intact
    /// (Gorder family).
    pub heap_refreshes: u64,
    /// Sibling propagations skipped by the hub threshold (Gorder family).
    pub hub_skips: u64,
    /// Seconds spent computing the permutation.
    pub compute_secs: f64,
    /// Seconds spent validating/finishing (bijection checks, mapping).
    pub finish_secs: f64,
    /// Worker threads the ordering actually used (1 for the serial zoo).
    pub threads_used: u32,
    /// Whether the run degraded (budget exhausted mid-build).
    pub degraded: bool,
    /// Whether the permutation came from the on-disk cache rather than
    /// being computed ([`crate::cache::OrderCache`]).
    pub cache_hit: bool,
}

impl OrderStats {
    /// Exports this run's counters to the global registry, namespaced
    /// under the ordering's name. Called exactly once per run by
    /// [`run_ordering`] — callers must not re-export.
    pub fn export(&self, ordering: &str) {
        let reg = gorder_obs::global();
        reg.counter_add(&format!("order.{ordering}.runs"), 1);
        reg.counter_add(&format!("order.{ordering}.nodes_placed"), self.nodes_placed);
        reg.counter_add(
            &format!("order.{ordering}.heap.increments"),
            self.heap_increments,
        );
        reg.counter_add(
            &format!("order.{ordering}.heap.decrements"),
            self.heap_decrements,
        );
        reg.counter_add(&format!("order.{ordering}.heap.pops"), self.heap_pops);
        reg.counter_add(
            &format!("order.{ordering}.heap.refreshes"),
            self.heap_refreshes,
        );
        reg.counter_add(&format!("order.{ordering}.hub_skips"), self.hub_skips);
        reg.span_record(&format!("order.{ordering}.compute"), self.compute_secs);
        reg.gauge_set(
            &format!("order.{ordering}.threads_used"),
            f64::from(self.threads_used),
        );
    }
}

/// A finished ordering construction: the permutation plus everything we
/// measured while building it.
#[derive(Debug, Clone)]
pub struct OrderingRun {
    /// The computed (or cache-loaded) permutation, `old id → new id`.
    pub perm: Permutation,
    /// Counters and timings for this construction.
    pub stats: OrderStats,
}

/// Runs one ordering under a plan and budget, returning the permutation
/// with populated [`OrderStats`]. This is the single stats path: counters
/// reach the global registry exactly once, here, on `Completed` and
/// `Degraded` outcomes (a run that produced no permutation exports
/// nothing).
pub fn run_ordering(
    o: &dyn OrderingAlgorithm,
    g: &Graph,
    plan: ExecPlan,
    budget: &Budget,
) -> ExecOutcome<OrderingRun> {
    let mut stats = OrderStats {
        threads_used: 1,
        ..OrderStats::default()
    };
    let t0 = Instant::now();
    let outcome = o.compute_plan(g, plan, budget, &mut stats);
    stats.compute_secs = t0.elapsed().as_secs_f64();
    let finish = |mut stats: OrderStats, perm: &Permutation, degraded: bool| {
        let t1 = Instant::now();
        stats.nodes_placed = u64::from(perm.len());
        stats.degraded = degraded;
        stats.finish_secs = t1.elapsed().as_secs_f64();
        stats.export(o.name());
        stats
    };
    match outcome {
        ExecOutcome::Completed(perm) => {
            let stats = finish(stats, &perm, false);
            ExecOutcome::Completed(OrderingRun { perm, stats })
        }
        ExecOutcome::Degraded(perm, reason) => {
            let stats = finish(stats, &perm, true);
            ExecOutcome::Degraded(OrderingRun { perm, stats }, reason)
        }
        ExecOutcome::TimedOut => ExecOutcome::TimedOut,
        ExecOutcome::Failed(e) => ExecOutcome::Failed(e),
    }
}

/// Resolves `name` against the extended registry (case-insensitively)
/// and runs it via [`run_ordering`]. `None` means the name is unknown —
/// callers can offer [`crate::suggest_name`] in their error message.
pub fn run_by_name_plan(
    name: &str,
    seed: u64,
    g: &Graph,
    plan: ExecPlan,
    budget: &Budget,
) -> Option<ExecOutcome<OrderingRun>> {
    let o = crate::by_name_extended(name, seed)?;
    Some(run_ordering(o.as_ref(), g, plan, budget))
}

/// Resolves one ordering of a graph with `n` nodes: loads it from `cache`
/// under `key` when present, otherwise calls `compute` (normally
/// [`run_ordering`], possibly under the caller's guard) and stores a
/// **completed** permutation back — degraded ones depend on the budget
/// that cut them short, not just the key, and would poison warm runs.
/// Either way the resolution is described by an `order` record labelled
/// `dataset`. `key` must be the ordering's key for the graph; nothing
/// here hashes the graph.
pub fn resolve_ordering(
    key: &CacheKey,
    n: u32,
    cache: Option<&OrderCache>,
    dataset: Option<&str>,
    compute: impl FnOnce() -> ExecOutcome<OrderingRun>,
) -> (ExecOutcome<Permutation>, OrderEvent) {
    let event = |status: &str, seconds: f64, stats: OrderStats| OrderEvent {
        dataset: dataset.map(str::to_string),
        name: key.ordering.clone(),
        params: key.params.clone(),
        seed: key.seed,
        graph_digest: key.graph_digest,
        identity: key.identity(),
        status: status.to_string(),
        seconds,
        nodes_placed: stats.nodes_placed,
        heap_increments: stats.heap_increments,
        heap_decrements: stats.heap_decrements,
        heap_pops: stats.heap_pops,
        threads_used: u64::from(stats.threads_used),
        cache_hit: stats.cache_hit,
    };
    if let Some(cache) = cache {
        let started = Instant::now();
        if let Some(perm) = cache.load(key, n) {
            let stats = OrderStats {
                nodes_placed: u64::from(perm.len()),
                threads_used: 1,
                cache_hit: true,
                ..Default::default()
            };
            let ev = event("completed", started.elapsed().as_secs_f64(), stats);
            return (ExecOutcome::Completed(perm), ev);
        }
    }
    let outcome = compute();
    if let (Some(cache), ExecOutcome::Completed(run)) = (cache, &outcome) {
        if let Err(e) = cache.store(key, &run.perm) {
            eprintln!(
                "[order-cache] warning: could not store {}: {e}",
                key.identity()
            );
        }
    }
    let stats = outcome.value_ref().map(|run| run.stats).unwrap_or_default();
    let ev = event(outcome.status_label(), stats.compute_secs, stats);
    (outcome.map(|run| run.perm), ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_valid_for;
    use gorder_graph::gen::copying_model;

    fn graph() -> Graph {
        copying_model(300, 5, 0.6, 11)
    }

    #[test]
    fn runner_completes_with_populated_stats() {
        let g = graph();
        let run = run_by_name_plan("Gorder", 1, &g, ExecPlan::Serial, &Budget::unlimited())
            .expect("known name")
            .value()
            .expect("completes");
        assert_valid_for(&run.perm, &g);
        assert_eq!(run.stats.nodes_placed, u64::from(g.n()));
        assert!(run.stats.heap_pops > 0, "gorder pops the heap");
        assert!(run.stats.heap_increments > 0);
        assert_eq!(run.stats.threads_used, 1);
        assert!(!run.stats.degraded);
        assert!(!run.stats.cache_hit);
    }

    #[test]
    fn unknown_name_is_none() {
        let g = Graph::empty(1);
        assert!(run_by_name_plan("Metis", 1, &g, ExecPlan::Serial, &Budget::unlimited()).is_none());
    }

    #[test]
    fn plans_never_change_results() {
        let g = graph();
        for name in crate::extended_names() {
            let serial = run_by_name_plan(name, 3, &g, ExecPlan::Serial, &Budget::unlimited())
                .unwrap()
                .value()
                .unwrap();
            let planned =
                run_by_name_plan(name, 3, &g, ExecPlan::with_threads(4), &Budget::unlimited())
                    .unwrap()
                    .value()
                    .unwrap();
            assert_eq!(
                serial.perm.as_slice(),
                planned.perm.as_slice(),
                "{name} permutation must be plan-independent"
            );
        }
    }

    #[test]
    fn resolution_stores_completed_runs_and_hits_them_later() {
        let g = graph();
        let o = crate::Rcm;
        let key = CacheKey::for_ordering(&g, &o, 5);
        let dir = std::env::temp_dir().join(format!("gorder-resolve-{}", std::process::id()));
        let cache = OrderCache::new(&dir).unwrap();
        let run = || run_ordering(&o, &g, ExecPlan::Serial, &Budget::unlimited());
        let (cold, cold_ev) = resolve_ordering(&key, g.n(), Some(&cache), Some("d"), run);
        let (warm, warm_ev) = resolve_ordering(&key, g.n(), Some(&cache), Some("d"), || {
            panic!("a cache hit must not compute")
        });
        assert_eq!(
            cold.value().unwrap().as_slice(),
            warm.value().unwrap().as_slice()
        );
        assert!(!cold_ev.cache_hit && warm_ev.cache_hit);
        assert_eq!(cold_ev.identity, warm_ev.identity);
        assert_eq!(warm_ev.dataset.as_deref(), Some("d"));
        // a run that produced nothing is still described, never stored
        let other = CacheKey { seed: 6, ..key };
        let (failed, ev) = resolve_ordering(&other, g.n(), Some(&cache), None, || {
            ExecOutcome::Failed("boom".into())
        });
        assert_eq!(failed, ExecOutcome::Failed("boom".into()));
        assert_eq!((ev.status.as_str(), ev.nodes_placed), ("failed", 0));
        assert!(cache.load(&other, g.n()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_run_reports_degraded_stats() {
        let g = graph();
        let budget = Budget::unlimited().with_node_cap(32);
        match run_by_name_plan("Gorder", 1, &g, ExecPlan::Serial, &budget).unwrap() {
            ExecOutcome::Degraded(run, _) => {
                assert_valid_for(&run.perm, &g);
                assert!(run.stats.degraded);
            }
            other => panic!("expected degraded, got {}", other.status_label()),
        }
    }
}
