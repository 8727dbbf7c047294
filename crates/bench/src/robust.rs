//! The one sweep driver, and the fault isolation it runs every step
//! under.
//!
//! [`sweep`] walks datasets × orderings × kernels for every grid in the
//! harness: fig5 (modelled or wall-clock), fig6's fallback and the
//! regression gate (sim or wall). It owns what does not vary between
//! them — the lazy dataset build, ordering resolution (permutation cache,
//! resume lookup, `order` record), the relabel and the source mapping —
//! and the caller supplies the ordering pool and the per-cell
//! [`Measure`].
//!
//! **No single cell can take down the sweep.** Every ordering
//! computation and every cell runs through [`run_guarded`]: under
//! `catch_unwind`, and with a deadline on its own watched thread.
//! Cooperative work (the anytime orderings) receives a [`Budget`] and
//! degrades on its own; a panicking cell is recorded as failed; a cell
//! that ignores its budget past the grace period is abandoned as timed
//! out. The sweep then continues, and a skip report lists everything
//! that did not complete.

use crate::experiment::CellResult;
use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_engine::parallel::panic_message;
use gorder_graph::datasets::Dataset;
use gorder_graph::{Graph, Permutation};
use gorder_obs::OrderEvent;
use gorder_orders::{
    graph_digest, run_ordering, CacheKey, ExecPlan, OrderCache, OrderingAlgorithm, OrderingRun,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How one sweep cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran to completion.
    Completed,
    /// Its ordering ran out of budget and fell back to a weaker, still
    /// valid layout; the cell's numbers describe that layout.
    Degraded(DegradeReason),
    /// Produced nothing before the watchdog gave up on it.
    TimedOut,
    /// Panicked or hit an internal error (message attached).
    Failed(String),
}

impl CellStatus {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellStatus::Completed => "completed",
            CellStatus::Degraded(_) => "degraded",
            CellStatus::TimedOut => "timed-out",
            CellStatus::Failed(_) => "failed",
        }
    }

    /// Whether the cell produced usable numbers (completed or degraded).
    pub fn is_usable(&self) -> bool {
        matches!(self, CellStatus::Completed | CellStatus::Degraded(_))
    }
}

/// One cell of fig5's grid: the [`CellResult`] numbers plus how
/// the cell ended. Timed-out and failed cells carry zeroed numbers.
#[derive(Debug, Clone)]
pub struct RobustCell {
    /// The timing/checksum payload (zeroed unless the status is usable).
    pub result: CellResult,
    /// How the cell ended.
    pub status: CellStatus,
}

/// Everything a guarded sweep produced.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// All cells, in grid order — including the unusable ones.
    pub cells: Vec<RobustCell>,
}

impl SweepReport {
    /// The usable cells (completed + degraded), as plain results.
    pub fn usable(&self) -> Vec<CellResult> {
        self.cells
            .iter()
            .filter(|c| c.status.is_usable())
            .map(|c| c.result.clone())
            .collect()
    }

    /// The cells that produced no numbers.
    pub fn skipped(&self) -> Vec<&RobustCell> {
        self.cells
            .iter()
            .filter(|c| !c.status.is_usable())
            .collect()
    }

    /// Prints one stderr line per non-completed cell (degradations and
    /// skips), then a one-line summary. Prints nothing when every cell
    /// completed.
    pub fn print_skip_report(&self) {
        let mut degraded = 0usize;
        let mut skipped = 0usize;
        for cell in &self.cells {
            let r = &cell.result;
            match &cell.status {
                CellStatus::Completed => {}
                CellStatus::Degraded(reason) => {
                    degraded += 1;
                    eprintln!(
                        "[sweep] degraded {}/{}/{}: {}",
                        r.dataset, r.ordering, r.algo, reason
                    );
                }
                CellStatus::TimedOut => {
                    skipped += 1;
                    eprintln!(
                        "[sweep] skipped {}/{}/{}: timed out",
                        r.dataset, r.ordering, r.algo
                    );
                }
                CellStatus::Failed(msg) => {
                    skipped += 1;
                    eprintln!(
                        "[sweep] skipped {}/{}/{}: failed: {}",
                        r.dataset, r.ordering, r.algo, msg
                    );
                }
            }
        }
        if degraded + skipped > 0 {
            eprintln!(
                "[sweep] {} of {} cells completed ({} degraded, {} skipped)",
                self.cells.len() - skipped,
                self.cells.len(),
                degraded,
                skipped
            );
        }
    }
}

/// Extra time the watchdog allows beyond the budget deadline: first for
/// the worker to finish normally or notice the deadline cooperatively,
/// then again after an explicit cancellation before the worker is
/// abandoned. Large enough that sub-millisecond cells never time out
/// spuriously on a loaded machine.
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Threads the watchdog walked away from. Abandoning a handle used to
/// mean `drop(worker)` — the thread could never be joined again, so a
/// sweep full of timeouts accumulated runaway threads (and their
/// captured graphs) until exit. Handles now land here instead, and
/// [`reap_abandoned`] joins the ones that have since noticed their
/// cancelled budget and returned.
static ABANDONED: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());

/// Joins every abandoned worker that has finished since the last call,
/// releasing its stack and captured state; still-running workers stay in
/// the registry. Returns how many were reaped. Called opportunistically
/// at every [`run_guarded`] entry, so a long sweep cleans up after its
/// own timeouts instead of hoarding dead threads.
pub fn reap_abandoned() -> usize {
    let finished: Vec<JoinHandle<()>> = {
        let mut held = ABANDONED.lock().unwrap();
        let (done, still) = std::mem::take(&mut *held)
            .into_iter()
            .partition(|h| h.is_finished());
        *held = still;
        done
    };
    // join outside the lock: a finished thread joins instantly, but
    // there is no reason to hold the registry closed while it does
    let n = finished.len();
    for h in finished {
        let _ = h.join();
    }
    n
}

/// Abandoned workers still running (timed-out cells that have not yet
/// honoured their cancelled budget).
pub fn abandoned_count() -> usize {
    ABANDONED.lock().unwrap().len()
}

/// Runs `f` isolated on its own thread under `catch_unwind` and a
/// watchdog deadline. `f` receives a [`Budget`] carrying the deadline so
/// cooperative work can degrade instead of being abandoned. A panic maps
/// to [`ExecOutcome::Failed`]; a worker that is still running one grace
/// period after the deadline is cancelled, and abandoned one grace
/// period later with [`ExecOutcome::TimedOut`]. Abandoned workers are
/// not leaked: their handles land in the abandoned-handle registry and are
/// joined by [`reap_abandoned`] (called here on every entry) once they
/// notice their cancelled budget and return.
///
/// With `timeout = None` the closure simply runs on the current thread
/// under `catch_unwind` with an unlimited budget.
pub fn run_guarded<T, F>(timeout: Option<Duration>, f: F) -> ExecOutcome<T>
where
    T: Send + 'static,
    F: FnOnce(&Budget) -> ExecOutcome<T> + Send + 'static,
{
    reap_abandoned();
    let Some(timeout) = timeout else {
        let budget = Budget::unlimited();
        return match catch_unwind(AssertUnwindSafe(|| f(&budget))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                ExecOutcome::Failed(format!("panicked: {}", panic_message(payload.as_ref())))
            }
        };
    };
    let budget = Budget::unlimited().with_timeout(timeout);
    let worker_budget = budget.clone();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(&worker_budget))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                ExecOutcome::Failed(format!("panicked: {}", panic_message(payload.as_ref())))
            }
        };
        // the watchdog may already have walked away; that's fine
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(timeout + WATCHDOG_GRACE) {
        Ok(outcome) => {
            let _ = worker.join();
            outcome
        }
        Err(_) => {
            budget.cancel();
            match rx.recv_timeout(WATCHDOG_GRACE) {
                Ok(outcome) => {
                    let _ = worker.join();
                    outcome
                }
                Err(_) => {
                    // the budget is cancelled; park the handle so a
                    // later reap joins the thread when it gives up
                    ABANDONED.lock().unwrap().push(worker);
                    ExecOutcome::TimedOut
                }
            }
        }
    }
}

/// Computes `o` through the unified runner ([`run_ordering`]) under
/// [`run_guarded`]: per-ordering stats are exported to the registry
/// exactly once, the watchdog budget is threaded through, and a panic or
/// hang is contained.
pub fn guarded_ordering_run(
    o: &Arc<dyn OrderingAlgorithm>,
    g: &Arc<Graph>,
    plan: ExecPlan,
    timeout: Option<Duration>,
) -> ExecOutcome<OrderingRun> {
    let o = Arc::clone(o);
    let g = Arc::clone(g);
    run_guarded(timeout, move |budget| {
        run_ordering(o.as_ref(), &g, plan, budget)
    })
}

/// Resolves ordering `o` of `g` (keyed `key`) through
/// [`gorder_orders::resolve_ordering`], computing a cache miss serially
/// with [`guarded_ordering_run`]. The `order` record comes back with the
/// outcome, whether it completed, degraded, timed out or failed.
pub fn resolve_ordering(
    o: &Arc<dyn OrderingAlgorithm>,
    g: &Arc<Graph>,
    key: &CacheKey,
    dataset: &str,
    timeout: Option<Duration>,
    cache: Option<&OrderCache>,
) -> (ExecOutcome<Permutation>, OrderEvent) {
    gorder_orders::resolve_ordering(key, g.n(), cache, Some(dataset), || {
        guarded_ordering_run(o, g, ExecPlan::Serial, timeout)
    })
}

/// A resume lookup: maps `(dataset, ordering, algo)` to the cell a prior
/// run's trace recovered, or `None` when the cell must re-run.
pub type RecoveredLookup<'a, T> = &'a dyn Fn(&str, &str, &str) -> Option<T>;

/// The work of one cell, handed to the driver to run under the cell's
/// guard.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// A per-cell measurement: given a prepared layout and a kernel name, the
/// job that measures the cell, or `None` when the layout has no cell for
/// that kernel (the wall gate times `Original` only as the A side of
/// every other ordering's pairs).
pub type Measure<'a, T> = dyn FnMut(&Layout<'_>, &'static str) -> Option<Job<T>> + 'a;

/// One dataset relabelled by one ordering, ready to measure.
pub struct Layout<'a> {
    /// Dataset name.
    pub dataset: &'static str,
    /// Ordering name.
    pub ordering: &'static str,
    /// The dataset's graph as built (the `Original` layout).
    pub base: &'a Arc<Graph>,
    /// The logical source on `base`: its highest out-degree node.
    pub base_source: u32,
    /// `base` relabelled by the ordering.
    pub graph: &'a Arc<Graph>,
    /// `base_source` mapped through the ordering, so every layout solves
    /// the same problem instance.
    pub source: u32,
}

/// What one sweep covers (datasets × orderings × kernels, in that
/// nesting) and how it resolves orderings.
pub struct Sweep<'a, T> {
    /// Datasets, built lazily at `scale`.
    pub datasets: Vec<Dataset>,
    /// Dataset size multiplier.
    pub scale: f64,
    /// The ordering pool, in cell order.
    pub orderings: Vec<Arc<dyn OrderingAlgorithm>>,
    /// Kernel names, in cell order.
    pub kernels: Vec<&'static str>,
    /// The seed the pool was built with (part of every cache key).
    pub seed: u64,
    /// Watchdog deadline for each ordering and each cell; `None` runs
    /// them inline under `catch_unwind` with an unlimited budget.
    pub timeout: Option<Duration>,
    /// Permutation cache to consult and populate.
    pub cache: Option<&'a OrderCache>,
    /// Cells a prior run's trace recovered.
    pub recovered: Option<RecoveredLookup<'a, T>>,
}

/// One cell as the driver decided it.
#[derive(Debug)]
pub struct SweepCell<T> {
    /// Dataset name.
    pub dataset: &'static str,
    /// Ordering name.
    pub ordering: &'static str,
    /// Kernel name.
    pub algo: &'static str,
    /// How the cell ended.
    pub status: CellStatus,
    /// The measurement; `None` unless the status is usable.
    pub value: Option<T>,
}

/// The sweep driver: every kernel cell of every ordering of every
/// dataset in `grid`, decided in that order and handed to `on_cell` the
/// moment it is decided; `on_order` receives one `order` record per
/// resolved ordering.
///
/// A (dataset, ordering) pair whose every cell `grid.recovered` knows is
/// emitted as completed without resolving the ordering, and a dataset
/// whose every pair is recovered is never built. A pair with any missing
/// cell re-runs whole: the ordering must be recomputed anyway, so partial
/// recovery would mix a fresh permutation with stale numbers. An ordering
/// that times out, fails or returns a permutation of the wrong length
/// marks all of its cells so; cells of a degraded ordering are degraded.
pub fn sweep<T: Send + 'static>(
    grid: &Sweep<'_, T>,
    measure: &mut Measure<'_, T>,
    on_order: &mut dyn FnMut(&OrderEvent),
    on_cell: &mut dyn FnMut(SweepCell<T>),
) {
    for d in &grid.datasets {
        // built lazily: a fully recovered dataset is never constructed
        let mut built: Option<(Arc<Graph>, u32, u64)> = None;
        for o in &grid.orderings {
            let cell = |algo, status, value| SweepCell {
                dataset: d.name,
                ordering: o.name(),
                algo,
                status,
                value,
            };
            let recovered: Option<Vec<T>> = grid.recovered.and_then(|rec| {
                grid.kernels
                    .iter()
                    .map(|a| rec(d.name, o.name(), a))
                    .collect()
            });
            if let Some(values) = recovered {
                for (&a, v) in grid.kernels.iter().zip(values) {
                    on_cell(cell(a, CellStatus::Completed, Some(v)));
                }
                eprintln!(
                    "[grid]   {}/{} recovered from trace ({} cells)",
                    d.name,
                    o.name(),
                    grid.kernels.len()
                );
                continue;
            }
            let (g, base_source, digest) = built.get_or_insert_with(|| {
                let g = Arc::new(d.build(grid.scale));
                eprintln!("[grid] {}: n = {}, m = {}", d.name, g.n(), g.m());
                let source = g.max_degree_node().unwrap_or(0);
                let digest = graph_digest(&g);
                (g, source, digest)
            });
            let key = CacheKey::with_digest(*digest, o.as_ref(), grid.seed);
            let (outcome, event) = resolve_ordering(o, g, &key, d.name, grid.timeout, grid.cache);
            on_order(&event);
            let resolved = match outcome {
                ExecOutcome::Completed(p) => Ok((p, CellStatus::Completed)),
                ExecOutcome::Degraded(p, reason) => Ok((p, CellStatus::Degraded(reason))),
                ExecOutcome::TimedOut => Err(CellStatus::TimedOut),
                ExecOutcome::Failed(msg) => Err(CellStatus::Failed(msg)),
            }
            .and_then(|(p, status)| {
                if p.len() == g.n() {
                    Ok((p, status))
                } else {
                    Err(CellStatus::Failed(format!(
                        "returned a permutation over {} nodes for a {}-node graph",
                        p.len(),
                        g.n()
                    )))
                }
            });
            let (perm, ordering_status) = match resolved {
                Ok(resolved) => resolved,
                Err(status) => {
                    for &a in &grid.kernels {
                        on_cell(cell(a, status.clone(), None));
                    }
                    eprintln!("[grid]   {} {}", o.name(), status.label());
                    continue;
                }
            };
            let relabelled = Arc::new(g.relabel(&perm));
            let layout = Layout {
                dataset: d.name,
                ordering: o.name(),
                base: g,
                base_source: *base_source,
                graph: &relabelled,
                source: perm.apply(*base_source),
            };
            for &a in &grid.kernels {
                let Some(job) = measure(&layout, a) else {
                    continue;
                };
                let outcome = run_guarded(grid.timeout, move |_budget| {
                    // fault point: holds a crashing-sweep test mid-grid,
                    // before anything is timed or replayed
                    gorder_obs::faults::slow_cell("bench.cell");
                    ExecOutcome::Completed(job())
                });
                let status = match &outcome {
                    ExecOutcome::TimedOut => CellStatus::TimedOut,
                    ExecOutcome::Failed(msg) => CellStatus::Failed(msg.clone()),
                    _ => ordering_status.clone(),
                };
                on_cell(cell(a, status, outcome.value()));
            }
            eprintln!("[grid]   {} done ({})", o.name(), ordering_status.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_grid, GridConfig};
    use gorder_engine::KernelStats;
    use gorder_graph::datasets::epinion_like;

    struct Panicker;
    impl OrderingAlgorithm for Panicker {
        fn name(&self) -> &'static str {
            "Panicker"
        }
        fn compute(&self, _g: &Graph) -> Permutation {
            panic!("injected ordering fault")
        }
    }

    struct Hang;
    impl OrderingAlgorithm for Hang {
        fn name(&self) -> &'static str {
            "Hang"
        }
        fn compute(&self, g: &Graph) -> Permutation {
            // non-cooperative: ignores every budget signal
            std::thread::sleep(Duration::from_secs(600));
            Permutation::identity(g.n())
        }
        fn compute_budgeted(&self, g: &Graph, _budget: &Budget) -> ExecOutcome<Permutation> {
            ExecOutcome::Completed(self.compute(g))
        }
    }

    fn tiny_cfg() -> GridConfig {
        GridConfig {
            scale: 0.02,
            reps: 1,
            seed: 1,
            quick: true,
            datasets: vec![epinion_like()],
            orderings: None,
            algos: Some(vec!["NQ".into(), "BFS".into()]),
            extended: false,
            threads: 1,
        }
    }

    /// fig5's grid for `cfg` with the driver options `grid` overrides.
    fn run(
        grid: Sweep<'_, CellResult>,
        mut measure: Box<Measure<'static, CellResult>>,
    ) -> SweepReport {
        run_grid(&grid, &mut *measure, &mut |_| {}, &mut |_| {})
    }

    fn sweep_of<'a>(cfg: &GridConfig) -> Sweep<'a, CellResult> {
        cfg.sweep().expect("test filters resolve")
    }

    #[test]
    fn robust_parallel_grid_matches_serial() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        let watched = |cfg: &GridConfig| {
            let grid = Sweep {
                timeout: Some(Duration::from_secs(60)),
                ..sweep_of(cfg)
            };
            run(grid, cfg.wall_measure())
        };
        let serial = watched(&cfg);
        cfg.threads = 3;
        let parallel = watched(&cfg);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.usable().iter().zip(&parallel.usable()) {
            assert_eq!(s.checksum, p.checksum, "{}/{}", s.ordering, s.algo);
            assert_eq!(s.stats.iterations, p.stats.iterations);
            assert_eq!(s.stats.edges_relaxed, p.stats.edges_relaxed);
            assert_eq!(p.stats.threads_used, 3);
        }
    }

    #[test]
    fn guarded_closure_completes() {
        let out = run_guarded(Some(Duration::from_secs(5)), |_b| {
            ExecOutcome::Completed(41 + 1)
        });
        assert_eq!(out, ExecOutcome::Completed(42));
    }

    #[test]
    fn guarded_panic_is_failed_not_fatal() {
        let out: ExecOutcome<u32> = run_guarded(Some(Duration::from_secs(5)), |_b| panic!("boom"));
        match out {
            ExecOutcome::Failed(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Failed, got {}", other.status_label()),
        }
    }

    #[test]
    fn guarded_panic_without_watchdog() {
        let out: ExecOutcome<u32> = run_guarded(None, |_b| panic!("inline boom"));
        match out {
            ExecOutcome::Failed(msg) => assert!(msg.contains("inline boom"), "{msg}"),
            other => panic!("expected Failed, got {}", other.status_label()),
        }
    }

    #[test]
    fn guarded_hang_times_out() {
        let out: ExecOutcome<u32> = run_guarded(Some(Duration::from_millis(10)), |_b| {
            std::thread::sleep(Duration::from_secs(600));
            ExecOutcome::Completed(0)
        });
        assert_eq!(out, ExecOutcome::TimedOut);
    }

    #[test]
    fn guarded_cooperative_degrade_survives_deadline() {
        // A worker that honours cancellation returns Degraded, not
        // TimedOut: it notices the cancel flag during the grace period.
        let out = run_guarded(Some(Duration::from_millis(10)), |budget| loop {
            if let Some(reason) = budget.exhausted(0) {
                return ExecOutcome::Degraded(7u32, reason);
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        match out {
            ExecOutcome::Degraded(7, _) => {}
            other => panic!("expected Degraded(7), got {}", other.status_label()),
        }
    }

    #[test]
    fn sweep_survives_panicking_and_hanging_orderings() {
        let cfg = tiny_cfg();
        let pool: Vec<Arc<dyn OrderingAlgorithm>> = vec![
            Arc::new(gorder_orders::Original),
            Arc::new(Panicker),
            Arc::new(Hang),
            Arc::new(gorder_orders::ChDfs),
        ];
        let grid = Sweep {
            orderings: pool,
            timeout: Some(Duration::from_millis(50)),
            ..sweep_of(&cfg)
        };
        let mut events: Vec<OrderEvent> = Vec::new();
        let report = run_grid(
            &grid,
            &mut *cfg.wall_measure(),
            &mut |e| events.push(e.clone()),
            &mut |_| {},
        );
        // 4 orderings × 2 algos, every cell present
        assert_eq!(report.cells.len(), 8);
        let by = |ordering: &str| -> Vec<&RobustCell> {
            report
                .cells
                .iter()
                .filter(|c| c.result.ordering == ordering)
                .collect()
        };
        for c in by("Original").iter().chain(by("ChDFS").iter()) {
            assert_eq!(c.status, CellStatus::Completed, "{:?}", c.result);
        }
        for c in by("Panicker") {
            match &c.status {
                CellStatus::Failed(msg) => {
                    assert!(msg.contains("injected ordering fault"), "{msg}")
                }
                other => panic!("Panicker cell should fail, got {}", other.label()),
            }
        }
        for c in by("Hang") {
            assert_eq!(c.status, CellStatus::TimedOut, "{:?}", c.result);
        }
        // the skip report names exactly the unusable cells
        assert_eq!(report.skipped().len(), 4);
        assert_eq!(report.usable().len(), 4);
        report.print_skip_report();
        // every resolution is recorded, including the ones that produced
        // nothing
        let statuses: Vec<&str> = events.iter().map(|e| e.status.as_str()).collect();
        assert_eq!(statuses, ["completed", "failed", "timed-out", "completed"]);
        assert!(events
            .iter()
            .all(|e| e.dataset.as_deref() == Some("epinion")));
    }

    #[test]
    fn observer_sees_every_cell_in_report_order() {
        let cfg = tiny_cfg();
        let grid = Sweep {
            orderings: vec![Arc::new(gorder_orders::Original), Arc::new(Panicker)],
            timeout: Some(Duration::from_secs(60)),
            ..sweep_of(&cfg)
        };
        let mut seen: Vec<(String, String, &'static str)> = Vec::new();
        let report = run_grid(&grid, &mut *cfg.wall_measure(), &mut |_| {}, &mut |c| {
            seen.push((
                c.result.ordering.clone(),
                c.result.algo.clone(),
                c.status.label(),
            ));
        });
        // failed cells stream through the observer just like completed ones
        assert_eq!(seen.len(), report.cells.len());
        assert_eq!(report.skipped().len(), 2);
        for (s, c) in seen.iter().zip(&report.cells) {
            assert_eq!(s.0, c.result.ordering);
            assert_eq!(s.1, c.result.algo);
            assert_eq!(s.2, c.status.label());
        }
    }

    #[test]
    fn inline_and_watchdog_paths_give_identical_sim_cells() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        let inline = run(sweep_of(&cfg), cfg.sim_measure());
        let watched = run(
            Sweep {
                timeout: Some(Duration::from_secs(60)),
                ..sweep_of(&cfg)
            },
            cfg.sim_measure(),
        );
        assert_eq!(inline.cells.len(), 4);
        assert_eq!(inline.cells.len(), watched.cells.len());
        for (i, w) in inline.cells.iter().zip(&watched.cells) {
            assert_eq!(i.status, CellStatus::Completed, "{:?}", i.result);
            assert_eq!(w.status, CellStatus::Completed, "{:?}", w.result);
            assert!(i.result.seconds > 0.0, "{:?}", i.result);
            // modelled seconds, checksums and counters are bit-identical
            // (only the kernels' own wall timings may differ)
            let numbers = |c: &CellResult| {
                let s = &c.stats;
                (
                    c.dataset.clone(),
                    c.ordering.clone(),
                    c.algo.clone(),
                    c.seconds.to_bits(),
                    c.checksum,
                    (
                        s.iterations,
                        s.edges_relaxed,
                        s.frontier_pushes,
                        s.frontier_peak,
                    ),
                    s.threads_used,
                )
            };
            assert_eq!(numbers(&i.result), numbers(&w.result));
        }
    }

    #[test]
    fn resumed_grid_recovers_cells_verbatim_and_recomputes_the_rest() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Original".into(), "ChDFS".into()]);
        let watched = || Sweep {
            timeout: Some(Duration::from_secs(60)),
            ..sweep_of(&cfg)
        };
        // sim mode: modelled seconds are deterministic, so recomputed
        // cells must match the fresh sweep exactly
        let fresh = run(watched(), cfg.sim_measure());
        // pretend Original's cells survived a crash; ChDFS's did not
        let rec = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
            fresh
                .cells
                .iter()
                .find(|c| {
                    ordering == "Original"
                        && c.result.dataset == dataset
                        && c.result.ordering == ordering
                        && c.result.algo == algo
                })
                .map(|c| c.result.clone())
        };
        let grid = Sweep {
            recovered: Some(&rec),
            ..watched()
        };
        let mut observed = 0usize;
        let mut resolved: Vec<String> = Vec::new();
        let resumed = run_grid(
            &grid,
            &mut *cfg.sim_measure(),
            &mut |e| resolved.push(e.name.clone()),
            &mut |_| observed += 1,
        );
        assert_eq!(resumed.cells.len(), fresh.cells.len());
        assert_eq!(observed, fresh.cells.len(), "recovered cells still stream");
        assert_eq!(resolved, ["ChDFS"], "a recovered pair resolves no ordering");
        for (f, r) in fresh.cells.iter().zip(&resumed.cells) {
            assert_eq!(f.result.ordering, r.result.ordering);
            assert_eq!(f.result.algo, r.result.algo);
            assert_eq!(f.result.checksum, r.result.checksum);
            assert_eq!(f.result.seconds, r.result.seconds, "{:?}", r.result);
            assert_eq!(r.status, CellStatus::Completed);
        }
    }

    #[test]
    fn partially_recovered_pair_is_rerun_whole() {
        let mut cfg = tiny_cfg(); // algos: NQ + BFS
        cfg.orderings = Some(vec!["Original".into()]);
        // only NQ recovered: the ordering must be recomputed for BFS
        // anyway, so the sentinel recovery must be discarded
        let rec = |dataset: &str, ordering: &str, algo: &str| -> Option<CellResult> {
            (algo == "NQ").then(|| CellResult {
                dataset: dataset.to_string(),
                algo: algo.to_string(),
                ordering: ordering.to_string(),
                seconds: 999.0,
                checksum: 7,
                stats: KernelStats::default(),
            })
        };
        let grid = Sweep {
            timeout: Some(Duration::from_secs(60)),
            recovered: Some(&rec),
            ..sweep_of(&cfg)
        };
        let resumed = run(grid, cfg.sim_measure());
        assert_eq!(resumed.cells.len(), 2);
        for c in &resumed.cells {
            assert_ne!(c.result.seconds, 999.0, "{:?}", c.result);
            assert_eq!(c.status, CellStatus::Completed);
        }
    }
}
