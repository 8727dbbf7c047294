//! fig5's grid behind Figures 5/6/S1: its configuration, its cell type
//! and its two measurements, run through the one sweep driver
//! ([`sweep`]).
//!
//! For every dataset: build the graph, compute each ordering, relabel,
//! map the logical source node through the permutation (so every ordering
//! solves the *same* problem instance), and measure every algorithm. The
//! result is a flat list of cells, one per (dataset, ordering, algorithm).

use crate::robust::{sweep, Job, Layout, Measure, RobustCell, Sweep, SweepReport};
use crate::timing::median_secs;
use crate::HarnessArgs;
use gorder_cachesim::trace::replay_with_stats;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};
use gorder_engine::{ExecPlan, KernelCtx, KernelStats};
use gorder_graph::datasets::Dataset;
use gorder_obs::OrderEvent;
use gorder_orders::OrderingAlgorithm;
use std::sync::Arc;

/// The clock the stall model's cycles are converted at.
const CLOCK_HZ: f64 = 4e9;

/// Configuration for fig5's grid.
pub struct GridConfig {
    /// Dataset size multiplier.
    pub scale: f64,
    /// Timing repetitions per cell.
    pub reps: u32,
    /// Seed for randomised orderings and Diam sampling.
    pub seed: u64,
    /// Light algorithm parameters (fewer PR iterations / Diam sources).
    pub quick: bool,
    /// Datasets to run (paper order).
    pub datasets: Vec<Dataset>,
    /// Ordering-name filter (`None` = all ten, or all fourteen when
    /// `extended`), resolved by [`resolve_orderings`].
    pub orderings: Option<Vec<String>>,
    /// Algorithm-name filter (`None` = all nine, or all thirteen when
    /// `extended`), resolved by [`resolve_kernels`].
    pub algos: Option<Vec<String>>,
    /// Include the extension orderings (HubSort/HubCluster/DBG/Bisect)
    /// and extension algorithms (WCC/Tri/LP/BC) alongside the paper's.
    pub extended: bool,
    /// Worker threads granted to the engine kernels (1 = serial). Only
    /// affects wall-clock runs; the simulated grid always traces
    /// serially.
    pub threads: u32,
}

impl GridConfig {
    /// Full grid at the given scale.
    pub fn new(scale: f64, reps: u32, seed: u64, quick: bool) -> Self {
        GridConfig {
            scale,
            reps,
            seed,
            quick,
            datasets: gorder_graph::datasets::all(),
            orderings: None,
            algos: None,
            extended: false,
            threads: 1,
        }
    }

    /// The grid the harness flags describe: `--scale/--reps/--seed/
    /// --quick/--threads`, `--extended`, and the `--datasets/--orderings/
    /// --algos` filters. Unknown dataset names are an error here; ordering
    /// and algorithm names are checked by [`GridConfig::sweep`].
    pub fn from_args(args: &HarnessArgs) -> Result<Self, String> {
        let mut cfg = GridConfig::new(args.scale, args.reps, args.seed, args.quick);
        cfg.extended = args.has_flag("--extended");
        cfg.threads = args.threads;
        if let Some(names) = &args.datasets {
            cfg.datasets = names
                .iter()
                .map(|n| {
                    gorder_graph::datasets::by_name(n)
                        .ok_or_else(|| format!("--datasets: unknown dataset {n:?}"))
                })
                .collect::<Result<_, _>>()?;
        }
        cfg.orderings = args.orderings.clone();
        cfg.algos = args.algos.clone();
        Ok(cfg)
    }

    /// The execution plan implied by this configuration.
    pub fn exec_plan(&self) -> ExecPlan {
        ExecPlan::with_threads(self.threads)
    }

    /// The algorithm parameters implied by this configuration.
    pub fn run_ctx(&self) -> KernelCtx {
        KernelCtx {
            source: None,
            pr_iterations: if self.quick { 10 } else { 100 },
            damping: 0.85,
            diameter_samples: if self.quick { 4 } else { 16 },
            seed: self.seed,
        }
    }

    /// The sweep this configuration describes, with its filters resolved
    /// (so an unknown name fails before any graph is built) and no
    /// watchdog, cache or recovery.
    pub fn sweep<'a>(&self) -> Result<Sweep<'a, CellResult>, String> {
        Ok(Sweep {
            datasets: self.datasets.clone(),
            scale: self.scale,
            orderings: resolve_orderings(&self.orderings, self.extended, self.seed)?,
            kernels: resolve_kernels(&self.algos, self.extended)?,
            seed: self.seed,
            timeout: None,
            cache: None,
            recovered: None,
        })
    }

    /// fig5's `--wall` measurement: the median wall-clock seconds of
    /// `reps` engine runs under `threads`.
    pub fn wall_measure(&self) -> Box<Measure<'static, CellResult>> {
        let (base, plan, reps) = (self.run_ctx(), self.exec_plan(), self.reps);
        Box::new(move |l: &Layout<'_>, algo| {
            let g = Arc::clone(l.graph);
            let ctx = KernelCtx {
                source: Some(l.source),
                ..base.clone()
            };
            let mut cell = CellResult::blank(l.dataset, l.ordering, algo);
            let job: Job<CellResult> = Box::new(move || {
                let (seconds, checksum) = median_secs(
                    || {
                        let run = gorder_engine::run_by_name_plan(algo, &g, &ctx, plan)
                            .expect("grid kernels are engine kernels");
                        cell.stats = run.stats;
                        run.checksum
                    },
                    reps,
                );
                CellResult {
                    seconds,
                    checksum,
                    ..cell
                }
            });
            Some(job)
        })
    }

    /// fig5's default measurement: one replayed run through the scaled-
    /// down cache hierarchy, its `seconds` the stall model's cycles at
    /// 4 GHz. Replays cost ~40× native, so PR iterations and Diam sources
    /// are trimmed.
    ///
    /// The paper's wall-clock differences come from cache behaviour on
    /// machines whose LLC is tiny relative to the graphs, and
    /// commodity/cloud hosts (this reproduction's dev box has a 260 MiB
    /// L3) swallow laptop-scale datasets whole, hiding the effect wall
    /// clocks are supposed to show. The simulator restores the paper's
    /// working-set-to-cache ratio (DESIGN.md §3).
    pub fn sim_measure(&self) -> Box<Measure<'static, CellResult>> {
        let base = self.run_ctx();
        let trimmed = KernelCtx {
            pr_iterations: (base.pr_iterations / 5).max(2),
            diameter_samples: (base.diameter_samples / 4).max(2),
            ..base
        };
        Box::new(move |l: &Layout<'_>, algo| {
            let g = Arc::clone(l.graph);
            let ctx = KernelCtx {
                source: Some(l.source),
                ..trimmed.clone()
            };
            let cell = CellResult::blank(l.dataset, l.ordering, algo);
            let job: Job<CellResult> = Box::new(move || {
                let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
                let (checksum, stats) = replay_with_stats(algo, &g, &mut tracer, &ctx)
                    .expect("grid kernels are engine kernels");
                let cycles = tracer.breakdown(&StallModel::skylake()).total();
                CellResult {
                    seconds: cycles / CLOCK_HZ,
                    checksum,
                    stats,
                    ..cell
                }
            });
            Some(job)
        })
    }
}

/// One measured cell of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: String,
    /// Ordering label.
    pub ordering: String,
    /// Median wall-clock seconds, or modelled seconds.
    pub seconds: f64,
    /// Checksum of the last run (work-elision guard; relabeling-invariant
    /// where the algorithm's output is).
    pub checksum: u64,
    /// Engine execution metrics of the last run.
    pub stats: KernelStats,
}

impl CellResult {
    /// A cell with its names set and every number zeroed.
    pub fn blank(dataset: &str, ordering: &str, algo: &str) -> Self {
        CellResult {
            dataset: dataset.to_string(),
            algo: algo.to_string(),
            ordering: ordering.to_string(),
            seconds: 0.0,
            checksum: 0,
            stats: KernelStats::default(),
        }
    }
}

/// Runs fig5's grid: [`sweep`] with `measure`, every cell collected into
/// the report in grid order and streamed to `on_cell` the moment its fate
/// is decided, so an interrupted sweep leaves a reconstructable trace.
/// Cells that produced nothing carry zeroed numbers.
pub fn run_grid(
    grid: &Sweep<'_, CellResult>,
    measure: &mut Measure<'_, CellResult>,
    on_order: &mut dyn FnMut(&OrderEvent),
    on_cell: &mut dyn FnMut(&RobustCell),
) -> SweepReport {
    let mut report = SweepReport::default();
    sweep(grid, measure, on_order, &mut |c| {
        let cell = RobustCell {
            result: c
                .value
                .unwrap_or_else(|| CellResult::blank(c.dataset, c.ordering, c.algo)),
            status: c.status,
        };
        on_cell(&cell);
        report.cells.push(cell);
    });
    report
}

/// Resolves an `--orderings` filter before any work runs: each name,
/// case-insensitively, against the extended registry. Without a filter
/// the pool is the paper's ten, or all fourteen when `extended`. The
/// selection keeps registry order, so a filter never reorders cells. An
/// unknown name is an error naming it, with a "did you mean" suggestion
/// when one is close.
pub fn resolve_orderings(
    filter: &Option<Vec<String>>,
    extended: bool,
    seed: u64,
) -> Result<Vec<Arc<dyn OrderingAlgorithm>>, String> {
    let pool = if extended || filter.is_some() {
        gorder_orders::extensions::extended(seed)
    } else {
        gorder_orders::all(seed)
    };
    let pool = select(pool, filter, |o| o.name()).map_err(|name| {
        let hint = gorder_orders::suggest_name(&name)
            .map(|s| format!(" (did you mean {s:?}?)"))
            .unwrap_or_default();
        format!(
            "--orderings: unknown ordering {name:?}{hint}; \
             run `gorder-cli list-orderings` for the full set"
        )
    })?;
    Ok(pool.into_iter().map(Arc::from).collect())
}

/// Resolves an `--algos` filter like [`resolve_orderings`]: each name,
/// case-insensitively, against all thirteen engine kernels. Without a
/// filter the grid runs the nine paper kernels, then the four extension
/// kernels when `extended`.
pub fn resolve_kernels(
    filter: &Option<Vec<String>>,
    extended: bool,
) -> Result<Vec<&'static str>, String> {
    let mut all = gorder_engine::kernel_names();
    if extended || filter.is_some() {
        all.extend(gorder_engine::EXTENSION_KERNELS);
    }
    let known = all.join(", ");
    select(all, filter, |a| *a)
        .map_err(|name| format!("--algos: unknown algorithm {name:?}; known: {known}"))
}

/// The members of `pool` that `filter` names (case-insensitively), in
/// pool order; `Err` carries the first name matching none of them.
fn select<T>(
    pool: Vec<T>,
    filter: &Option<Vec<String>>,
    name: impl Fn(&T) -> &str,
) -> Result<Vec<T>, String> {
    let Some(names) = filter else { return Ok(pool) };
    let named = |x: &T| names.iter().any(|n| n.eq_ignore_ascii_case(name(x)));
    if let Some(unknown) = names
        .iter()
        .find(|n| !pool.iter().any(|x| n.eq_ignore_ascii_case(name(x))))
    {
        return Err(unknown.clone());
    }
    Ok(pool.into_iter().filter(|x| named(x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::datasets::epinion_like;

    fn tiny_cfg() -> GridConfig {
        GridConfig {
            scale: 0.02,
            reps: 1,
            seed: 1,
            quick: true,
            datasets: vec![epinion_like()],
            orderings: Some(vec!["Original".into(), "Gorder".into()]),
            algos: Some(vec!["NQ".into(), "BFS".into(), "Kcore".into()]),
            extended: false,
            threads: 1,
        }
    }

    /// The usable cells of `cfg`'s grid under `measure`; every cell must
    /// be usable.
    fn grid(cfg: &GridConfig, mut measure: Box<Measure<'static, CellResult>>) -> Vec<CellResult> {
        let sweep = cfg.sweep().expect("test filters resolve");
        let report = run_grid(&sweep, &mut *measure, &mut |_| {}, &mut |_| {});
        assert!(report.skipped().is_empty(), "{:?}", report.skipped());
        report.usable()
    }

    fn wall(cfg: &GridConfig) -> Vec<CellResult> {
        grid(cfg, cfg.wall_measure())
    }

    fn sim(cfg: &GridConfig) -> Vec<CellResult> {
        grid(cfg, cfg.sim_measure())
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let serial = wall(&tiny_cfg());
        let mut cfg = tiny_cfg();
        cfg.threads = 4;
        let parallel = wall(&cfg);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.checksum, p.checksum, "{}/{}", s.algo, s.ordering);
            assert_eq!(s.stats.iterations, p.stats.iterations);
            assert_eq!(s.stats.edges_relaxed, p.stats.edges_relaxed);
            assert_eq!(p.stats.threads_used, 4, "{}/{}", p.algo, p.ordering);
        }
    }

    #[test]
    fn extended_grid_includes_extensions() {
        let mut cfg = tiny_cfg();
        cfg.extended = true;
        cfg.orderings = Some(vec!["HubSort".into()]);
        cfg.algos = Some(vec!["WCC".into(), "Tri".into()]);
        let (wall, sim) = (wall(&cfg), sim(&cfg));
        assert_eq!(wall.len(), 2);
        assert_eq!(sim.len(), 2);
        for (w, s) in wall.iter().zip(&sim) {
            assert_eq!(w.checksum, s.checksum, "{}", w.algo);
        }
    }

    #[test]
    fn grid_shape() {
        let cells = wall(&tiny_cfg());
        assert_eq!(cells.len(), 2 * 3);
        assert!(cells.iter().all(|c| c.seconds >= 0.0));
    }

    #[test]
    fn invariant_checksums_agree_across_orderings() {
        // NQ, BFS (mapped source) and Kcore produce relabeling-invariant
        // checksums: Original and Gorder must agree per algorithm.
        let cells = wall(&tiny_cfg());
        for algo in ["NQ", "BFS", "Kcore"] {
            let sums: Vec<u64> = cells
                .iter()
                .filter(|c| c.algo == algo)
                .map(|c| c.checksum)
                .collect();
            assert_eq!(sums.len(), 2);
            assert_eq!(sums[0], sums[1], "{algo} differs across orderings");
        }
    }

    #[test]
    fn filters_apply() {
        let mut cfg = tiny_cfg();
        cfg.orderings = Some(vec!["Random".into()]);
        cfg.algos = Some(vec!["SP".into()]);
        let cells = wall(&cfg);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].ordering, "Random");
        assert_eq!(cells[0].algo, "SP");
    }

    #[test]
    fn filters_resolve_case_insensitively_in_registry_order() {
        // extension names need no --extended, and a filter's own order
        // never reorders cells
        let pool =
            resolve_orderings(&Some(vec!["hubsort".into(), "ORIGINAL".into()]), false, 1).unwrap();
        let names: Vec<&str> = pool.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["Original", "HubSort"]);
        let kernels = resolve_kernels(&Some(vec!["wcc".into(), "nq".into()]), false).unwrap();
        assert_eq!(kernels, ["NQ", "WCC"]);
        // unfiltered: the paper's sets, or all of them when extended
        assert_eq!(resolve_orderings(&None, false, 1).unwrap().len(), 10);
        assert_eq!(resolve_orderings(&None, true, 1).unwrap().len(), 14);
        assert_eq!(resolve_kernels(&None, false).unwrap().len(), 9);
        assert_eq!(resolve_kernels(&None, true).unwrap().len(), 13);
        // unknown names are errors, never an empty grid
        let err = resolve_orderings(&Some(vec!["Gordr".into()]), false, 1)
            .err()
            .expect("unknown ordering");
        assert!(
            err.contains("\"Gordr\"") && err.contains("did you mean"),
            "{err}"
        );
        let err = resolve_kernels(&Some(vec!["Nope".into()]), true).unwrap_err();
        assert!(err.contains("unknown algorithm \"Nope\""), "{err}");
    }

    #[test]
    fn sim_grid_matches_shape_and_checksums() {
        let cfg = tiny_cfg();
        let (wall, sim) = (wall(&cfg), sim(&cfg));
        assert_eq!(sim.len(), wall.len());
        for cell in &sim {
            assert!(
                cell.seconds > 0.0,
                "{}/{} has no modelled time",
                cell.algo,
                cell.ordering
            );
        }
        // NQ and Kcore take no iteration-count parameters, so the sim
        // checksums must equal the wall-run checksums exactly.
        for name in ["NQ", "Kcore"] {
            for o in ["Original", "Gorder"] {
                let find = |cells: &[CellResult]| {
                    cells
                        .iter()
                        .find(|c| c.algo == name && c.ordering == o)
                        .unwrap()
                        .checksum
                };
                assert_eq!(find(&wall), find(&sim), "{name}/{o}");
            }
        }
    }

    #[test]
    fn grid_cells_carry_engine_stats() {
        // NQ/BFS/Kcore are engine kernels: both measurements must surface
        // real per-kernel counters, not the zeroed default.
        for cells in [wall(&tiny_cfg()), sim(&tiny_cfg())] {
            for c in &cells {
                assert!(
                    c.stats.iterations > 0,
                    "{}/{} reported no iterations",
                    c.algo,
                    c.ordering
                );
                assert!(
                    c.stats.edges_relaxed > 0,
                    "{}/{} reported no edge work",
                    c.algo,
                    c.ordering
                );
            }
        }
    }

    #[test]
    fn quick_ctx_is_light() {
        let cfg = tiny_cfg();
        let ctx = cfg.run_ctx();
        assert_eq!(ctx.pr_iterations, 10);
        assert_eq!(ctx.diameter_samples, 4);
    }
}
