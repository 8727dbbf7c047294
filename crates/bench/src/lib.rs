//! # gorder-bench — experiment harness
//!
//! One binary per table/figure of the evaluation (see DESIGN.md §5):
//!
//! | binary | reproduces | original-paper counterpart |
//! |---|---|---|
//! | `table1` | dataset features | Table 1 |
//! | `table2` | ordering computation time | Table 9 |
//! | `table3` | PR cache statistics per ordering | Tables 3–4 |
//! | `fig1` | CPU vs cache-stall split, Original vs Gorder | Figure 1 |
//! | `fig3` | simulated-annealing (S, k) sweep | (replication-only) |
//! | `fig4` | PR runtime vs Gorder window size | Figure 8 |
//! | `fig5` | relative runtimes, all orderings × algorithms × datasets | Figure 9 |
//! | `fig6` | ordering rank histogram | (aggregation of Figure 9) |
//! | `gate` | CI regression gate vs a committed baseline | (replication-only) |
//!
//! Every binary accepts `--scale <f>` (dataset size multiplier, default
//! 0.25), `--quick` (tiny sizes + fewer repetitions, for smoke runs) and
//! `--seed <n>`. `fig5` writes its grid to `results/fig5.csv` so `fig6`
//! can aggregate without re-running.
//!
//! `fig5`, `fig6`'s fallback and `gate` run their datasets × orderings ×
//! kernels grids through one driver, [`sweep`]: each supplies its ordering
//! pool and a per-cell [`Measure`], and the driver builds, orders,
//! relabels and guards the rest ([`run_guarded`]), so no single cell can
//! take down a sweep.

pub mod args;
pub mod experiment;
pub mod fmt;
pub mod gate;
pub mod ranking;
pub mod resume;
pub mod robust;
pub mod schema;
pub mod stats;
pub mod timing;
pub mod tracefile;

pub use args::HarnessArgs;
pub use experiment::{resolve_kernels, resolve_orderings, run_grid, CellResult, GridConfig};
pub use gate::{
    compare, parse_report, render_report, run_gate, GateComparison, GateConfig, GateDelta,
    GateMode, GateReport,
};
pub use ranking::{rank_counts, Ranking};
pub use resume::{RecoveredCell, ResumeState};
pub use robust::{
    abandoned_count, guarded_ordering_run, reap_abandoned, resolve_ordering, run_guarded, sweep,
    CellStatus, Job, Layout, Measure, RecoveredLookup, RobustCell, Sweep, SweepCell, SweepReport,
};
pub use stats::{paired_stats, sign_test_p, PairedStats, Verdict};
pub use tracefile::{expected_config_hash, load_resume, SweepTrace};
