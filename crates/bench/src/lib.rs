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
//! | `ablation` | order time, PR time, L1 miss rate, `F(π)`, span, bandwidth per ordering | (extension, DESIGN.md §8) |
//! | `compression` | gap+varint bits per edge per ordering | (extension, DESIGN.md §8) |
//! | `dynamic` | incremental Gorder under a growing graph | (extension, DESIGN.md §8) |
//! | `gate` | CI regression gate vs a committed baseline | (replication-only) |
//!
//! Every binary accepts `--scale <f>` (dataset size multiplier, default
//! 0.25), `--quick` (tiny sizes + fewer repetitions, for smoke runs) and
//! `--seed <n>`. `fig5` writes its grid to `results/fig5.csv` so `fig6`
//! can aggregate without re-running.
//!
//! Every datasets × orderings grid — `fig5`, `fig6`'s fallback, `gate`,
//! `table2`, `table3`, `fig1`, `ablation` and `compression` — runs through
//! one driver, [`sweep`]: each supplies its ordering pool and a per-cell
//! [`Measure`], and the driver builds, orders, relabels and guards the
//! rest ([`run_guarded`]), so no single cell can take down a sweep. They
//! all end with one exit rule, [`Swept::finish`]: 1 when any cell failed.

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
pub use experiment::{resolve_kernels, resolve_orderings, CellResult, GridConfig};
pub use gate::{
    compare, parse_report, render_report, run_gate, GateComparison, GateConfig, GateDelta,
    GateMode, GateReport,
};
pub use ranking::{rank_counts, Ranking};
pub use resume::{RecoveredCell, ResumeState};
pub use robust::{
    abandoned_count, reap_abandoned, run_guarded, sweep, CellStatus, Job, Layout, Measure,
    RecoveredLookup, Sweep, SweepCell, Swept,
};
pub use stats::{paired_stats, sign_test_p, PairedStats, Verdict};
pub use tracefile::{expected_config_hash, load_resume, SweepTrace};
