//! Minimal hand-rolled argument parsing shared by the experiment binaries
//! (no CLI dependency — the flags are few and fixed), and the preamble
//! they share: arming `--faults`, opening `--order-cache` and resolving
//! `--datasets`.

use crate::experiment::resolve_orderings;
use crate::robust::Sweep;
use gorder_graph::datasets::{self, Dataset};
use gorder_orders::OrderCache;

/// Common harness flags.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset size multiplier (1.0 = DESIGN.md base sizes).
    pub scale: f64,
    /// Timing repetitions per cell (median is reported).
    pub reps: u32,
    /// Seed for every randomised component.
    pub seed: u64,
    /// Quick smoke-run mode: tiny datasets, light algorithm parameters.
    pub quick: bool,
    /// Per-cell watchdog deadline in seconds (`--cell-timeout`); `None`
    /// runs each ordering and cell inline, still under `catch_unwind`.
    pub cell_timeout: Option<f64>,
    /// Worker threads for the engine-backed kernels (`--threads`); 1 =
    /// serial. Parallel runs produce byte-identical results.
    pub threads: u32,
    /// JSONL trace destination (`--trace-out`); `None` writes no trace.
    /// The experiment binaries stream one event per finished cell here,
    /// so an interrupted sweep is reconstructable from disk.
    pub trace_out: Option<String>,
    /// Prior trace to resume from (`--resume`). Deliberately **not**
    /// part of the config hash: a resumed run is the same experiment.
    pub resume: Option<String>,
    /// Fault-injection spec (`--faults`, same grammar as
    /// `GORDER_FAULTS`). Not part of the config hash either — injected
    /// faults degrade how a run executes, never what it computes.
    pub faults: Option<String>,
    /// On-disk permutation cache directory (`--order-cache`). Not part
    /// of the config hash: cached and recomputed permutations are
    /// identical by construction, so a warm run is the same experiment.
    pub order_cache: Option<String>,
    /// Dataset-name filter (`--datasets a,b,…`); `None` = the binary's
    /// default set. Part of the config hash — it changes the grid.
    pub datasets: Option<Vec<String>>,
    /// Ordering-name filter (`--orderings a,b,…`); hashed like
    /// `datasets`.
    pub orderings: Option<Vec<String>>,
    /// Algorithm-name filter (`--algos a,b,…`); hashed like `datasets`.
    pub algos: Option<Vec<String>>,
    /// Extra free-standing flags the binary may interpret (e.g.
    /// `--by-ordering` for the S1 grouping).
    pub extra: Vec<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.25,
            reps: 3,
            seed: 42,
            quick: false,
            cell_timeout: None,
            threads: 1,
            trace_out: None,
            resume: None,
            faults: None,
            order_cache: None,
            datasets: None,
            orderings: None,
            algos: None,
            extra: Vec::new(),
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`. Unknown `--key value` pairs and bare
    /// flags land in `extra`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    out.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a positive number"));
                }
                "--reps" => {
                    out.reps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--reps needs an integer"));
                }
                "--seed" => {
                    out.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                }
                "--cell-timeout" => {
                    let secs: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        die("--cell-timeout needs a positive number of seconds")
                    });
                    if !secs.is_finite() || secs <= 0.0 {
                        die("--cell-timeout must be positive");
                    }
                    out.cell_timeout = Some(secs);
                }
                "--threads" => {
                    let threads: u32 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--threads needs a positive integer"));
                    if threads == 0 {
                        die("--threads must be at least 1");
                    }
                    out.threads = threads;
                }
                "--trace-out" => {
                    out.trace_out =
                        Some(it.next().unwrap_or_else(|| die("--trace-out needs a path")));
                }
                "--resume" => {
                    out.resume = Some(it.next().unwrap_or_else(|| die("--resume needs a path")));
                }
                "--faults" => {
                    out.faults = Some(it.next().unwrap_or_else(|| die("--faults needs a spec")));
                }
                "--order-cache" => {
                    out.order_cache = Some(
                        it.next()
                            .unwrap_or_else(|| die("--order-cache needs a directory")),
                    );
                }
                "--datasets" => {
                    out.datasets = Some(parse_list(
                        it.next().unwrap_or_else(|| die("--datasets needs a list")),
                        "--datasets",
                    ));
                }
                "--orderings" => {
                    out.orderings = Some(parse_list(
                        it.next().unwrap_or_else(|| die("--orderings needs a list")),
                        "--orderings",
                    ));
                }
                "--algos" => {
                    out.algos = Some(parse_list(
                        it.next().unwrap_or_else(|| die("--algos needs a list")),
                        "--algos",
                    ));
                }
                "--quick" => {
                    out.quick = true;
                    out.scale = out.scale.min(0.05);
                    out.reps = 1;
                }
                "--full" => {
                    out.scale = 1.0;
                    out.reps = 5;
                }
                other => out.extra.push(other.to_string()),
            }
        }
        if out.scale <= 0.0 {
            die("--scale must be positive");
        }
        out
    }

    /// True if an extra flag like `--by-ordering` was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|e| e == flag)
    }

    /// `--cell-timeout` as a [`std::time::Duration`], if given.
    pub fn cell_timeout_duration(&self) -> Option<std::time::Duration> {
        self.cell_timeout.map(std::time::Duration::from_secs_f64)
    }

    /// Arms the deterministic fault-injection layer from `--faults` (same
    /// grammar as `GORDER_FAULTS`; crash-safety tests only). A bad spec
    /// exits 2.
    pub fn arm_faults(&self) {
        if let Some(spec) = &self.faults {
            if let Err(e) = gorder_obs::faults::arm_from_spec(spec) {
                die(&format!("--faults {e}"));
            }
        }
    }

    /// The permutation cache `--order-cache` names, if any (a warm run
    /// computes no ordering). A directory that cannot be opened exits 2.
    pub fn open_order_cache(&self) -> Option<OrderCache> {
        let dir = self.order_cache.as_ref()?;
        let cache = OrderCache::new(std::path::Path::new(dir));
        Some(cache.unwrap_or_else(|e| die(&format!("--order-cache {dir}: {e}"))))
    }

    /// The datasets `--datasets` names, in the order given. Without the
    /// flag: `only`, or all nine recipes when `only` is `None`. An
    /// unknown name, or one outside `only`, is an error naming it, so a
    /// binary can refuse it before any graph is built.
    pub fn resolve_datasets(&self, only: Option<&[&str]>) -> Result<Vec<Dataset>, String> {
        let pool: Vec<Dataset> = match only {
            Some(only) => only.iter().filter_map(|n| datasets::by_name(n)).collect(),
            None => datasets::all(),
        };
        let Some(names) = &self.datasets else {
            return Ok(pool);
        };
        let pick = |n: &String| match pool.iter().find(|d| d.name == n) {
            Some(d) => Ok(*d),
            None if datasets::by_name(n).is_some() => Err(format!(
                "--datasets: this grid runs on {:?} only, not {n:?}",
                only.unwrap_or_default()
            )),
            None => Err(format!("--datasets: unknown dataset {n:?}")),
        };
        names.iter().map(pick).collect()
    }

    /// The grid these flags describe over `kernels`: `--datasets`
    /// resolved within `only`, `--orderings` resolved against the paper's
    /// ten (all fourteen when `extended`), their `--scale`, `--seed`,
    /// `--cell-timeout` and `--order-cache`, and no recovery. A bad name
    /// or cache directory exits 2 before any graph is built.
    pub fn sweep<'a, T>(
        &self,
        only: Option<&[&str]>,
        extended: bool,
        kernels: Vec<&'static str>,
    ) -> Sweep<'a, T> {
        let datasets = self.resolve_datasets(only).unwrap_or_else(|e| die(&e));
        let orderings = resolve_orderings(&self.orderings, extended, self.seed);
        Sweep {
            datasets,
            scale: self.scale,
            orderings: orderings.unwrap_or_else(|e| die(&e)),
            kernels,
            seed: self.seed,
            timeout: self.cell_timeout_duration(),
            cache: self.open_order_cache(),
            recovered: None,
        }
    }
}

/// Prints `error: {msg}` and exits 2, the harness's usage-error code.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Splits a `--datasets`-style comma list, rejecting empty entries so a
/// typo like `a,,b` fails loudly instead of silently filtering nothing.
fn parse_list(raw: String, flag: &str) -> Vec<String> {
    let items: Vec<String> = raw.split(',').map(|s| s.trim().to_string()).collect();
    if items.iter().any(|s| s.is_empty()) {
        die(&format!("{flag} needs a non-empty comma-separated list"));
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> HarnessArgs {
        HarnessArgs::from_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.reps, 3);
        assert!(!a.quick);
    }

    #[test]
    fn scale_and_reps() {
        let a = parse(&["--scale", "0.5", "--reps", "7", "--seed", "9"]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.reps, 7);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn quick_shrinks() {
        let a = parse(&["--quick"]);
        assert!(a.quick);
        assert!(a.scale <= 0.05);
        assert_eq!(a.reps, 1);
    }

    #[test]
    fn full_expands() {
        let a = parse(&["--full"]);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.reps, 5);
    }

    #[test]
    fn cell_timeout_parses() {
        let a = parse(&["--cell-timeout", "2.5"]);
        assert_eq!(a.cell_timeout, Some(2.5));
        assert_eq!(
            a.cell_timeout_duration(),
            Some(std::time::Duration::from_millis(2500))
        );
        assert_eq!(parse(&[]).cell_timeout, None);
    }

    #[test]
    fn threads_parse() {
        assert_eq!(parse(&[]).threads, 1);
        assert_eq!(parse(&["--threads", "4"]).threads, 4);
    }

    #[test]
    fn trace_out_parses() {
        assert_eq!(parse(&[]).trace_out, None);
        let a = parse(&["--trace-out", "results/x.trace.jsonl", "--quick"]);
        assert_eq!(a.trace_out.as_deref(), Some("results/x.trace.jsonl"));
        assert!(a.quick, "flags after --trace-out still parse");
    }

    #[test]
    fn resume_and_faults_parse() {
        let a = parse(&["--resume", "results/t.jsonl", "--faults", "bench.cell=1+"]);
        assert_eq!(a.resume.as_deref(), Some("results/t.jsonl"));
        assert_eq!(a.faults.as_deref(), Some("bench.cell=1+"));
        assert_eq!(parse(&[]).resume, None);
        assert_eq!(parse(&[]).faults, None);
    }

    #[test]
    fn order_cache_parses() {
        let a = parse(&["--order-cache", "results/perm-cache"]);
        assert_eq!(a.order_cache.as_deref(), Some("results/perm-cache"));
        assert_eq!(parse(&[]).order_cache, None);
    }

    #[test]
    fn grid_filters_parse_as_comma_lists() {
        let a = parse(&[
            "--datasets",
            "epinion,flickr",
            "--orderings",
            "Original,Gorder",
            "--algos",
            "PR",
        ]);
        assert_eq!(
            a.datasets.as_deref(),
            Some(&["epinion".to_string(), "flickr".to_string()][..])
        );
        assert_eq!(
            a.orderings.as_deref(),
            Some(&["Original".to_string(), "Gorder".to_string()][..])
        );
        assert_eq!(a.algos.as_deref(), Some(&["PR".to_string()][..]));
        assert_eq!(parse(&[]).datasets, None);
    }

    #[test]
    fn datasets_resolve_in_the_order_given_within_the_grid() {
        let names = |ds: Vec<Dataset>| ds.iter().map(|d| d.name).collect::<Vec<_>>();
        let pair: &[&str] = &["flickr", "sdarc"];
        assert_eq!(names(parse(&[]).resolve_datasets(None).unwrap()).len(), 9);
        assert_eq!(
            names(parse(&[]).resolve_datasets(Some(pair)).unwrap()),
            pair
        );
        let a = parse(&["--datasets", "sdarc,flickr"]);
        assert_eq!(
            names(a.resolve_datasets(Some(pair)).unwrap()),
            ["sdarc", "flickr"]
        );
        let outside = parse(&["--datasets", "epinion"]).resolve_datasets(Some(pair));
        assert!(outside.unwrap_err().contains("not \"epinion\""));
        let unknown = parse(&["--datasets", "nope"]).resolve_datasets(None);
        assert!(unknown.unwrap_err().contains("unknown dataset \"nope\""));
    }

    #[test]
    fn extras_collected() {
        let a = parse(&["--by-ordering", "--scale", "0.1"]);
        assert!(a.has_flag("--by-ordering"));
        assert!(!a.has_flag("--nope"));
        assert_eq!(a.scale, 0.1);
    }
}
