//! One kernel run by name, and its outcome: the record every front end
//! (the CLI's `run`/`simulate`, the daemon's `run`/`simulate`) renders,
//! so the report line, the `--stats` line and the trace's `kernel`
//! event come from one place.
//!
//! A run is measured one of two ways ([`Measure`]): on the wall clock,
//! with the kernel's parallel sections on `threads` workers, or through
//! the scaled-down cache model, which also yields a [`CacheProfile`].
//! This crate is the lowest that sees both the engine and the model.

use std::time::Instant;

use gorder_engine::{ExecPlan, KernelCtx, KernelStats, NoProbe};
use gorder_graph::Graph;
use gorder_obs::json::JsonObject;
use gorder_obs::KernelEvent;

use crate::trace::replay_with_stats;
use crate::{CacheHierarchy, HierarchyConfig, StallModel, Tracer};

/// How a by-name kernel run is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Wall clock, parallel sections on `threads` workers (results are
    /// byte-identical to serial).
    Wall {
        /// Engine worker threads.
        threads: u32,
    },
    /// Replayed serially through [`HierarchyConfig::scaled_down`], with
    /// PR at 5 iterations and Diam at 4 sources.
    Modelled,
}

/// The cache model's view of one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheProfile {
    /// Data references replayed.
    pub refs: u64,
    /// L1 miss rate.
    pub l1_miss_rate: f64,
    /// Full misses (memory accesses) per reference.
    pub cache_miss_rate: f64,
    /// Share of modelled cycles stalled on the cache ([`StallModel::skylake`]).
    pub stall_share: f64,
}

/// One finished kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// The kernel's canonical label, whatever spelling resolved it.
    pub algo: &'static str,
    /// The kernel's checksum.
    pub checksum: u64,
    /// The engine's counters and phase timings.
    pub stats: KernelStats,
    /// Seconds the run took (the replay's, under [`Measure::Modelled`]).
    pub seconds: f64,
    /// Threads the run was scheduled on (1 for modelled runs).
    pub threads: u32,
    /// The cache profile of a modelled run; `None` on the wall clock.
    pub cache: Option<CacheProfile>,
}

/// A kernel name that resolves to none of the 13 engine kernels; its
/// message lists the names that would have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKernel {
    name: String,
    known: Vec<&'static str>,
}

impl std::fmt::Display for UnknownKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm {:?}; known: {:?}",
            self.name, self.known
        )
    }
}

/// The 13 kernel labels: the nine paper kernels in paper order, then the
/// four extensions.
pub fn kernel_labels() -> Vec<&'static str> {
    let mut names = gorder_engine::kernel_names();
    names.extend(gorder_engine::EXTENSION_KERNELS);
    names
}

/// The canonical label of the kernel `name` spells (case-insensitive).
pub fn kernel_label(name: &str) -> Result<&'static str, UnknownKernel> {
    gorder_engine::by_name::<NoProbe>(name)
        .map(|k| k.name())
        .ok_or_else(|| UnknownKernel {
            name: name.to_string(),
            known: kernel_labels(),
        })
}

/// Runs the kernel labelled `name` (case-insensitive) over `g` as
/// `measure` says. `seed` feeds the sampled kernels (Diam, BC).
pub fn run_named(
    name: &str,
    g: &Graph,
    seed: u64,
    measure: Measure,
) -> Result<KernelOutcome, UnknownKernel> {
    let algo = kernel_label(name)?;
    match measure {
        Measure::Wall { threads } => {
            let ctx = KernelCtx {
                seed,
                ..Default::default()
            };
            let t = Instant::now();
            let run =
                gorder_engine::run_by_name_plan(algo, g, &ctx, ExecPlan::with_threads(threads))
                    .expect("label resolved above");
            Ok(KernelOutcome {
                algo,
                checksum: run.checksum,
                stats: run.stats,
                seconds: t.elapsed().as_secs_f64(),
                threads,
                cache: None,
            })
        }
        Measure::Modelled => {
            let ctx = KernelCtx {
                pr_iterations: 5,
                diameter_samples: 4,
                seed,
                ..Default::default()
            };
            let mut tracer = Tracer::new(CacheHierarchy::new(&HierarchyConfig::scaled_down()));
            let t = Instant::now();
            let (checksum, stats) =
                replay_with_stats(algo, g, &mut tracer, &ctx).expect("label resolved above");
            let seconds = t.elapsed().as_secs_f64();
            let s = tracer.stats();
            let stall_share = tracer.breakdown(&StallModel::skylake()).stall_fraction();
            Ok(KernelOutcome {
                algo,
                checksum,
                stats,
                seconds,
                threads: 1,
                cache: Some(CacheProfile {
                    refs: s.l1_refs,
                    l1_miss_rate: s.l1_miss_rate,
                    cache_miss_rate: s.cache_miss_rate,
                    stall_share,
                }),
            })
        }
    }
}

impl KernelOutcome {
    /// The one-line report: `"{algo} over {layout}: …"`, where `layout`
    /// names the order the graph was in (e.g. `"Gorder order"`), then the
    /// checksum and time, or the cache profile of a modelled run.
    pub fn report(&self, layout: &str) -> String {
        match &self.cache {
            None => format!(
                "{} over {layout}: checksum {:#x} in {:.3}s",
                self.algo, self.checksum, self.seconds
            ),
            Some(c) => format!(
                "{} over {layout}: {:.1}M refs, L1-mr {:.1}%, cache-mr {:.1}%, stall share {:.0}%",
                self.algo,
                c.refs as f64 / 1e6,
                c.l1_miss_rate * 100.0,
                c.cache_miss_rate * 100.0,
                c.stall_share * 100.0
            ),
        }
    }

    /// The trace's `kernel` record; `ordering` `None` is `"Original"`.
    pub fn event(&self, ordering: Option<&str>) -> KernelEvent {
        let s = &self.stats;
        KernelEvent {
            algo: self.algo.to_string(),
            ordering: ordering.unwrap_or("Original").to_string(),
            checksum: self.checksum,
            seconds: self.seconds,
            engine: if self.threads > 1 {
                "parallel"
            } else {
                "serial"
            }
            .to_string(),
            iterations: s.iterations,
            edges_relaxed: s.edges_relaxed,
            frontier_pushes: s.frontier_pushes,
            frontier_peak: s.frontier_peak,
            init_secs: s.init_secs,
            compute_secs: s.compute_secs,
            finish_secs: s.finish_secs,
            threads_used: u64::from(s.threads_used),
            thread_busy_secs: s.thread_busy_secs.iter().sum(),
            degraded_serial: s.degraded_serial,
        }
    }

    /// The `--stats` line: the [`event`](Self::event)'s keys in its order,
    /// except that `ordering` stays `null` when none was given, `engine`
    /// is `true` (every label that resolves is an engine kernel) and
    /// `thread_busy_secs` lists each worker's seconds.
    pub fn stats_line(&self, ordering: Option<&str>) -> String {
        let k = self.event(ordering);
        JsonObject::new()
            .str("algo", &k.algo)
            .opt_str("ordering", ordering)
            .u64("checksum", k.checksum)
            .f64("seconds", k.seconds)
            .bool("engine", true)
            .u64("iterations", k.iterations)
            .u64("edges_relaxed", k.edges_relaxed)
            .u64("frontier_pushes", k.frontier_pushes)
            .u64("frontier_peak", k.frontier_peak)
            .f64("init_secs", k.init_secs)
            .f64("compute_secs", k.compute_secs)
            .f64("finish_secs", k.finish_secs)
            .u64("threads_used", k.threads_used)
            .f64_array("thread_busy_secs", &self.stats.thread_busy_secs)
            .bool("degraded_serial", k.degraded_serial)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_modelled_runs_carry_a_cache_profile() {
        // BFS takes nothing from the context but the source.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (0, 3)]);
        let wall = run_named("bfs", &g, 1, Measure::Wall { threads: 2 }).unwrap();
        let sim = run_named("bfs", &g, 1, Measure::Modelled).unwrap();
        assert_eq!((wall.algo, sim.algo), ("BFS", "BFS"));
        assert_eq!(wall.checksum, sim.checksum);
        assert_eq!((wall.cache, wall.threads), (None, 2));
        assert_eq!(wall.event(Some("RCM")).engine, "parallel");
        let c = sim.cache.expect("modelled runs carry a profile");
        assert!(c.refs > 0 && c.l1_miss_rate > 0.0, "{c:?}");
        assert!(sim.report("RCM order").starts_with("BFS over RCM order: "));
        assert_eq!(sim.event(None).engine, "serial");
    }
}
