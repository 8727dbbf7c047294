//! # gorder-cachesim — cache-hierarchy simulation
//!
//! The paper attributes Gorder's speedups to cache behaviour using
//! hardware performance counters (`perf`/`ocperf`: L1/LLC loads and
//! misses, stall cycles). Hardware counters are neither portable nor
//! available in every environment, so this reproduction substitutes a
//! **transparent software model** (DESIGN.md §3):
//!
//! * [`level::CacheLevel`] — one set-associative, true-LRU cache level
//!   whose sets keep their tags most-recently-used first, indexed by a
//!   mask or a precomputed fastmod rather than a 64-bit division, and
//!   updated a stream of references at a time;
//! * [`hierarchy::CacheHierarchy`] — a non-inclusive L1/L2/L3 stack with
//!   per-level reference/miss counters, defaulting to the replication's
//!   Xeon E5-4650L geometry (32 KiB / 256 KiB / 20 MiB, 64-byte lines);
//!   misses fill every level above and evictions never invalidate them,
//!   so it can run references in batches, one level at a time;
//! * [`stall::StallModel`] — converts hit/miss counts into CPU-execute
//!   vs. cache-stall cycle shares using the replication's own latency
//!   footnote (L1 4 cy, L2 12 cy, L3 42 cy, DRAM ≈ 62 ns);
//! * [`tracer::Tracer`] — virtual address space for the graph's CSR
//!   arrays and the algorithms' property arrays, buffering touches into
//!   the hierarchy's batches and pipelining them across two threads: L1
//!   on the touching thread, the levels below on a worker, fed in batch
//!   order, so the counters are the serial ones;
//! * [`trace`] — a probe that runs any `gorder-engine` kernel through
//!   the hierarchy: the real computation, with every data reference it
//!   makes fed to the cache model;
//! * [`outcome`] — one kernel run by name, on the wall clock or through
//!   the model, as the [`KernelOutcome`] the CLI and the daemon render.
//!
//! Because a replay *is* the engine kernel, walking the same CSR arrays
//! in the same order as a wall-clock run, a node reordering changes the
//! simulated address stream exactly as it would change the hardware one
//! — which is all the paper's Tables 3–4 and Figure 1 measure.

pub mod hierarchy;
pub mod level;
pub mod outcome;
pub mod stall;
pub mod trace;
pub mod tracer;

pub use hierarchy::{CacheHierarchy, CacheStats, HierarchyConfig};
pub use level::{CacheLevel, LevelConfig, LevelStats};
pub use outcome::{kernel_label, run_named, CacheProfile, KernelOutcome, Measure, UnknownKernel};
pub use stall::{StallBreakdown, StallModel};
pub use tracer::{CounterSnapshot, Tracer};
