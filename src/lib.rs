//! # gorder — cache-friendly graph reordering
//!
//! A from-scratch Rust reproduction of **“Speedup Graph Processing by Graph
//! Ordering”** (Hao Wei, Jeffrey Xu Yu, Can Lu, Xuemin Lin — SIGMOD 2016),
//! guided by the ReScience replication by Lécuyer, Danisch and Tabourier
//! (2021).
//!
//! Graph algorithms spend a large share of their time waiting on cache
//! misses. **Gorder** renames the nodes of a graph so that nodes accessed
//! together receive nearby ids — and therefore share cache lines — which
//! speeds up *any* unmodified graph algorithm by 10–50 %.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graph substrate, permutations, I/O, generators,
//!   dataset recipes ([`gorder_graph`]).
//! * [`core`] — the Gorder algorithm itself: priority scores, unit heap,
//!   windowed greedy, and ordering quality metrics ([`gorder_core`]).
//! * [`orders`] — the nine baseline orderings the paper compares against
//!   ([`gorder_orders`]).
//! * [`engine`] — the kernel execution engine: the nine benchmark
//!   algorithms and four extension algorithms, each defined once and
//!   run by label ([`gorder_engine`]).
//! * [`cachesim`] — a set-associative cache-hierarchy simulator that
//!   replays any engine kernel through a tracing probe, standing in for
//!   hardware performance counters ([`gorder_cachesim`]).
//!
//! ## Quickstart
//!
//! ```
//! use gorder::prelude::*;
//!
//! // A synthetic social graph (stand-in for the paper's datasets).
//! let graph = gorder::graph::datasets::epinion_like().build(0.05);
//!
//! // Compute the Gorder permutation (window w = 5, the paper's default)…
//! let ordering = GorderBuilder::new().window(5).build();
//! let perm = ordering.compute(&graph);
//!
//! // …and materialise the reordered graph.
//! let reordered = graph.relabel(&perm);
//! assert_eq!(reordered.m(), graph.m());
//!
//! // The reordered graph scores higher on the paper's locality objective
//! // F(π) than the original labelling does.
//! let w = 5;
//! let before = gorder::core::score::f_score(&graph, w);
//! let after = gorder::core::score::f_score(&reordered, w);
//! assert!(after > before);
//! ```

pub use gorder_cachesim as cachesim;
pub use gorder_core as core;
pub use gorder_engine as engine;
pub use gorder_graph as graph;
pub use gorder_orders as orders;

/// One-line imports for the common workflow.
pub mod prelude {
    pub use gorder_core::{Gorder, GorderBuilder};
    pub use gorder_engine::{run_by_name, KernelCtx};
    pub use gorder_graph::{Graph, GraphBuilder, Permutation};
    pub use gorder_orders::OrderingAlgorithm;
}
