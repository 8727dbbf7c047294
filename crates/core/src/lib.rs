//! # gorder-core — the Gorder ordering algorithm
//!
//! This crate implements the primary contribution of *“Speedup Graph
//! Processing by Graph Ordering”* (SIGMOD 2016): **Gorder**, a greedy node
//! re-numbering that maximises the locality objective
//!
//! ```text
//! F(π) = Σ_{0 < π(u) − π(v) ≤ w}  S(u, v)
//! S(u, v) = Ss(u, v) + Sn(u, v)
//! ```
//!
//! where `Ss(u, v)` is the number of common in-neighbours of `u` and `v`
//! (the *sibling* score) and `Sn(u, v) ∈ {0, 1, 2}` is the number of edges
//! between them (the *neighbour* score). Maximising `F` over permutations
//! is NP-hard (by reduction from maximum linear arrangement); the paper's
//! greedy is a `1/(2w)`-approximation with near-linear practical cost,
//! thanks to a priority queue — the [`unitheap::UnitHeap`] — whose keys
//! change only by ±1.
//!
//! ## Modules
//!
//! * [`unitheap`] — the O(1)-update bucketed priority queue.
//! * [`score`] — pairwise score `S(u,v)`, the objective `F(π)`, and the
//!   MinLA / MinLogA / bandwidth energies used by baseline orderings.
//! * [`gorder`] — the windowed greedy itself ([`Gorder`],
//!   [`GorderBuilder`]).
//! * [`incremental`] — ordering maintenance for evolving graphs
//!   (the paper's flagged future work), splicing new nodes into an
//!   existing layout without recomputation.
//! * [`theory`] — brute-force `OPT` for verifying the `1/(2w)`
//!   approximation bound on small instances.
//! * [`budget`] — cooperative deadlines, node caps, and cancellation for
//!   the fault-tolerant execution layer ([`Budget`], [`ExecOutcome`]).
//!
//! Gorder has one build, [`Gorder::compute_budgeted`], which returns the
//! outcome together with the run's heap counters; [`Gorder::compute`] is
//! its unlimited-budget convenience. The greedy is sequential.

pub mod budget;
pub mod gorder;
pub mod incremental;
pub mod score;
pub mod theory;
pub mod unitheap;

pub use budget::{Budget, DegradeReason, ExecOutcome};
pub use gorder::{Gorder, GorderBuilder, GorderStats};
pub use incremental::IncrementalGorder;
pub use unitheap::UnitHeap;
