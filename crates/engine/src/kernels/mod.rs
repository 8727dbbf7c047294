//! The engine's kernels, each implemented once against the
//! [`Kernel`](crate::Kernel) trait and [`Probe`](crate::Probe)
//! abstraction: the paper's nine, then the four extension kernels
//! (WCC, Tri, LP, BC).
//!
//! Every module exposes the kernel state machine (`*Kernel`), a result
//! struct where the kernel computes more than its checksum, and a
//! convenience function that runs the kernel unprobed and returns that
//! result. The kernel's loop structure, tie-breaks, floating-point
//! summation order and RNG discipline are fixed: they are what keeps its
//! checksum and its traced cache counters stable.

pub mod betweenness;
pub mod bfs;
pub mod dfs;
pub mod diameter;
pub mod domset;
pub mod kcore;
pub mod labelprop;
pub mod nq;
pub mod pagerank;
pub mod scc;
pub mod sp;
pub mod triangles;
pub mod wcc;
