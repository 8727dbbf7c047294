//! # gorder-serve — the resilient ordering/kernel service
//!
//! A long-lived TCP daemon exposing the replication's orderings and
//! kernels over pre-loaded datasets, built to *degrade before it
//! fails*:
//!
//! * [`protocol`] — newline-delimited JSON framing over the strict
//!   [`gorder_obs::json`] grammar, with a hard per-frame byte cap and
//!   timeout-resumable reads ([`protocol::FrameReader`]); malformed
//!   input is always answered with a structured `error` frame;
//! * [`admission`] — the bounded queue in front of each worker lane:
//!   beyond its depth cap requests are **shed** with `busy` +
//!   `retry_after_ms` instead of queueing without bound;
//! * [`server`] — the daemon itself: a build lane for requests that may
//!   compute an ordering or relabel a layout and a run lane for kernels
//!   over resident layouts, so cached runs never wait behind a reorder;
//!   per-request
//!   [`Budget`](gorder_core::budget::Budget) deadlines walking the
//!   degradation ladder (order cache → full computation → budgeted
//!   anytime result → original order), a per-request panic ladder
//!   (serial retry, then structured error), single-flight sharing of
//!   concurrent identical ordering computations, a byte-bounded LRU of
//!   relabelled layouts so repeated runs over one ordering copy and
//!   relabel nothing, and graceful drain that answers every accepted
//!   request before exiting.
//!
//! * [`client`] — the matching retrying client (`gorder-cli remote`),
//!   on the same [`protocol`] renderer and parser, with seeded-jitter
//!   exponential backoff that honours `retry_after_ms`.
//!
//! Kernels run through [`gorder_cachesim::outcome`], the one by-name
//! runner the CLI uses too, and orderings resolve through
//! [`gorder_orders::ordering_by_name`].

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{Queue, Refused};
pub use protocol::{
    busy_response, error_response, ok_response, parse_request, parse_response, render_request,
    FrameError, FrameReader, Request, Response, WorkSpec, MAX_FRAME_BYTES,
};
pub use server::{DrainSummary, Server, ServerConfig, LATENCY_BOUNDS};
