//! # gorder-obs — the observability layer
//!
//! The paper's entire claim rests on *measured* numbers — wall-clock,
//! cache misses, locality scores — yet measurement plumbing scattered
//! across crates (engine stats, bench cell statuses, ad-hoc stderr) is
//! exactly how runs stop being reconstructable. This crate centralises
//! three primitives, dependency-free so every other crate can use them:
//!
//! * [`registry`] — a process-wide [`Registry`] of monotonic counters,
//!   gauges, and **fixed-bucket** histograms (bucket boundaries are part
//!   of the metric's identity, never derived from the data, so two runs
//!   — or two thread counts — always produce comparable shapes);
//! * [`span`](mod@span) — RAII span timers ([`span("gorder.build")`](span())
//!   starts one; dropping the guard records its duration), aggregated
//!   per name into the registry;
//! * [`trace`] — a schema-versioned JSONL event sink ([`TraceSink`]):
//!   one [`RunManifest`] header line carrying run provenance (dataset,
//!   ordering, algorithm, threads, window, config hash, wall-clock
//!   start), then one event line per phase / cell / kernel run, flushed
//!   line-by-line so an interrupted sweep leaves a readable prefix.
//!
//! [`json`] holds the hand-rolled escaping/formatting machinery shared
//! with the CLI's `--stats` line, plus the strict parser and typed
//! getters behind the one trace reader, [`trace::read_jsonl`].
//!
//! [`faults`] is the deterministic fault-injection layer the
//! crash-safety tests arm (via `GORDER_FAULTS` or a `--faults` flag);
//! disarmed — the default — every injection point is one atomic load.

pub mod faults;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{Histogram, Registry, Snapshot, SpanStats};
pub use span::Span;
pub use trace::{
    validate_jsonl, validate_jsonl_lenient, CellEvent, Fnv1a, GateEvent, KernelEvent, OrderEvent,
    PhaseEvent, RowEvent, RunManifest, ServeEvent, TraceEvent, TraceSink, TraceSummary,
    SCHEMA_VERSION,
};

/// The process-wide default registry. Library code records into this
/// (via [`span()`], [`Registry::counter_add`], …) so binaries can export
/// one snapshot per run without threading a registry through every call.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Starts a span timer on the [`global`] registry. The returned guard
/// records the elapsed seconds under `name` when dropped.
///
/// ```
/// {
///     let _span = gorder_obs::span("gorder.build");
///     // ... timed work ...
/// } // recorded here
/// assert!(gorder_obs::global().snapshot().spans.iter().any(|(n, _)| n == "gorder.build"));
/// ```
pub fn span(name: &str) -> Span<'static, '_> {
    global().span(name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_is_shared() {
        super::global().counter_add("obs.test.global", 2);
        super::global().counter_add("obs.test.global", 3);
        assert!(super::global().counter("obs.test.global") >= 5);
    }
}
