//! The ordering-counter single-export contract: counters reach the
//! global registry exactly once per run, in `run_ordering` — never from
//! the orderings' own `compute`/`compute_budgeted` or from Gorder's
//! build (the stats those fill are plain data).
//!
//! One test function, so nothing else in this process touches the
//! counters between our snapshots.

use gorder_core::budget::Budget;
use gorder_core::Gorder;
use gorder_graph::gen::copying_model;
use gorder_orders::gorder_impl::GorderOrdering;
use gorder_orders::{run_ordering, ExecPlan, OrderStats, OrderingAlgorithm};

#[test]
fn ordering_counters_export_exactly_once_per_run() {
    let g = copying_model(200, 5, 0.6, 17);
    let reg = gorder_obs::global();
    let runs0 = reg.counter("order.Gorder.runs");
    let pops0 = reg.counter("order.Gorder.heap.pops");
    let incs0 = reg.counter("order.Gorder.heap.increments");

    // Raw compute paths are registry-silent: the stats they return are
    // plain data until the runner exports them.
    let o = GorderOrdering::with_defaults();
    let _ = o.compute(&g);
    let _ = Gorder::with_defaults().compute_budgeted(&g, &Budget::unlimited());
    let _ = o.compute_budgeted(&g, &Budget::unlimited(), &mut OrderStats::default());
    assert_eq!(reg.counter("order.Gorder.runs"), runs0);
    assert_eq!(reg.counter("order.Gorder.heap.pops"), pops0);
    assert_eq!(reg.counter("order.Gorder.heap.increments"), incs0);

    // One runner invocation exports exactly the run's own counters.
    let run = run_ordering(&o, &g, ExecPlan::Serial, &Budget::unlimited())
        .value()
        .expect("completes");
    assert!(run.stats.heap_pops > 0);
    assert_eq!(reg.counter("order.Gorder.runs"), runs0 + 1);
    assert_eq!(
        reg.counter("order.Gorder.heap.pops"),
        pops0 + run.stats.heap_pops
    );
    assert_eq!(
        reg.counter("order.Gorder.heap.increments"),
        incs0 + run.stats.heap_increments
    );

    // A second identical run adds the same amounts once more — no
    // double export anywhere in the path.
    let run2 = run_ordering(&o, &g, ExecPlan::Serial, &Budget::unlimited())
        .value()
        .expect("completes");
    assert_eq!(run2.stats.heap_pops, run.stats.heap_pops);
    assert_eq!(reg.counter("order.Gorder.runs"), runs0 + 2);
    assert_eq!(
        reg.counter("order.Gorder.heap.pops"),
        pops0 + 2 * run.stats.heap_pops
    );

    // And the snapshot holds each ordering counter exactly once.
    let snap = reg.snapshot();
    let pops_entries = snap
        .counters
        .iter()
        .filter(|(name, _)| name.as_str() == "order.Gorder.heap.pops")
        .count();
    assert_eq!(pops_entries, 1);
}
