//! Injected-fault acceptance test for the fault-tolerant execution layer:
//! a sweep containing a deliberately panicking ordering and an annealing
//! run whose budget cannot possibly suffice must still complete every
//! healthy cell, report the panicked cells as failed and the annealing
//! cells as degraded (or abandoned), and return normally.

use gorder_bench::{guarded_ordering_run, run_grid, CellStatus, GridConfig, Sweep};
use gorder_core::budget::{Budget, ExecOutcome};
use gorder_graph::datasets::epinion_like;
use gorder_graph::{Graph, Permutation};
use gorder_orders::{Annealing, EnergyModel, ExecPlan, OrderingAlgorithm};
use std::sync::Arc;
use std::time::Duration;

struct Panicker;
impl OrderingAlgorithm for Panicker {
    fn name(&self) -> &'static str {
        "Panicker"
    }
    fn compute(&self, _g: &Graph) -> Permutation {
        panic!("injected ordering fault")
    }
}

/// An annealing configuration far too large for any test-scale budget.
fn oversized_annealing() -> Annealing {
    Annealing::with_params(EnergyModel::Linear, 50_000_000, 1.0, 3)
}

fn tiny_cfg() -> GridConfig {
    GridConfig {
        scale: 0.02,
        reps: 1,
        seed: 1,
        quick: true,
        datasets: vec![epinion_like()],
        orderings: None,
        algos: Some(vec!["NQ".into(), "BFS".into()]),
        extended: false,
        threads: 1,
    }
}

#[test]
fn sweep_with_injected_faults_completes_and_reports() {
    let cfg = tiny_cfg();
    let pool: Vec<Arc<dyn OrderingAlgorithm>> = vec![
        Arc::new(gorder_orders::Original),
        Arc::new(Panicker),
        Arc::new(oversized_annealing()),
        Arc::new(gorder_orders::ChDfs),
    ];
    let grid = Sweep {
        orderings: pool,
        timeout: Some(Duration::from_millis(50)),
        ..cfg.sweep().unwrap()
    };
    let report = run_grid(&grid, &mut *cfg.wall_measure(), &mut |_| {}, &mut |_| {});

    // Every cell of the 4 × 2 grid is present — the sweep never died.
    assert_eq!(report.cells.len(), 8);

    let statuses = |ordering: &str| -> Vec<&CellStatus> {
        report
            .cells
            .iter()
            .filter(|c| c.result.ordering == ordering)
            .map(|c| &c.status)
            .collect()
    };

    // Healthy orderings complete despite their broken neighbours.
    for s in statuses("Original").iter().chain(statuses("ChDFS").iter()) {
        assert_eq!(**s, CellStatus::Completed);
    }

    // The panicking ordering's cells are failed, with the panic message.
    let panicked = statuses("Panicker");
    assert_eq!(panicked.len(), 2);
    for s in panicked {
        match s {
            CellStatus::Failed(msg) => assert!(msg.contains("injected ordering fault"), "{msg}"),
            other => panic!("Panicker cell should be Failed, got {}", other.label()),
        }
    }

    // The over-budget annealing either degraded cooperatively (its cells
    // still carry usable numbers) or was abandoned by the watchdog.
    let annealing = statuses("MinLA");
    assert_eq!(annealing.len(), 2);
    for s in annealing {
        assert!(
            matches!(s, CellStatus::Degraded(_) | CellStatus::TimedOut),
            "annealing cell should be Degraded or TimedOut, got {}",
            s.label()
        );
    }

    report.print_skip_report();
}

#[test]
fn one_millisecond_annealing_budget_degrades_not_dies() {
    let g = epinion_like().build(0.02);
    let budget = Budget::unlimited().with_timeout(Duration::from_millis(1));
    match oversized_annealing().compute_budgeted(&g, &budget) {
        ExecOutcome::Degraded(perm, _) => {
            // The anytime result is a valid bijection over the full graph.
            assert!(Permutation::try_new(perm.as_slice().to_vec()).is_ok());
            assert_eq!(perm.len(), g.n());
        }
        ExecOutcome::TimedOut => {} // budget gone before the first step
        other => panic!(
            "1 ms annealing should degrade or time out, got {}",
            other.status_label()
        ),
    }
}

#[test]
fn guarded_panicking_ordering_is_isolated() {
    let g = Arc::new(epinion_like().build(0.02));
    let o: Arc<dyn OrderingAlgorithm> = Arc::new(Panicker);
    match guarded_ordering_run(&o, &g, ExecPlan::Serial, Some(Duration::from_secs(5))) {
        ExecOutcome::Failed(msg) => assert!(msg.contains("injected ordering fault"), "{msg}"),
        other => panic!("expected Failed, got {}", other.status_label()),
    }
}
