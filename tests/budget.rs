//! Budget-exhaustion quality invariants: anytime orderings cut off
//! mid-computation must still return valid bijections, and must not fall
//! below the ChDFS rung of the degradation ladder (Gorder → ChDFS →
//! Original) on the paper's quality function F.

use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_core::score::f_score_of;
use gorder_core::Gorder;
use gorder_graph::{Graph, Permutation};
use gorder_orders::{Annealing, ChDfs, EnergyModel, OrderStats, OrderingAlgorithm};

const WINDOW: u32 = 5;

/// A 24×24 grid, row-major ids, each cell linked both ways to its right
/// and down neighbours. Deterministic, with a natural order that is
/// already cache-friendly — the identity start of the annealer is a
/// strong anytime fallback here.
fn grid() -> Graph {
    let side = 24u32;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let u = r * side + c;
            if c + 1 < side {
                edges.push((u, u + 1));
                edges.push((u + 1, u));
            }
            if r + 1 < side {
                edges.push((u, u + side));
                edges.push((u + side, u));
            }
        }
    }
    Graph::from_edges(side * side, &edges)
}

fn assert_valid_bijection(perm: &Permutation, g: &Graph) {
    assert_eq!(perm.len(), g.n());
    assert!(Permutation::try_new(perm.as_slice().to_vec()).is_ok());
}

#[test]
fn budget_exhausted_gorder_is_no_worse_than_chdfs() {
    let g = grid();
    let chdfs_f = f_score_of(&g, &ChDfs.compute(&g), WINDOW);
    // Cut Gorder off at several points of its greedy pass, including 0
    // (pure ChDFS fallback) and beyond n (never exhausted).
    for cap in [0u64, 128, 256, 1 << 20] {
        let budget = Budget::unlimited().with_node_cap(cap);
        let (perm, degraded) = match Gorder::with_defaults().compute_budgeted(&g, &budget).0 {
            ExecOutcome::Completed(p) => (p, false),
            ExecOutcome::Degraded(p, DegradeReason::NodeCapReached) => (p, true),
            other => panic!("unexpected outcome {}", other.status_label()),
        };
        assert_eq!(degraded, cap < u64::from(g.n()), "cap = {cap}");
        assert_valid_bijection(&perm, &g);
        let f = f_score_of(&g, &perm, WINDOW);
        assert!(
            f >= chdfs_f,
            "cap = {cap}: F = {f} fell below ChDFS's {chdfs_f}"
        );
    }
}

#[test]
fn budget_exhausted_annealing_is_no_worse_than_chdfs() {
    // Work on a graph already laid out by a full Gorder pass, so the
    // annealer's identity start is a Gorder-quality arrangement. The
    // anytime contract guarantees the degraded result is never worse
    // than that start, which comfortably beats ChDFS on F.
    let base = grid();
    let gorder_perm = match Gorder::with_defaults()
        .compute_budgeted(&base, &Budget::unlimited())
        .0
    {
        ExecOutcome::Completed(p) => p,
        other => panic!(
            "unlimited Gorder should complete, got {}",
            other.status_label()
        ),
    };
    let g = base.relabel(&gorder_perm);
    let chdfs_f = f_score_of(&g, &ChDfs.compute(&g), WINDOW);
    // A huge annealing run cut off almost immediately.
    let annealer = Annealing::with_params(EnergyModel::Linear, 100_000_000, 1.0, 7);
    let budget = Budget::unlimited().with_node_cap(2048);
    let perm = match annealer.compute_budgeted(&g, &budget, &mut OrderStats::default()) {
        ExecOutcome::Degraded(p, DegradeReason::NodeCapReached) => p,
        other => panic!(
            "expected Degraded(NodeCapReached), got {}",
            other.status_label()
        ),
    };
    assert_valid_bijection(&perm, &g);
    let f = f_score_of(&g, &perm, WINDOW);
    assert!(f >= chdfs_f, "F = {f} fell below ChDFS's {chdfs_f}");
}
