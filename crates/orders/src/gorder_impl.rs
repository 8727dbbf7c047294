//! [`OrderingAlgorithm`] adapter for the Gorder algorithm from
//! `gorder-core`, so the harness can sweep it alongside the baselines.

use crate::runner::OrderStats;
use crate::OrderingAlgorithm;
use gorder_core::budget::{Budget, ExecOutcome};
use gorder_core::{Gorder, GorderBuilder};
use gorder_graph::{Graph, Permutation};

/// Gorder as a member of the ordering zoo.
pub struct GorderOrdering {
    inner: Gorder,
}

impl GorderOrdering {
    /// Paper defaults (`w = 5`).
    pub fn with_defaults() -> Self {
        GorderOrdering {
            inner: Gorder::with_defaults(),
        }
    }

    /// Gorder with an explicit window size.
    pub fn with_window(w: u32) -> Self {
        GorderOrdering {
            inner: GorderBuilder::new().window(w).build(),
        }
    }

    /// Wraps an already-configured [`Gorder`].
    pub fn from_gorder(inner: Gorder) -> Self {
        GorderOrdering { inner }
    }

    /// The window size `w` this instance optimises for. Surfaced so
    /// harnesses that override the window (the regression gate's
    /// injected-regression hook) can report the value they ran with.
    pub fn window(&self) -> u32 {
        self.inner.window_size()
    }
}

impl OrderingAlgorithm for GorderOrdering {
    fn name(&self) -> &'static str {
        "Gorder"
    }

    fn compute(&self, g: &Graph) -> Permutation {
        self.inner.compute(g)
    }

    fn compute_budgeted(
        &self,
        g: &Graph,
        budget: &Budget,
        stats: &mut OrderStats,
    ) -> ExecOutcome<Permutation> {
        let (outcome, gs) = self.inner.compute_budgeted(g, budget);
        stats.heap_increments = gs.increments;
        stats.heap_decrements = gs.decrements;
        stats.heap_pops = gs.pops;
        stats.hub_skips = gs.hub_skips;
        stats.heap_refreshes = gs.refreshes;
        outcome
    }

    fn params(&self) -> String {
        let mut p = format!("w={}", self.inner.window_size());
        if let Some(t) = self.inner.hub_threshold() {
            p.push_str(&format!(",hub={t}"));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_core::score::f_score_of;
    use gorder_graph::gen::copying_model;

    #[test]
    fn adapter_matches_core() {
        let g = copying_model(200, 5, 0.6, 3);
        let via_trait = GorderOrdering::with_defaults().compute(&g);
        let via_core = Gorder::with_defaults().compute(&g);
        assert_eq!(via_trait.as_slice(), via_core.as_slice());
    }

    #[test]
    fn window_is_forwarded() {
        let g = copying_model(200, 5, 0.6, 3);
        let w2 = GorderOrdering::with_window(2).compute(&g);
        let w32 = GorderOrdering::with_window(32).compute(&g);
        // different windows generally give different layouts
        assert_ne!(w2.as_slice(), w32.as_slice());
        // and each scores well on its own objective vs identity
        assert!(f_score_of(&g, &w32, 32) > 0);
    }
}
