//! # gorder-orders — the ordering zoo
//!
//! Every node-ordering method of the Gorder evaluation (Section 2.3 of the
//! replication), behind one object-safe trait so the harness can sweep
//! them:
//!
//! | name | method | module |
//! |---|---|---|
//! | Original | identity (the order the dataset shipped in) | [`trivial`] |
//! | Random | uniform shuffle (replication's added worst-case) | [`trivial`] |
//! | MinLA | simulated annealing on `Σ ∣π(u) − π(v)∣` | [`annealing`] |
//! | MinLogA | simulated annealing on `Σ ln ∣π(u) − π(v)∣` | [`annealing`] |
//! | RCM | Reverse Cuthill–McKee (bandwidth-reducing BFS) | [`rcm`] |
//! | InDegSort | descending in-degree sort | [`degsort`] |
//! | ChDFS | children-first DFS discovery order | [`chdfs`] |
//! | SlashBurn | hub/spokes separation (simplified, per replication) | [`slashburn`] |
//! | LDG | linear deterministic greedy partitioning, k = 64 | [`ldg`] |
//! | **Gorder** | the paper's contribution (from `gorder-core`) | [`gorder_impl`] |
//!
//! Metis is omitted from the headline zoo, as in the replication (it
//! does not scale to the evaluation's graphs); [`bisection`] provides a
//! lightweight partitioning ordering in its place, and [`extensions`]
//! adds the follow-on literature's HubSort/HubCluster/DBG.
//!
//! Every ordering is sequential and implements [`compute`] plus, when it
//! has an anytime path or counters to report, the one budgeted entry
//! [`compute_budgeted`] — the method [`run_ordering`] calls.
//!
//! [`compute`]: OrderingAlgorithm::compute
//! [`compute_budgeted`]: OrderingAlgorithm::compute_budgeted

pub mod annealing;
pub mod bisection;
pub mod cache;
pub mod chdfs;
pub mod degsort;
pub mod extensions;
pub mod gorder_impl;
pub mod layout_cache;
pub mod ldg;
pub mod rcm;
pub mod runner;
pub mod single_flight;
pub mod slashburn;
pub mod trivial;
pub mod undirected;

pub use annealing::{Annealing, EnergyModel};
pub use bisection::Bisection;
pub use cache::{graph_digest, CacheKey, OrderCache};
pub use chdfs::ChDfs;
pub use degsort::InDegSort;
pub use extensions::{Dbg, HubCluster, HubSort};
pub use layout_cache::{Admission, LayoutCache, LayoutStats};
pub use ldg::Ldg;
pub use rcm::Rcm;
pub use runner::{resolve_ordering, run_by_name_plan, run_ordering, OrderStats, OrderingRun};
pub use single_flight::{FlightResult, SingleFlight};
pub use slashburn::SlashBurn;
pub use trivial::{Original, RandomOrder};

// Re-exported because `run_ordering` and `run_by_name_plan` still take a
// plan; no ordering reads it (see `runner`).
pub use gorder_engine::ExecPlan;

use gorder_core::budget::{Budget, ExecOutcome};
use gorder_graph::{Graph, Permutation};

/// A node-ordering method: computes a bijection `old id → new id`.
///
/// Object-safe so harnesses can hold `Vec<Box<dyn OrderingAlgorithm>>`.
/// An ordering implements [`compute`](Self::compute); the harness calls
/// [`compute_budgeted`](Self::compute_budgeted) through [`run_ordering`],
/// which times the build and exports the stats it fills.
pub trait OrderingAlgorithm: Send + Sync {
    /// Name as it appears in the paper's figures.
    fn name(&self) -> &'static str;
    /// Computes the permutation for `g`.
    fn compute(&self, g: &Graph) -> Permutation;
    /// The one overridable budgeted entry. The default returns
    /// `TimedOut` for a budget already exhausted and otherwise
    /// [`compute`](Self::compute) — right for the cheap orderings, which
    /// finish long before any realistic budget bites. Anytime orderings
    /// (Gorder, the annealers) override it to stop at the budget and
    /// return their best valid permutation so far, and orderings with
    /// internal counters (Gorder's unit heap) fill `stats` here.
    fn compute_budgeted(
        &self,
        g: &Graph,
        budget: &Budget,
        _stats: &mut OrderStats,
    ) -> ExecOutcome<Permutation> {
        if budget.exhausted(0).is_some() {
            return ExecOutcome::TimedOut;
        }
        ExecOutcome::Completed(self.compute(g))
    }
    /// Canonical parameter string for cache keys and trace records, e.g.
    /// `"w=5"`. Empty for parameter-free orderings. Must cover every
    /// knob that changes the output permutation (seeds are keyed
    /// separately).
    fn params(&self) -> String {
        String::new()
    }
}

/// All ten orderings in the replication's presentation order, with its
/// default parameters (`S = m`, `k = m/n` for annealing; `k = 64` bins for
/// LDG; `w = 5` for Gorder). `seed` feeds every randomised method.
pub fn all(seed: u64) -> Vec<Box<dyn OrderingAlgorithm>> {
    vec![
        Box::new(Original),
        Box::new(RandomOrder::new(seed)),
        Box::new(Annealing::minla(seed)),
        Box::new(Annealing::minloga(seed)),
        Box::new(Rcm),
        Box::new(InDegSort),
        Box::new(ChDfs),
        Box::new(SlashBurn::new()),
        Box::new(Ldg::new(64)),
        Box::new(gorder_impl::GorderOrdering::with_defaults()),
    ]
}

/// Looks an ordering up by its figure label, case-insensitively.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn OrderingAlgorithm>> {
    all(seed)
        .into_iter()
        .find(|o| o.name().eq_ignore_ascii_case(name))
}

/// [`by_name`] over the extended zoo ([`extensions::extended`]): the ten
/// headline orderings plus HubSort, HubCluster, DBG, and Bisect.
pub fn by_name_extended(name: &str, seed: u64) -> Option<Box<dyn OrderingAlgorithm>> {
    extensions::extended(seed)
        .into_iter()
        .find(|o| o.name().eq_ignore_ascii_case(name))
}

/// Resolves an ordering by name over the extended zoo, case-insensitively,
/// with `Gorder` built at window `window` — the one resolver behind the
/// CLI's `--method`/`--window` and the daemon's `ordering`/`window`.
/// `Err` carries the message for an unknown name (with the known list)
/// or a Gorder window of 0.
pub fn ordering_by_name(
    name: &str,
    window: u32,
    seed: u64,
) -> Result<Box<dyn OrderingAlgorithm>, String> {
    if name.eq_ignore_ascii_case("gorder") {
        if window == 0 {
            return Err("Gorder window must be at least 1".to_string());
        }
        return Ok(Box::new(gorder_impl::GorderOrdering::with_window(window)));
    }
    by_name_extended(name, seed)
        .ok_or_else(|| format!("unknown ordering {name:?}; known: {:?}", extended_names()))
}

/// The ten headline ordering names, in the paper's presentation order.
pub fn all_names() -> Vec<&'static str> {
    all(0).iter().map(|o| o.name()).collect()
}

/// Every ordering name the registry knows, including the extensions —
/// the vocabulary `--orderings` filters and `list-orderings` print.
pub fn extended_names() -> Vec<&'static str> {
    extensions::extended(0).iter().map(|o| o.name()).collect()
}

/// Suggests the closest known (extended) ordering name within edit
/// distance 3 of `name`, case-insensitively — for "did you mean ...?"
/// errors on `--orderings` typos.
pub fn suggest_name(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    extended_names()
        .into_iter()
        .map(|known| (edit_distance(&lower, &known.to_ascii_lowercase()), known))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, _)| d)
        .map(|(_, known)| known)
}

/// Levenshtein distance over bytes (names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Checks that `perm` is a valid permutation for `g` (test helper).
pub fn assert_valid_for(perm: &Permutation, g: &Graph) {
    assert_eq!(perm.len(), g.n(), "permutation size mismatch");
    let mut seen = vec![false; g.n() as usize];
    for u in g.nodes() {
        let p = perm.apply(u) as usize;
        assert!(!seen[p], "duplicate image {p}");
        seen[p] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_graph::gen::{copying_model, preferential_attachment, PrefAttachConfig};

    fn graphs() -> Vec<Graph> {
        vec![
            Graph::empty(0),
            Graph::empty(1),
            Graph::empty(5),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            preferential_attachment(PrefAttachConfig {
                n: 300,
                out_degree: 5,
                reciprocity: 0.3,
                uniform_mix: 0.2,
                closure_prob: 0.3,
                recency_bias: 0.3,
                seed: 5,
            }),
            copying_model(250, 6, 0.6, 8),
        ]
    }

    #[test]
    fn registry_has_ten_in_paper_order() {
        let names: Vec<&str> = all(1).iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "Original",
                "Random",
                "MinLA",
                "MinLogA",
                "RCM",
                "InDegSort",
                "ChDFS",
                "SlashBurn",
                "LDG",
                "Gorder"
            ]
        );
    }

    #[test]
    fn every_ordering_yields_valid_permutations() {
        for g in graphs() {
            for o in all(7) {
                let perm = o.compute(&g);
                assert_valid_for(&perm, &g);
            }
        }
    }

    #[test]
    fn every_ordering_is_deterministic() {
        let g = preferential_attachment(PrefAttachConfig {
            n: 200,
            out_degree: 4,
            reciprocity: 0.3,
            uniform_mix: 0.2,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 9,
        });
        for (a, b) in all(3).into_iter().zip(all(3)) {
            assert_eq!(
                a.compute(&g).as_slice(),
                b.compute(&g).as_slice(),
                "{} not deterministic",
                a.name()
            );
        }
    }

    #[test]
    fn by_name_finds_each() {
        for o in all(1) {
            assert!(by_name(o.name(), 1).is_some(), "{} missing", o.name());
        }
        assert!(by_name("Metis", 1).is_none());
    }

    #[test]
    fn name_lists_cover_the_registries() {
        assert_eq!(all_names().len(), 10);
        assert_eq!(extended_names().len(), 14);
        assert!(extended_names().contains(&"HubSort"));
        for name in extended_names() {
            assert!(by_name_extended(name, 1).is_some(), "{name} missing");
        }
    }

    #[test]
    fn suggest_name_catches_typos() {
        assert_eq!(suggest_name("Gordor"), Some("Gorder"));
        assert_eq!(suggest_name("chdfs"), Some("ChDFS"));
        assert_eq!(suggest_name("HubSrt"), Some("HubSort"));
        assert_eq!(suggest_name("minlog"), Some("MinLogA"));
        assert_eq!(suggest_name("zzzzzzzzzz"), None);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name("gorder", 1).unwrap().name(), "Gorder");
        assert_eq!(by_name("RCM", 1).unwrap().name(), "RCM");
        assert_eq!(by_name("chdfs", 1).unwrap().name(), "ChDFS");
        assert_eq!(by_name("MINLOGA", 1).unwrap().name(), "MinLogA");
    }
}
