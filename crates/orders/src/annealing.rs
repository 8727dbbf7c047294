//! MinLA / MinLogA — simulated annealing on arrangement energies.
//!
//! Minimum linear arrangement minimises `Σ_(u,v)∈E |π(u) − π(v)|`;
//! MinLogA minimises `Σ ln |π(u) − π(v)|`. Both exact problems are
//! NP-hard, so the paper (and the replication) anneal: at step `s` out of
//! `S`, two random nodes swap indices; an energy increase `e > 0` is
//! accepted with probability `exp(−e / (k·T))` where the temperature
//! `T(s) = 1 − s/S` falls linearly and `k` is the replication's "standard
//! energy" scale. `k = 0` degenerates to local search (only improving
//! swaps — which the replication found no parameter setting could beat,
//! its Figure 3).
//!
//! Defaults follow the replication: `S = m`, `k = m/n`.

use crate::{OrderStats, OrderingAlgorithm};
use gorder_core::budget::{Budget, DegradeReason, ExecOutcome};
use gorder_graph::{Graph, NodeId, Permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How often the annealer polls its budget and refreshes the best-so-far
/// snapshot, in swap attempts. Coarser than the node-placement stride of
/// Gorder because one annealing step is much cheaper than one placement.
const ANNEAL_CHECK_STRIDE: u64 = 1024;

/// Temperature schedule for the annealer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cooling {
    /// `T(s) = 1 − s/S` — the replication's schedule (default).
    #[default]
    Linear,
    /// `T(s) = 0.999^⌈s/(S/1000)⌉`-style geometric decay: multiplicative
    /// steps that spend more of the budget at low temperature. The classic
    /// alternative the replication's Figure 3 invites comparing against.
    Geometric,
}

impl Cooling {
    /// Temperature at step `s` of `steps`.
    #[inline]
    pub fn temperature(self, s: u64, steps: u64) -> f64 {
        let frac = s as f64 / steps as f64;
        match self {
            Cooling::Linear => 1.0 - frac,
            Cooling::Geometric => 0.001f64.powf(frac), // 1 → 1e-3 geometrically
        }
    }
}

/// Which arrangement energy the annealer minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyModel {
    /// `Σ |π(u) − π(v)|` (MinLA).
    Linear,
    /// `Σ ln |π(u) − π(v)|` (MinLogA).
    Log,
}

impl EnergyModel {
    /// Cost of one edge at id distance `d ≥ 1`.
    #[inline]
    pub fn edge_cost(self, d: u32) -> f64 {
        debug_assert!(d >= 1, "distinct nodes have distinct positions");
        match self {
            EnergyModel::Linear => f64::from(d),
            EnergyModel::Log => f64::from(d).ln(),
        }
    }

    /// Figure-label of the ordering this model produces.
    pub fn ordering_name(self) -> &'static str {
        match self {
            EnergyModel::Linear => "MinLA",
            EnergyModel::Log => "MinLogA",
        }
    }
}

/// Simulated-annealing arrangement optimiser.
#[derive(Debug, Clone)]
pub struct Annealing {
    model: EnergyModel,
    /// Swap attempts; `None` → `m` (replication default).
    steps: Option<u64>,
    /// Standard energy `k`; `None` → `m/n` (replication default); `0` →
    /// pure local search.
    standard_energy: Option<f64>,
    cooling: Cooling,
    seed: u64,
}

impl Annealing {
    /// MinLA with replication defaults.
    pub fn minla(seed: u64) -> Self {
        Annealing {
            model: EnergyModel::Linear,
            steps: None,
            standard_energy: None,
            cooling: Cooling::Linear,
            seed,
        }
    }

    /// MinLogA with replication defaults.
    pub fn minloga(seed: u64) -> Self {
        Annealing {
            model: EnergyModel::Log,
            steps: None,
            standard_energy: None,
            cooling: Cooling::Linear,
            seed,
        }
    }

    /// Fully parameterised constructor (used by the Figure 3 sweep).
    pub fn with_params(model: EnergyModel, steps: u64, standard_energy: f64, seed: u64) -> Self {
        Annealing {
            model,
            steps: Some(steps),
            standard_energy: Some(standard_energy),
            cooling: Cooling::Linear,
            seed,
        }
    }

    /// Switches the temperature schedule (ablation knob).
    pub fn cooling(mut self, cooling: Cooling) -> Self {
        self.cooling = cooling;
        self
    }

    /// Local search (`k = 0`): accept only strictly improving swaps.
    pub fn local_search(model: EnergyModel, steps: u64, seed: u64) -> Self {
        Self::with_params(model, steps, 0.0, seed)
    }

    /// Runs the annealer and also returns the final arrangement energy.
    pub fn compute_with_energy(&self, g: &Graph) -> (Permutation, f64) {
        let (perm, energy, _) = self.anneal(g, &Budget::unlimited());
        (perm, energy)
    }

    /// Anytime variant: runs under `budget` and, if it expires, returns
    /// the **best** arrangement seen at any budget checkpoint rather than
    /// wherever the random walk happened to be (annealing moves uphill on
    /// purpose, so the current state can be much worse than the best).
    /// The degraded energy is therefore never above the starting energy.
    /// With an unlimited budget this is exactly
    /// [`compute_with_energy`](Self::compute_with_energy) — the budget
    /// checks read no randomness, so the RNG stream is identical.
    pub fn compute_budgeted_with_energy(
        &self,
        g: &Graph,
        budget: &Budget,
    ) -> ExecOutcome<(Permutation, f64)> {
        let (perm, energy, stop) = self.anneal(g, budget);
        match stop {
            None => ExecOutcome::Completed((perm, energy)),
            Some(reason) => ExecOutcome::Degraded((perm, energy), reason),
        }
    }

    fn anneal(&self, g: &Graph, budget: &Budget) -> (Permutation, f64, Option<DegradeReason>) {
        let n = g.n();
        let m = g.m();
        if n < 2 {
            return (Permutation::identity(n), 0.0, None);
        }
        let steps = self.steps.unwrap_or(m);
        let k = self.standard_energy.unwrap_or(m as f64 / f64::from(n));
        let unlimited = budget.is_unlimited();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // pos[u] = current index of u; start from the original arrangement.
        let mut pos: Vec<u32> = (0..n).collect();
        let mut energy: f64 = g
            .edges()
            .map(|(u, v)| {
                self.model
                    .edge_cost(pos[u as usize].abs_diff(pos[v as usize]))
            })
            .sum();
        // Best-so-far snapshot, refreshed only at budget checkpoints (an
        // O(n) clone per refresh; checkpoints are ANNEAL_CHECK_STRIDE
        // apart, so the amortised cost is negligible).
        let mut best: Option<(Vec<u32>, f64)> = None;
        let mut stop = if unlimited { None } else { budget.exhausted(0) };

        if stop.is_none() {
            for s in 0..steps {
                let temp = self.cooling.temperature(s, steps);
                let u: NodeId = rng.gen_range(0..n);
                let v: NodeId = rng.gen_range(0..n);
                if u != v {
                    let delta = swap_delta(g, self.model, &pos, u, v);
                    let accept = if delta < 0.0 {
                        true
                    } else if k > 0.0 && temp > 0.0 {
                        let p = (-delta / (k * temp)).exp();
                        rng.gen_bool(p.clamp(0.0, 1.0))
                    } else {
                        false
                    };
                    if accept {
                        pos.swap(u as usize, v as usize);
                        energy += delta;
                    }
                }
                if !unlimited && (s + 1).is_multiple_of(ANNEAL_CHECK_STRIDE) {
                    if best.as_ref().is_none_or(|(_, be)| energy < *be) {
                        best = Some((pos.clone(), energy));
                    }
                    stop = budget.exhausted(s + 1);
                    if stop.is_some() {
                        break;
                    }
                }
            }
        }
        if stop.is_some() {
            // Return whichever of (current, best snapshot, untouched
            // start) has the lowest energy; the start qualifies because
            // `best` is only refreshed at checkpoints.
            let start_energy: f64 = g
                .edges()
                .map(|(u, v)| self.model.edge_cost(u.abs_diff(v)))
                .sum();
            if let Some((bpos, be)) = best {
                if be < energy {
                    pos = bpos;
                    energy = be;
                }
            }
            if start_energy < energy {
                pos = (0..n).collect();
                energy = start_energy;
            }
        }
        let perm = Permutation::try_new(pos).expect("swaps preserve bijectivity");
        (perm, energy, stop)
    }
}

/// Energy change from swapping the indices of `u` and `v`.
///
/// Only edges incident to `u` or `v` change cost. The edge between `u` and
/// `v` themselves (if any) keeps its distance, and any double-counted
/// incident edge contributes the same to both old and new sums, so the
/// difference is exact.
fn swap_delta(g: &Graph, model: EnergyModel, pos: &[u32], u: NodeId, v: NodeId) -> f64 {
    let mapped = |w: NodeId| -> u32 {
        if w == u {
            pos[v as usize]
        } else if w == v {
            pos[u as usize]
        } else {
            pos[w as usize]
        }
    };
    let mut delta = 0.0;
    for &a in &[u, v] {
        for &x in g.out_neighbors(a) {
            delta += model.edge_cost(mapped(a).abs_diff(mapped(x)))
                - model.edge_cost(pos[a as usize].abs_diff(pos[x as usize]));
        }
        for &x in g.in_neighbors(a) {
            delta += model.edge_cost(mapped(x).abs_diff(mapped(a)))
                - model.edge_cost(pos[x as usize].abs_diff(pos[a as usize]));
        }
    }
    delta
}

impl OrderingAlgorithm for Annealing {
    fn name(&self) -> &'static str {
        self.model.ordering_name()
    }

    fn compute(&self, g: &Graph) -> Permutation {
        self.compute_with_energy(g).0
    }

    fn compute_budgeted(
        &self,
        g: &Graph,
        budget: &Budget,
        _stats: &mut OrderStats,
    ) -> ExecOutcome<Permutation> {
        self.compute_budgeted_with_energy(g, budget)
            .map(|(perm, _)| perm)
    }

    fn params(&self) -> String {
        let steps = self
            .steps
            .map_or_else(|| "auto".to_string(), |s| s.to_string());
        let k = self
            .standard_energy
            .map_or_else(|| "auto".to_string(), |e| format!("{e}"));
        let cooling = match self.cooling {
            Cooling::Linear => "linear",
            Cooling::Geometric => "geometric",
        };
        format!("steps={steps},k={k},cooling={cooling}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gorder_core::score::{minla_energy_of, minloga_energy_of};
    use gorder_graph::gen::{preferential_attachment, PrefAttachConfig};

    fn test_graph() -> Graph {
        preferential_attachment(PrefAttachConfig {
            n: 300,
            out_degree: 4,
            reciprocity: 0.3,
            uniform_mix: 0.3,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 5,
        })
    }

    #[test]
    fn reported_energy_matches_evaluator() {
        let g = test_graph();
        let annealer = Annealing::with_params(EnergyModel::Linear, 5_000, 1.0, 3);
        let (perm, energy) = annealer.compute_with_energy(&g);
        let reference = minla_energy_of(&g, &perm) as f64;
        assert!(
            (energy - reference).abs() < 1e-6 * reference.max(1.0),
            "incremental {energy} vs reference {reference}"
        );
    }

    #[test]
    fn log_energy_matches_evaluator() {
        let g = test_graph();
        let annealer = Annealing::with_params(EnergyModel::Log, 5_000, 0.5, 4);
        let (perm, energy) = annealer.compute_with_energy(&g);
        let reference = minloga_energy_of(&g, &perm);
        assert!((energy - reference).abs() < 1e-6 * reference.abs().max(1.0));
    }

    #[test]
    fn local_search_never_worsens() {
        let g = test_graph();
        let start = minla_energy_of(&g, &Permutation::identity(g.n())) as f64;
        let (_, energy) =
            Annealing::local_search(EnergyModel::Linear, 20_000, 1).compute_with_energy(&g);
        assert!(
            energy <= start,
            "local search went uphill: {energy} > {start}"
        );
    }

    #[test]
    fn annealing_improves_over_identity() {
        let g = test_graph();
        let start = minla_energy_of(&g, &Permutation::identity(g.n())) as f64;
        let (_, energy) = Annealing::minla(2).compute_with_energy(&g);
        assert!(
            energy < start,
            "annealing failed to improve: {energy} vs {start}"
        );
    }

    #[test]
    fn huge_k_accepts_everything_and_randomises() {
        // With k → ∞ every swap is accepted: the result is a random
        // arrangement whose energy is no better than where it started.
        let g = test_graph();
        let (_, hot) =
            Annealing::with_params(EnergyModel::Linear, 20_000, 1e12, 7).compute_with_energy(&g);
        let (_, cold) =
            Annealing::local_search(EnergyModel::Linear, 20_000, 7).compute_with_energy(&g);
        assert!(
            hot > cold,
            "hot annealing {hot} should stay above local search {cold}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = test_graph();
        let a = Annealing::minla(9).compute(&g);
        let b = Annealing::minla(9).compute(&g);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn geometric_cooling_is_valid_and_cools() {
        assert!(Cooling::Geometric.temperature(0, 100) > 0.9);
        assert!(Cooling::Geometric.temperature(99, 100) < 0.01);
        // geometric spends longer cold than linear at the same step
        assert!(Cooling::Geometric.temperature(50, 100) < Cooling::Linear.temperature(50, 100));
        let g = test_graph();
        let (perm, _) = Annealing::with_params(EnergyModel::Linear, 5_000, 1.0, 3)
            .cooling(Cooling::Geometric)
            .compute_with_energy(&g);
        assert_eq!(perm.len(), g.n());
    }

    #[test]
    fn zero_steps_returns_identity() {
        let g = test_graph();
        let (perm, _) =
            Annealing::with_params(EnergyModel::Linear, 0, 1.0, 1).compute_with_energy(&g);
        assert!(perm.is_identity());
    }

    #[test]
    fn tiny_graphs() {
        for n in 0..3u32 {
            let g = Graph::empty(n);
            let (perm, e) = Annealing::minla(1).compute_with_energy(&g);
            assert_eq!(perm.len(), n);
            assert_eq!(e, 0.0);
        }
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let g = test_graph();
        let annealer = Annealing::minla(5);
        let plain = annealer.compute_with_energy(&g);
        match annealer.compute_budgeted_with_energy(&g, &Budget::unlimited()) {
            ExecOutcome::Completed((perm, energy)) => {
                assert_eq!(perm.as_slice(), plain.0.as_slice());
                assert_eq!(energy, plain.1);
            }
            other => panic!(
                "unlimited budget must complete, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn tiny_deadline_degrades_to_no_worse_than_start() {
        let g = test_graph();
        let start = minla_energy_of(&g, &Permutation::identity(g.n())) as f64;
        // Enough steps that a 0-duration deadline always fires first.
        let annealer = Annealing::with_params(EnergyModel::Linear, 50_000_000, 1.0, 3);
        let budget = Budget::unlimited().with_timeout(std::time::Duration::from_millis(1));
        match annealer.compute_budgeted_with_energy(&g, &budget) {
            ExecOutcome::Degraded((perm, energy), reason) => {
                assert_eq!(reason, DegradeReason::DeadlineExceeded);
                assert_eq!(perm.len(), g.n());
                crate::assert_valid_for(&perm, &g);
                assert!(
                    energy <= start,
                    "anytime annealing returned energy {energy} above start {start}"
                );
                let reference = minla_energy_of(&g, &perm) as f64;
                assert!(
                    (energy - reference).abs() < 1e-6 * reference.max(1.0),
                    "degraded energy {energy} does not match its permutation ({reference})"
                );
            }
            other => panic!(
                "1ms deadline on 50M steps must degrade, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn node_cap_degrades_deterministically() {
        let g = test_graph();
        let annealer = Annealing::with_params(EnergyModel::Linear, 1_000_000, 1.0, 11);
        let budget = Budget::unlimited().with_node_cap(4096);
        let a = annealer.compute_budgeted_with_energy(&g, &budget);
        let b = annealer.compute_budgeted_with_energy(&g, &budget);
        match (&a, &b) {
            (ExecOutcome::Degraded((pa, ea), ra), ExecOutcome::Degraded((pb, eb), rb)) => {
                assert_eq!(ra, rb);
                assert_eq!(*ra, DegradeReason::NodeCapReached);
                assert_eq!(pa.as_slice(), pb.as_slice());
                assert_eq!(ea, eb);
            }
            _ => panic!("4096-step cap must degrade both runs"),
        }
    }

    #[test]
    fn swap_delta_is_exact() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let pos: Vec<u32> = (0..5).collect();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u == v {
                    continue;
                }
                let delta = swap_delta(&g, EnergyModel::Linear, &pos, u, v);
                let mut swapped = pos.clone();
                swapped.swap(u as usize, v as usize);
                let before: f64 = g
                    .edges()
                    .map(|(a, b)| f64::from(pos[a as usize].abs_diff(pos[b as usize])))
                    .sum();
                let after: f64 = g
                    .edges()
                    .map(|(a, b)| f64::from(swapped[a as usize].abs_diff(swapped[b as usize])))
                    .sum();
                assert!(
                    (delta - (after - before)).abs() < 1e-9,
                    "swap ({u}, {v}): delta {delta} vs {}",
                    after - before
                );
            }
        }
    }
}
