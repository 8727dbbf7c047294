//! Directed preferential attachment — the "social network" generator.
//!
//! Nodes arrive one at a time; each new node issues `out_degree` edges whose
//! targets are chosen preferentially by current in-degree (plus smoothing),
//! and each such edge is reciprocated with probability `reciprocity`
//! (friendship links in social platforms are often mutual — the paper's
//! social datasets have high reciprocity).
//!
//! Arrival order *is* the node id, which mimics how crawled social datasets
//! are numbered (users discovered early get small ids), so the "Original"
//! ordering of these graphs already carries some locality — matching the
//! paper's observation that original orders beat random.

use crate::csr::{Graph, GraphBuilder};
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`preferential_attachment`].
#[derive(Debug, Clone, Copy)]
pub struct PrefAttachConfig {
    /// Number of nodes.
    pub n: u32,
    /// Out-edges issued by each arriving node.
    pub out_degree: u32,
    /// Probability that a link is reciprocated.
    pub reciprocity: f64,
    /// Extra uniform-attachment smoothing: with this probability a target
    /// is picked uniformly instead of preferentially. Higher values reduce
    /// hub dominance.
    pub uniform_mix: f64,
    /// Triadic closure: with this probability an edge goes to a random
    /// out-neighbour of an already-chosen target ("friend of a friend")
    /// instead of a fresh preferential draw. Real social networks have
    /// strong closure; it creates the triangles, communities and common
    /// in-neighbours (sibling structure) that graph orderings exploit.
    pub closure_prob: f64,
    /// Recency bias: with this probability a preferential draw is taken
    /// from the recent end of the attachment pool (the last ~10 %). Crawled
    /// social datasets are strongly temporally local — users befriend
    /// cohorts who joined around the same time — which is the locality the
    /// arrival-order ("Original") labelling carries.
    pub recency_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PrefAttachConfig {
    fn default() -> Self {
        PrefAttachConfig {
            n: 1000,
            out_degree: 10,
            reciprocity: 0.3,
            uniform_mix: 0.15,
            closure_prob: 0.4,
            recency_bias: 0.4,
            seed: 0,
        }
    }
}

/// Generates a directed scale-free graph via preferential attachment.
///
/// Uses the classic repeated-endpoint trick: a target pool holds one entry
/// per unit of in-degree (plus one baseline entry per node), so uniform
/// sampling from the pool is preferential sampling over nodes.
pub fn preferential_attachment(cfg: PrefAttachConfig) -> Graph {
    let est_edges = (cfg.n as usize) * (cfg.out_degree as usize);
    let mut b = GraphBuilder::with_capacity(cfg.n, est_edges * 2);
    preferential_attachment_edges(cfg, &mut b);
    b.build()
}

/// Adds the raw edges of [`preferential_attachment`] to `b`, so a recipe
/// can blend them with other edge sets and build once.
pub(crate) fn preferential_attachment_edges(cfg: PrefAttachConfig, b: &mut GraphBuilder) {
    let PrefAttachConfig {
        n,
        out_degree,
        reciprocity,
        uniform_mix,
        closure_prob,
        recency_bias,
        seed,
    } = cfg;
    assert!(
        (0.0..=1.0).contains(&reciprocity),
        "reciprocity must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&uniform_mix),
        "uniform_mix must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&closure_prob),
        "closure_prob must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&recency_bias),
        "recency_bias must be a probability"
    );
    assert_eq!(b.n(), n, "builder must be sized for the config's n");
    let mut rng = StdRng::seed_from_u64(seed);
    let est_edges = (n as usize) * (out_degree as usize);
    // Pool of candidate targets, weighted by in-degree + 1.
    let mut pool: Vec<NodeId> = Vec::with_capacity(est_edges + n as usize);
    // Out-adjacency snapshot for triadic-closure draws.
    let mut adj: Vec<Vec<NodeId>> = Vec::with_capacity(n as usize);
    let seed_nodes = out_degree.max(2).min(n);
    for s in 0..seed_nodes {
        pool.push(s);
    }
    // Seed nodes form a small directed cycle so the pool is never empty of
    // linked structure.
    for s in 0..seed_nodes {
        let t = (s + 1) % seed_nodes;
        b.add_edge(s, t);
        pool.push(t);
        adj.push(vec![t]);
    }
    for u in seed_nodes..n {
        let mut my_targets: Vec<NodeId> = Vec::with_capacity(out_degree as usize);
        for _ in 0..out_degree {
            let v = if !my_targets.is_empty() && rng.gen_bool(closure_prob) {
                // friend of a friend: a random out-neighbour of a node we
                // already linked to
                let t = my_targets[rng.gen_range(0..my_targets.len())];
                let friends = &adj[t as usize];
                if friends.is_empty() {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    friends[rng.gen_range(0..friends.len())]
                }
            } else if rng.gen_bool(uniform_mix) {
                rng.gen_range(0..u)
            } else if rng.gen_bool(recency_bias) {
                // preferential among the recently active cohort
                let lo = pool.len() - (pool.len() / 10).max(1);
                pool[rng.gen_range(lo..pool.len())]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if v == u {
                continue;
            }
            b.add_edge(u, v);
            pool.push(v);
            my_targets.push(v);
            if rng.gen_bool(reciprocity) {
                b.add_edge(v, u);
                pool.push(u);
                adj[v as usize].push(u);
            }
        }
        adj.push(my_targets);
        pool.push(u); // baseline weight so new nodes are reachable as targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_gini, GraphStats};

    fn small() -> PrefAttachConfig {
        PrefAttachConfig {
            n: 2000,
            out_degree: 8,
            reciprocity: 0.3,
            uniform_mix: 0.15,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 42,
        }
    }

    #[test]
    fn size_roughly_matches() {
        let g = preferential_attachment(small());
        assert_eq!(g.n(), 2000);
        let expected = 2000.0 * 8.0 * 1.3; // reciprocation inflates ~30%
        let m = g.m() as f64;
        assert!(m > expected * 0.7 && m < expected * 1.2, "m = {m}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            preferential_attachment(small()),
            preferential_attachment(small())
        );
    }

    #[test]
    fn skewed_degrees() {
        let g = preferential_attachment(small());
        assert!(
            degree_gini(&g) > 0.3,
            "PA graphs must be hub-dominated: gini = {}",
            degree_gini(&g)
        );
        let s = GraphStats::compute(&g);
        assert!(s.max_in_degree > 10 * s.mean_degree as u32);
    }

    #[test]
    fn reciprocity_reflected_in_graph() {
        let hi = preferential_attachment(PrefAttachConfig {
            reciprocity: 0.8,
            ..small()
        });
        let lo = preferential_attachment(PrefAttachConfig {
            reciprocity: 0.0,
            ..small()
        });
        let rh = GraphStats::compute(&hi).reciprocity;
        let rl = GraphStats::compute(&lo).reciprocity;
        assert!(rh > 0.5, "high-reciprocity graph: {rh}");
        assert!(rl < 0.1, "zero-reciprocity graph: {rl}");
    }

    #[test]
    fn connected_ish() {
        // Every non-seed node has out-edges, so no isolated nodes.
        let g = preferential_attachment(small());
        assert_eq!(GraphStats::compute(&g).isolated, 0);
    }

    #[test]
    fn tiny_n() {
        let g = preferential_attachment(PrefAttachConfig {
            n: 3,
            out_degree: 2,
            ..small()
        });
        assert_eq!(g.n(), 3);
        assert!(g.m() > 0);
    }
}
