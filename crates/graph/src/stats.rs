//! Quick structural summaries of a graph.
//!
//! Used by the Table 1 harness (dataset features) and by generator tests to
//! assert the synthetic graphs have the paper's qualitative properties:
//! sparse, small diameter, skewed degree distribution.

use crate::csr::Graph;
use crate::NodeId;

/// Degree-distribution and size summary of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub n: u32,
    /// Directed edge count.
    pub m: u64,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Mean out-degree (= m / n).
    pub mean_degree: f64,
    /// Fraction of directed edges whose reverse edge also exists.
    pub reciprocity: f64,
    /// Number of nodes with zero total degree.
    pub isolated: u32,
}

impl GraphStats {
    /// Computes all statistics in one pass over the graph.
    pub fn compute(g: &Graph) -> GraphStats {
        let mut max_out = 0;
        let mut max_in = 0;
        let mut isolated = 0;
        let mut reciprocal_edges: u64 = 0;
        for u in g.nodes() {
            max_out = max_out.max(g.out_degree(u));
            max_in = max_in.max(g.in_degree(u));
            if g.degree(u) == 0 {
                isolated += 1;
            }
            for &v in g.out_neighbors(u) {
                if g.has_edge(v, u) {
                    reciprocal_edges += 1;
                }
            }
        }
        let m = g.m();
        GraphStats {
            n: g.n(),
            m,
            max_out_degree: max_out,
            max_in_degree: max_in,
            mean_degree: if g.n() == 0 {
                0.0
            } else {
                m as f64 / f64::from(g.n())
            },
            reciprocity: if m == 0 {
                0.0
            } else {
                reciprocal_edges as f64 / m as f64
            },
            isolated,
        }
    }
}

/// Out-degree histogram: `hist[d]` = number of nodes with out-degree `d`.
pub fn out_degree_histogram(g: &Graph) -> Vec<u32> {
    let mut hist = Vec::new();
    for u in g.nodes() {
        let d = g.out_degree(u) as usize;
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Gini coefficient of the total-degree distribution — a scalar skewness
/// measure. ~0 for regular graphs, → 1 for extremely hub-dominated graphs.
/// Real social/web graphs sit well above random graphs of equal density.
pub fn degree_gini(g: &Graph) -> f64 {
    let n = g.n() as usize;
    if n == 0 {
        return 0.0;
    }
    let mut degs: Vec<u64> = g.nodes().map(|u| u64::from(g.degree(u))).collect();
    degs.sort_unstable();
    let total: u64 = degs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // G = (2 * Σ i*x_i) / (n * Σ x_i) - (n + 1) / n, with i starting at 1
    let weighted: f64 = degs
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Approximate diameter estimate: the maximum BFS eccentricity over
/// `samples` pseudo-randomly chosen source nodes (treating edges as
/// undirected so disconnected directions don't report infinity). Cheap
/// sanity metric for generator tests; the benchmark-grade Diameter
/// kernel (Diam) lives in `gorder-engine`.
pub fn approx_diameter(g: &Graph, samples: u32, seed: u64) -> u32 {
    if g.n() == 0 {
        return 0;
    }
    let mut best = 0;
    let mut state = seed | 1;
    let mut dist = vec![u32::MAX; g.n() as usize];
    let mut queue: Vec<NodeId> = Vec::new();
    for _ in 0..samples {
        // xorshift64* — deterministic, dependency-free source sampling
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let src = (state.wrapping_mul(0x2545F4914F6CDD1D) % u64::from(g.n())) as NodeId;
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[src as usize] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u as usize];
            best = best.max(du);
            for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn stats_on_cycle() {
        let g = cycle(10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 10);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
        assert_eq!(s.isolated, 0);
        assert_eq!(s.reciprocity, 0.0);
    }

    #[test]
    fn reciprocity_full_on_bidirected() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let s = GraphStats::compute(&g);
        assert!((s.reciprocity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_counted() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(GraphStats::compute(&g).isolated, 2);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let hist = out_degree_histogram(&g);
        assert_eq!(hist.iter().sum::<u32>(), 5);
        assert_eq!(hist[0], 3); // nodes 2, 3, 4
        assert_eq!(hist[1], 1); // node 1
        assert_eq!(hist[3], 1); // node 0
    }

    #[test]
    fn gini_zero_for_regular() {
        let g = cycle(32);
        assert!(degree_gini(&g).abs() < 1e-9);
    }

    #[test]
    fn gini_positive_for_star() {
        let edges: Vec<(NodeId, NodeId)> = (1..50).map(|v| (0, v)).collect();
        let g = Graph::from_edges(50, &edges);
        assert!(degree_gini(&g) > 0.4, "star graph should be highly skewed");
    }

    #[test]
    fn approx_diameter_cycle() {
        // undirected eccentricity of a 10-cycle from any node is 5
        let d = approx_diameter(&cycle(10), 4, 123);
        assert_eq!(d, 5);
    }

    #[test]
    fn approx_diameter_empty() {
        assert_eq!(approx_diameter(&Graph::empty(0), 3, 1), 0);
    }
}
