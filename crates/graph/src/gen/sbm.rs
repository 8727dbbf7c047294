//! Stochastic block model — planted community structure.
//!
//! Nodes are split into equal-size blocks; directed edges appear with
//! probability `p_in` inside a block and `p_out` across blocks. Uses
//! geometric skipping so generation is O(m), not O(n²) — mandatory at the
//! sparse densities the paper's graphs live at.

use crate::csr::{Graph, GraphBuilder};
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a directed SBM graph with `blocks` equal blocks.
///
/// Node ids are assigned block-contiguously (block 0 gets `0..n/blocks`,
/// etc.), so the *original* ordering of an SBM graph is already
/// community-local — a stand-in for datasets collected community-by-
/// community.
pub fn stochastic_block_model(n: u32, blocks: u32, p_in: f64, p_out: f64, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(n);
    stochastic_block_model_edges(blocks, p_in, p_out, seed, &mut b);
    b.build()
}

/// Adds the raw edges of [`stochastic_block_model`] over `b`'s `n` nodes
/// to `b`, so a recipe can blend them with other edge sets and build once.
pub(crate) fn stochastic_block_model_edges(
    blocks: u32,
    p_in: f64,
    p_out: f64,
    seed: u64,
    b: &mut GraphBuilder,
) {
    let n = b.n();
    assert!(blocks > 0 && blocks <= n.max(1), "need 1..=n blocks");
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let mut rng = StdRng::seed_from_u64(seed);
    let block_of = |u: NodeId| u / n.div_ceil(blocks);
    // Geometric skipping over the flattened n*n adjacency matrix, switching
    // the skip distribution when crossing between in-block and out-of-block
    // cells would be complex; instead skip per-row within each regime:
    // for each source u, sample its in-block targets and out-block targets
    // independently with geometric jumps.
    for u in 0..n {
        let bu = block_of(u);
        let row_start = (u / n.div_ceil(blocks)) * n.div_ceil(blocks);
        let row_end = ((bu + 1) * n.div_ceil(blocks)).min(n);
        sample_range(&mut rng, u, row_start, row_end, p_in, b);
        sample_range(&mut rng, u, 0, row_start, p_out, b);
        sample_range(&mut rng, u, row_end, n, p_out, b);
    }
}

/// Adds edges `u -> v` for `v` in `[lo, hi)` each with probability `p`,
/// via geometric skipping.
fn sample_range(rng: &mut StdRng, u: NodeId, lo: NodeId, hi: NodeId, p: f64, b: &mut GraphBuilder) {
    if p <= 0.0 || lo >= hi {
        return;
    }
    if p >= 1.0 {
        for v in lo..hi {
            b.add_edge(u, v);
        }
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut v = lo as u64;
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log1mp).floor() as u64;
        v += skip;
        if v >= hi as u64 {
            break;
        }
        b.add_edge(u, v as NodeId);
        v += 1;
        if v >= hi as u64 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_density() {
        let n = 2000u32;
        let g = stochastic_block_model(n, 10, 0.05, 0.001, 1);
        let block = n / 10;
        let expected_in = f64::from(n) * (f64::from(block) - 1.0) * 0.05;
        let expected_out = f64::from(n) * f64::from(n - block) * 0.001;
        let expected = expected_in + expected_out;
        let m = g.m() as f64;
        assert!(
            (m - expected).abs() < expected * 0.1,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn block_locality() {
        let n = 1000u32;
        let g = stochastic_block_model(n, 10, 0.08, 0.0005, 2);
        let block = n / 10;
        let within = g.edges().filter(|&(u, v)| u / block == v / block).count();
        let total = g.m() as usize;
        assert!(
            within * 2 > total,
            "majority of edges should be within blocks: {within}/{total}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            stochastic_block_model(500, 5, 0.05, 0.002, 9),
            stochastic_block_model(500, 5, 0.05, 0.002, 9)
        );
    }

    #[test]
    fn p_zero_gives_empty() {
        let g = stochastic_block_model(100, 4, 0.0, 0.0, 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn p_one_in_block_gives_clique_blocks() {
        let g = stochastic_block_model(20, 4, 1.0, 0.0, 1);
        // each block of 5 is a directed clique minus self-loops
        assert_eq!(g.m(), 4 * 5 * 4);
    }
}
