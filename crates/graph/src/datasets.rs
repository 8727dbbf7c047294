//! Named dataset recipes standing in for the paper's real-world graphs.
//!
//! The paper evaluates on eight real datasets (plus the replication's
//! `epinion`), ranging from 30 M to 2 B edges. Downloading multi-gigabyte
//! crawls is out of scope for a laptop-scale reproduction, so each dataset
//! is replaced by a **deterministic synthetic recipe** of matching
//! *category* (social vs. web), degree skew, and original-order locality,
//! scaled down ~100–1000× (DESIGN.md §3–4). All recipes accept a `scale`
//! multiplier so harnesses can run quick or full.
//!
//! | recipe | category | model |
//! |---|---|---|
//! | `epinion_like` | social | preferential attachment (small) |
//! | `pokec_like` | social | preferential attachment + BFS-crawl order |
//! | `flickr_like` | social | preferential attachment, higher reciprocity |
//! | `livejournal_like` | social | SBM communities × preferential hubs |
//! | `wiki_like` | web | host-block copying model |
//! | `gplus_like` | social | preferential attachment, heavy skew |
//! | `pldarc_like` | web | host-block copying model |
//! | `twitter_like` | social | preferential attachment, celebrity hubs |
//! | `sdarc_like` | web | host-block copying model, largest |

use crate::csr::{Graph, GraphBuilder};
use crate::gen::{
    preferential_attachment_edges, stochastic_block_model_edges, web_graph, PrefAttachConfig,
    WebGraphConfig,
};
use crate::permutation::Permutation;
use crate::NodeId;

/// Whether a dataset models an online social network or a hyperlink graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Online social platform (nodes = users).
    Social,
    /// Web/hyperlink graph (nodes = pages).
    Web,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Social => write!(f, "Social"),
            Category::Web => write!(f, "Web"),
        }
    }
}

/// A named synthetic stand-in for one of the paper's datasets.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Short name matching the paper's dataset name with a `-like` reading.
    pub name: &'static str,
    /// Social or web.
    pub category: Category,
    /// Base node count at `scale = 1.0`.
    pub base_n: u32,
    builder: fn(n: u32) -> Graph,
}

impl Dataset {
    /// Builds the graph at the given scale factor (`1.0` = the default
    /// laptop-scale size; the harness uses smaller scales for quick runs).
    pub fn build(&self, scale: f64) -> Graph {
        assert!(scale > 0.0, "scale must be positive");
        let n = ((f64::from(self.base_n) * scale).round() as u32).max(16);
        (self.builder)(n)
    }
}

/// Relabels a graph by BFS-crawl discovery order from its max-degree node.
///
/// Crawled social datasets are numbered in discovery order; applying this
/// to a generated graph endows its "Original" ordering with the same kind
/// of locality the paper observes in real data.
pub fn crawl_relabel(g: &Graph) -> Graph {
    let n = g.n();
    if n == 0 {
        return g.clone();
    }
    let mut placement: Vec<NodeId> = Vec::with_capacity(n as usize);
    let mut seen = vec![false; n as usize];
    let start = g.max_degree_node().expect("non-empty graph");
    let mut order_seed = vec![start];
    // restart from every still-unseen node (in id order) to cover all
    order_seed.extend(0..n);
    for s in order_seed {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        let mut head = placement.len();
        placement.push(s);
        while head < placement.len() {
            let u = placement[head];
            head += 1;
            for &v in g.out_neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    placement.push(v);
                }
            }
        }
    }
    let perm = Permutation::from_placement(&placement).expect("BFS placement is a permutation");
    g.relabel(&perm)
}

/// Blends a preferential-attachment graph (hubs, reciprocity, arrival
/// order) with an SBM community overlay (dense friend groups). Real social
/// networks are both: heavy-tailed celebrity structure *and* community
/// structure; the overlay is what gives locality-seeking orderings
/// something to recover. Block ids are contiguous, standing in for the
/// community-correlated numbering of crawled datasets.
fn social_blend(pa: PrefAttachConfig, mean_block: u32, in_block_degree: f64, seed: u64) -> Graph {
    use rand::SeedableRng;
    let n = pa.n;
    let blocks = (n / mean_block).max(2);
    let block = n.div_ceil(blocks).max(2);
    let p_in = (in_block_degree / f64::from(block - 1)).min(1.0);
    // Upper bound on the raw pairs: PA's two per draw, then both SBMs'
    // expected in-block degree with room to spare.
    let est = n as usize * (2 * pa.out_degree as usize + 2 * in_block_degree.ceil() as usize);
    let mut b = GraphBuilder::with_capacity(n, est);
    preferential_attachment_edges(pa, &mut b);
    // Half the community mass stays aligned with the id order (cohorts:
    // users who joined together befriend each other — this is the
    // locality the Original order carries and the reason it beats
    // Random), and half is scattered across the id range (interest groups
    // independent of join date — the locality only a reordering can
    // recover).
    stochastic_block_model_edges(blocks, p_in * 0.5, 0.0, seed ^ 0xA11, &mut b);
    let interests = b.raw_edge_count();
    stochastic_block_model_edges(blocks, p_in, 0.0, seed, &mut b);
    let scatter = Permutation::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0x5CA7));
    b.relabel_from(interests, &scatter);
    b.build()
}

fn epinion_builder(n: u32) -> Graph {
    social_blend(
        PrefAttachConfig {
            n,
            out_degree: 5,
            reciprocity: 0.35,
            uniform_mix: 0.2,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 0xE91,
        },
        40,
        4.0,
        0xE92,
    )
}

fn pokec_builder(n: u32) -> Graph {
    let g = social_blend(
        PrefAttachConfig {
            n,
            out_degree: 9,
            reciprocity: 0.45,
            uniform_mix: 0.15,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 0x90CEC,
        },
        60,
        8.0,
        0x90CED,
    );
    crawl_relabel(&g)
}

fn flickr_builder(n: u32) -> Graph {
    social_blend(
        PrefAttachConfig {
            n,
            out_degree: 7,
            reciprocity: 0.55,
            uniform_mix: 0.1,
            closure_prob: 0.45,
            recency_bias: 0.45,
            seed: 0xF11C4,
        },
        50,
        7.0,
        0xF11C5,
    )
}

fn livejournal_builder(n: u32) -> Graph {
    social_blend(
        PrefAttachConfig {
            n,
            out_degree: 6,
            reciprocity: 0.4,
            uniform_mix: 0.2,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 0x11E,
        },
        200,
        10.0,
        0x11F,
    )
}

fn wiki_builder(n: u32) -> Graph {
    web_graph(WebGraphConfig {
        n,
        mean_host_size: 30,
        nav_links: 3,
        ext_links: 16,
        copy_prob: 0.55,
        host_affinity: 0.65,
        fragmentation: 0.35,
        seed: 0x317A,
    })
}

fn gplus_builder(n: u32) -> Graph {
    social_blend(
        PrefAttachConfig {
            n,
            out_degree: 10,
            reciprocity: 0.2,
            uniform_mix: 0.05,
            closure_prob: 0.4,
            recency_bias: 0.35,
            seed: 0x6915,
        },
        80,
        5.0,
        0x6916,
    )
}

fn pldarc_builder(n: u32) -> Graph {
    web_graph(WebGraphConfig {
        n,
        mean_host_size: 24,
        nav_links: 2,
        ext_links: 11,
        copy_prob: 0.6,
        host_affinity: 0.65,
        fragmentation: 0.35,
        seed: 0x91D,
    })
}

fn twitter_builder(n: u32) -> Graph {
    social_blend(
        PrefAttachConfig {
            n,
            out_degree: 14,
            reciprocity: 0.25,
            uniform_mix: 0.03,
            closure_prob: 0.4,
            recency_bias: 0.3,
            seed: 0x7517,
        },
        100,
        9.0,
        0x7518,
    )
}

fn sdarc_builder(n: u32) -> Graph {
    web_graph(WebGraphConfig {
        n,
        mean_host_size: 28,
        nav_links: 3,
        ext_links: 13,
        copy_prob: 0.6,
        host_affinity: 0.65,
        fragmentation: 0.35,
        seed: 0x5DA,
    })
}

/// The replication's `epinion` (added small dataset for quick tests).
pub fn epinion_like() -> Dataset {
    Dataset {
        name: "epinion",
        category: Category::Social,
        base_n: 4_000,
        builder: epinion_builder,
    }
}

/// The paper's `pokec` (Slovak social network, SNAP).
pub fn pokec_like() -> Dataset {
    Dataset {
        name: "pokec",
        category: Category::Social,
        base_n: 20_000,
        builder: pokec_builder,
    }
}

/// The paper's `flickr` (Flickr growth, Konect).
pub fn flickr_like() -> Dataset {
    Dataset {
        name: "flickr",
        category: Category::Social,
        base_n: 25_000,
        builder: flickr_builder,
    }
}

/// The paper's `livejournal` (SNAP).
pub fn livejournal_like() -> Dataset {
    Dataset {
        name: "livejournal",
        category: Category::Social,
        base_n: 40_000,
        builder: livejournal_builder,
    }
}

/// The paper's `wiki` (English Wikipedia hyperlinks, Konect).
pub fn wiki_like() -> Dataset {
    Dataset {
        name: "wiki",
        category: Category::Web,
        base_n: 60_000,
        builder: wiki_builder,
    }
}

/// The paper's `gplus` (Google+ crawl, Gong et al.).
pub fn gplus_like() -> Dataset {
    Dataset {
        name: "gplus",
        category: Category::Social,
        base_n: 90_000,
        builder: gplus_builder,
    }
}

/// The paper's `pldarc` (pay-level-domain arcs, Web Data Commons).
pub fn pldarc_like() -> Dataset {
    Dataset {
        name: "pldarc",
        category: Category::Web,
        base_n: 120_000,
        builder: pldarc_builder,
    }
}

/// The paper's `twitter` (Kaist WWW2010 crawl).
pub fn twitter_like() -> Dataset {
    Dataset {
        name: "twitter",
        category: Category::Social,
        base_n: 150_000,
        builder: twitter_builder,
    }
}

/// The paper's `sdarc` (subdomain arcs, Web Data Commons — the largest).
pub fn sdarc_like() -> Dataset {
    Dataset {
        name: "sdarc",
        category: Category::Web,
        base_n: 200_000,
        builder: sdarc_builder,
    }
}

/// All nine recipes in the replication's presentation order (smallest to
/// largest: epinion first, sdarc last).
pub fn all() -> Vec<Dataset> {
    vec![
        epinion_like(),
        pokec_like(),
        flickr_like(),
        livejournal_like(),
        wiki_like(),
        gplus_like(),
        pldarc_like(),
        twitter_like(),
        sdarc_like(),
    ]
}

/// Looks a recipe up by name.
pub fn by_name(name: &str) -> Option<Dataset> {
    all().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{approx_diameter, degree_gini, GraphStats};

    #[test]
    fn all_has_nine() {
        assert_eq!(all().len(), 9);
    }

    #[test]
    fn by_name_works() {
        assert_eq!(by_name("wiki").unwrap().name, "wiki");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn recipes_build_at_tiny_scale() {
        for d in all() {
            let g = d.build(0.02);
            assert!(g.n() >= 16, "{}: n = {}", d.name, g.n());
            assert!(g.m() > 0, "{}: no edges", d.name);
        }
    }

    #[test]
    fn recipes_are_deterministic() {
        for d in all() {
            assert_eq!(d.build(0.05), d.build(0.05), "{} not deterministic", d.name);
        }
    }

    #[test]
    fn recipes_are_sparse_and_skewed() {
        for d in all() {
            let g = d.build(0.1);
            let s = GraphStats::compute(&g);
            assert!(
                s.mean_degree < 64.0,
                "{}: too dense ({})",
                d.name,
                s.mean_degree
            );
            assert!(
                degree_gini(&g) > 0.15,
                "{}: degree distribution not skewed (gini = {})",
                d.name,
                degree_gini(&g)
            );
        }
    }

    #[test]
    fn recipes_have_small_diameter() {
        for d in all() {
            let g = d.build(0.1);
            let diam = approx_diameter(&g, 3, 99);
            assert!(
                diam > 0 && diam < 40,
                "{}: diameter estimate {diam}",
                d.name
            );
        }
    }

    #[test]
    fn crawl_relabel_preserves_structure() {
        let d = epinion_like();
        let g = d.build(0.05);
        let h = crawl_relabel(&g);
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
        let sg = GraphStats::compute(&g);
        let sh = GraphStats::compute(&h);
        assert_eq!(sg.max_in_degree, sh.max_in_degree);
        assert_eq!(sg.max_out_degree, sh.max_out_degree);
    }

    #[test]
    fn crawl_relabel_empty() {
        let g = Graph::empty(0);
        assert_eq!(crawl_relabel(&g).n(), 0);
    }

    #[test]
    fn scale_changes_size() {
        let d = pokec_like();
        assert!(d.build(0.02).n() < d.build(0.05).n());
    }
}
