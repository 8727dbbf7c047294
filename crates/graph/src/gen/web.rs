//! Web-graph generator with host-block structure.
//!
//! Models the structure of hyperlink datasets (the paper's `wiki`,
//! `pldarc`, `sdarc`):
//!
//! * pages are grouped into **hosts** with heavy-tailed sizes;
//! * page ids are assigned host-contiguously — the analogue of datasets
//!   numbered by URL-lexicographic order, which the replication singles out
//!   as the reason "Original" order performs well on web graphs;
//! * navigation links connect pages to their host root and to nearby pages
//!   in the same host (template menus);
//! * external links are formed by a copying process: a page either copies
//!   an external link of the previous page on the host (shared template →
//!   sibling structure) or links to the root of a host chosen with a Zipf
//!   preference for popular hosts.

use crate::csr::{Graph, GraphBuilder};
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`web_graph`].
#[derive(Debug, Clone, Copy)]
pub struct WebGraphConfig {
    /// Total page count.
    pub n: u32,
    /// Mean host size (host sizes are heavy-tailed around this mean).
    pub mean_host_size: u32,
    /// Intra-host navigation links per page.
    pub nav_links: u32,
    /// External links per page.
    pub ext_links: u32,
    /// Probability an external link is copied from the previous page of
    /// the same host instead of freshly sampled.
    pub copy_prob: f64,
    /// Probability a *fresh* external link targets a host of the same
    /// *topic* instead of a Zipf-popular one. Hosts are assigned random
    /// topics, so topical communities are **independent of the
    /// URL-alphabetical id order** — exactly the real-web situation that
    /// gives reorderings their headroom: the original order knows about
    /// hosts, but the co-citation communities that dominate locality are
    /// scattered through it.
    pub host_affinity: f64,
    /// Fraction of pages relocated to a "stragglers" block at the end of
    /// the id range (host-relative order preserved). Real crawl/URL-sort
    /// orders are good but imperfect — hosts get split across crawl
    /// sessions, mirrors and alternate subdomains sort far from their
    /// master — so the Original ordering of a real dataset is beatable.
    /// 0.0 produces perfectly contiguous hosts.
    pub fragmentation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebGraphConfig {
    fn default() -> Self {
        WebGraphConfig {
            n: 10_000,
            mean_host_size: 30,
            nav_links: 4,
            ext_links: 3,
            copy_prob: 0.6,
            host_affinity: 0.6,
            fragmentation: 0.25,
            seed: 0,
        }
    }
}

/// Generates a host-structured web graph. See module docs for the model.
pub fn web_graph(cfg: WebGraphConfig) -> Graph {
    let WebGraphConfig {
        n,
        mean_host_size,
        nav_links,
        ext_links,
        copy_prob,
        host_affinity,
        fragmentation,
        seed,
    } = cfg;
    assert!(mean_host_size >= 1, "hosts must contain at least one page");
    assert!(
        (0.0..=1.0).contains(&copy_prob),
        "copy_prob must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&host_affinity),
        "host_affinity must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&fragmentation),
        "fragmentation must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // Carve 0..n into hosts with Pareto-ish sizes (mean ≈ mean_host_size).
    let mut host_starts: Vec<u32> = Vec::new();
    let mut cursor = 0u32;
    while cursor < n {
        host_starts.push(cursor);
        // size = ceil(mean/2 * pareto(alpha=2)) clipped — mean of Pareto(2)
        // with x_m = mean/2 is mean.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let size = ((f64::from(mean_host_size) / 2.0) / u.sqrt()).ceil() as u32;
        cursor = cursor.saturating_add(size.clamp(1, n));
    }
    let hosts = host_starts.len();
    let host_end = |h: usize| -> u32 {
        if h + 1 < hosts {
            host_starts[h + 1]
        } else {
            n
        }
    };

    // Random topic per host; each topic spans ~32 hosts scattered across
    // the id range.
    let n_topics = (hosts / 32).max(1);
    let topic_of: Vec<u32> = (0..hosts)
        .map(|_| rng.gen_range(0..n_topics as u32))
        .collect();
    let mut hosts_by_topic: Vec<Vec<u32>> = vec![Vec::new(); n_topics];
    for (h, &t) in topic_of.iter().enumerate() {
        hosts_by_topic[t as usize].push(h as u32);
    }

    let est = n as usize * (nav_links + ext_links) as usize;
    let mut b = GraphBuilder::with_capacity(n, est);
    // Zipf-ish host popularity: host h has weight 1/(h+1); sample via the
    // inverse-CDF of the harmonic distribution approximated by pow.
    let sample_host = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        // inverse of CDF for p(h) ∝ h^{-1} over [1, hosts]
        let h = ((hosts as f64).powf(u) - 1.0) as usize;
        h.min(hosts - 1)
    };

    // Samples one external landing page: a host of the same topic with
    // probability `host_affinity`, a Zipf-popular host otherwise; the
    // host's root page 30 % of the time, a deep link otherwise.
    let sample_target = |rng: &mut StdRng, h: usize| -> NodeId {
        let th = if rng.gen_bool(host_affinity) {
            let peers = &hosts_by_topic[topic_of[h] as usize];
            peers[rng.gen_range(0..peers.len())] as usize
        } else {
            sample_host(rng)
        };
        let th_start = host_starts[th];
        let th_end = if th + 1 < hosts {
            host_starts[th + 1]
        } else {
            n
        };
        if rng.gen_bool(0.3) {
            th_start
        } else {
            th_start + rng.gen_range(0..th_end - th_start)
        }
    };

    #[allow(clippy::needless_range_loop)] // h indexes three parallel host tables
    for h in 0..hosts {
        let start = host_starts[h];
        let end = host_end(h);
        let size = end - start;
        // The host's shared external menu: a fixed page set that (nearly)
        // every page of this host cites — the site template. Menus
        // concentrate in-degree on small co-cited page groups and give
        // their members a large common in-neighbourhood (all pages of all
        // citing hosts): the dominant sibling structure of real webs, and
        // exactly what Gorder's Ss score detects.
        let menu: Vec<NodeId> = (0..ext_links).map(|_| sample_target(&mut rng, h)).collect();
        for p in start..end {
            // Navigation: link to host root plus other pages of the same
            // host. Targets are random within the host: the block
            // structure gives the Original order its locality, but not a
            // perfect one.
            if p != start {
                b.add_edge(p, start);
                b.add_edge(start, p.min(end - 1)); // root indexes its pages
            }
            for _ in 0..nav_links {
                let q = start + rng.gen_range(0..size);
                if q != p {
                    b.add_edge(p, q);
                }
            }
            // External links: the host menu (with prob `copy_prob` per
            // entry — pages deviate from the template occasionally) plus
            // one personal fresh link.
            for &entry in &menu {
                let target = if rng.gen_bool(copy_prob) {
                    entry
                } else {
                    sample_target(&mut rng, h)
                };
                if target != p {
                    b.add_edge(p, target);
                }
            }
            let personal = sample_target(&mut rng, h);
            if personal != p {
                b.add_edge(p, personal);
            }
        }
    }
    if fragmentation == 0.0 || n == 0 {
        return b.build();
    }
    // Crawl-order imperfection: relocate a random page subset to a
    // stragglers block at the end. The main block keeps its URL order;
    // the stragglers land in discovery order (shuffled) — pages missed by
    // the main crawl surface in an essentially arbitrary sequence. The
    // raw edges are renamed before the one build, which equals building
    // and then relabelling.
    let mut main: Vec<NodeId> = Vec::with_capacity(n as usize);
    let mut stragglers: Vec<NodeId> = Vec::new();
    for p in 0..n {
        if rng.gen_bool(fragmentation) {
            stragglers.push(p);
        } else {
            main.push(p);
        }
    }
    use rand::seq::SliceRandom;
    stragglers.shuffle(&mut rng);
    main.extend(stragglers);
    let perm = crate::permutation::Permutation::from_placement(&main)
        .expect("fragmentation split covers every page once");
    b.relabel_from(0, &perm);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_gini, GraphStats};

    fn cfg() -> WebGraphConfig {
        WebGraphConfig {
            n: 5000,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn sizes() {
        let g = web_graph(cfg());
        assert_eq!(g.n(), 5000);
        let m = g.m() as f64;
        // nav (4+2-ish) + ext (3) per page, minus dedup
        assert!(m > 5000.0 * 4.0 && m < 5000.0 * 10.0, "m = {m}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(web_graph(cfg()), web_graph(cfg()));
    }

    #[test]
    fn original_order_is_local_but_not_perfect() {
        // The URL order keeps intact hosts contiguous, so many more edges
        // are near-diagonal than under a random labelling — but external
        // menu links and the straggler block keep it far from perfect.
        let near = |g: &Graph| {
            g.edges()
                .filter(|&(u, v)| (i64::from(u) - i64::from(v)).abs() <= 64)
                .count() as f64
                / g.m() as f64
        };
        let g = web_graph(cfg());
        let shuffled = {
            use rand::SeedableRng;
            let p = crate::permutation::Permutation::random(
                g.n(),
                &mut rand::rngs::StdRng::seed_from_u64(5),
            );
            g.relabel(&p)
        };
        let (orig, rand_frac) = (near(&g), near(&shuffled));
        assert!(
            orig > 3.0 * rand_frac,
            "original locality {orig:.3} should dwarf random {rand_frac:.3}"
        );
        assert!(orig < 0.9, "original order must not be perfect: {orig:.3}");
    }

    #[test]
    fn skewed_in_degree() {
        let g = web_graph(cfg());
        let s = GraphStats::compute(&g);
        assert!(
            s.max_in_degree > 50,
            "host roots should be hubs: {}",
            s.max_in_degree
        );
        assert!(degree_gini(&g) > 0.2);
    }

    #[test]
    fn no_isolated_pages() {
        let g = web_graph(cfg());
        assert_eq!(GraphStats::compute(&g).isolated, 0);
    }

    #[test]
    fn single_page_hosts_ok() {
        let g = web_graph(WebGraphConfig {
            n: 50,
            mean_host_size: 1,
            seed: 3,
            ..Default::default()
        });
        assert_eq!(g.n(), 50);
    }
}
