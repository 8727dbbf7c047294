//! Golden dataset digests: every named recipe and every public generator
//! must keep producing the exact CSR it produced when
//! `tests/golden/dataset_digests.txt` was committed.
//!
//! This is the proof obligation for work on graph construction
//! (`GraphBuilder::build`, the recipes' edge plumbing): such changes must
//! be **graph-preserving**, byte for byte in all four CSR arrays, because
//! every permutation digest, gate counter and checksum downstream is a
//! function of those bytes.
//!
//! Regenerate (only when a generator's output is *intentionally*
//! changed) with:
//!
//! ```text
//! GORDER_UPDATE_GOLDENS=1 cargo test --test golden_datasets
//! ```

use gorder_graph::datasets;
use gorder_graph::gen::{
    copying_model, erdos_renyi, preferential_attachment, rmat, stochastic_block_model, web_graph,
    PrefAttachConfig, RmatConfig, WebGraphConfig,
};
use gorder_graph::Graph;
use gorder_obs::Fnv1a;
use std::path::PathBuf;

/// FNV-1a over the out-offsets, out-targets, in-offsets and in-targets,
/// in that order, each element little-endian.
fn csr_digest(g: &Graph) -> u64 {
    let mut h = Fnv1a::default();
    for (offsets, targets) in [g.out_csr(), g.in_csr()] {
        for &o in offsets {
            h.update(&o.to_le_bytes());
        }
        for &t in targets {
            h.update(&t.to_le_bytes());
        }
    }
    h.finish()
}

/// Every recipe at two scales, then each generator at one fixed config
/// (its `Default` where it has one).
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for scale in [0.05, 0.2] {
        for d in datasets::all() {
            out.push((format!("{} x{scale}", d.name), d.build(scale)));
        }
    }
    out.push(("erdos_renyi".into(), erdos_renyi(2_000, 16_000, 1)));
    out.push(("rmat".into(), rmat(RmatConfig::default())));
    out.push(("copying_model".into(), copying_model(2_000, 8, 0.5, 1)));
    out.push((
        "preferential_attachment".into(),
        preferential_attachment(PrefAttachConfig::default()),
    ));
    out.push((
        "stochastic_block_model".into(),
        stochastic_block_model(2_000, 20, 0.05, 0.001, 1),
    ));
    out.push(("web_graph".into(), web_graph(WebGraphConfig::default())));
    out.push((
        "web_graph unfragmented".into(),
        web_graph(WebGraphConfig {
            fragmentation: 0.0,
            ..Default::default()
        }),
    ));
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dataset_digests.txt")
}

fn render_current() -> String {
    graphs()
        .into_iter()
        .map(|(tag, g)| format!("{tag} n={} m={} {:016x}\n", g.n(), g.m(), csr_digest(&g)))
        .collect()
}

#[test]
fn graphs_match_golden_digests() {
    let current = render_current();
    let path = golden_path();
    if std::env::var_os("GORDER_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &current).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (got, expect) in current.lines().zip(want.lines()) {
        assert_eq!(
            got, expect,
            "graph drifted from its committed digest — a generator or the \
             builder changed its output; if intentional, regenerate with \
             GORDER_UPDATE_GOLDENS=1 cargo test --test golden_datasets"
        );
    }
    assert_eq!(
        current.lines().count(),
        want.lines().count(),
        "digest line count changed; regenerate tests/golden/dataset_digests.txt"
    );
}
