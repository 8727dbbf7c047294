//! Content-addressed on-disk permutation cache.
//!
//! Orderings are pure functions of (graph content, ordering name,
//! parameters, seed), and on the sweep grids the same ordering of the
//! same graph is recomputed for every algorithm column and every rerun.
//! This cache memoises them on disk:
//!
//! * the **key** is the FNV-1a digest of the graph's CSR content plus
//!   the ordering's name, canonical parameter string, and seed —
//!   rendered as one canonical identity string
//!   (`graph=<digest>,order=<name>,params=<params>,seed=<seed>`) whose
//!   own FNV hash names the cache file (content addressing: a mutated
//!   graph or changed window/seed lands in a different file);
//! * **writes** are atomic: temp file in the same directory, `fsync`,
//!   rename — a crash mid-store leaves either the old entry or a
//!   `.tmp` orphan, never a torn entry;
//! * **reads** are paranoid: magic, version, node count, the full
//!   identity string, and a trailing FNV checksum are all verified, and
//!   the permutation is re-validated as a bijection
//!   ([`Permutation::try_new`]) before anything trusts it. Any mismatch
//!   is a warn-and-miss, never an error — the caller just recomputes.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use gorder_graph::{Graph, NodeId, Permutation};
use gorder_obs::Fnv1a;

use crate::OrderingAlgorithm;

const MAGIC: &[u8; 4] = b"GOPC";
const FORMAT_VERSION: u32 = 1;

/// FNV-1a digest of a graph's CSR content: node count, out-offsets,
/// out-neighbours (all canonicalised little-endian). Two graphs digest
/// equal iff they have identical adjacency under identical labels —
/// exactly the input an ordering sees. Each call counts in the registry
/// as `order.graph_digests` (it reads the whole CSR).
pub fn graph_digest(g: &Graph) -> u64 {
    gorder_obs::global().counter_add("order.graph_digests", 1);
    let (offsets, neighbors) = g.out_csr();
    let mut h = Fnv1a::default();
    h.update(&g.n().to_le_bytes());
    for o in offsets {
        h.update(&o.to_le_bytes());
    }
    for v in neighbors {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

/// Everything that identifies a cached permutation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`graph_digest`] of the graph the ordering ran on.
    pub graph_digest: u64,
    /// Ordering name, e.g. `"Gorder"`.
    pub ordering: String,
    /// Canonical parameter string ([`OrderingAlgorithm::params`]).
    pub params: String,
    /// Seed the ordering was constructed with.
    pub seed: u64,
}

impl CacheKey {
    /// Key for running `o` on `g` with `seed`.
    pub fn for_ordering(g: &Graph, o: &dyn OrderingAlgorithm, seed: u64) -> Self {
        Self::with_digest(graph_digest(g), o, seed)
    }

    /// Key for running `o` with `seed` on a graph whose [`graph_digest`]
    /// the caller already holds — long-lived holders of a graph (the
    /// serve daemon) digest it once instead of once per request.
    pub fn with_digest(graph_digest: u64, o: &dyn OrderingAlgorithm, seed: u64) -> Self {
        CacheKey {
            graph_digest,
            ordering: o.name().to_string(),
            params: o.params(),
            seed,
        }
    }

    /// The canonical identity string — also what the `order` trace
    /// record carries, so traces and cache entries join on it.
    pub fn identity(&self) -> String {
        format!(
            "graph={:016x},order={},params={},seed={}",
            self.graph_digest, self.ordering, self.params, self.seed
        )
    }

    /// Cache file name: FNV of the identity string, hex, `.perm`.
    pub fn file_name(&self) -> String {
        format!("{:016x}.perm", Fnv1a::hash(self.identity().as_bytes()))
    }
}

/// The on-disk cache: one directory, one file per (graph, ordering,
/// params, seed) tuple.
#[derive(Debug, Clone)]
pub struct OrderCache {
    dir: PathBuf,
}

impl OrderCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(OrderCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads the permutation for `key`, expecting `n` nodes. Returns
    /// `None` (after a stderr warning for anything other than a plain
    /// absent file) if the entry is missing, torn, corrupt, for a
    /// different identity, or not a bijection.
    pub fn load(&self, key: &CacheKey, n: u32) -> Option<Permutation> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "warning: order cache read failed for {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        match decode(&bytes, key, n) {
            Ok(perm) => Some(perm),
            Err(why) => {
                eprintln!(
                    "warning: ignoring corrupt order cache entry {} ({why}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    /// Stores `perm` under `key`, atomically (temp + fsync + rename).
    ///
    /// Safe under concurrent writers of the same key: each writer gets a
    /// unique temp name (pid + a process-wide counter), so two racing
    /// stores never interleave bytes in one temp file — the loser's
    /// rename simply replaces the winner's identical entry.
    pub fn store(&self, key: &CacheKey, perm: &Permutation) -> io::Result<PathBuf> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            key.file_name(),
            std::process::id(),
            STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        let bytes = encode(key, perm);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Entry layout (all integers little-endian):
/// `MAGIC | version u32 | identity_len u32 | identity bytes | n u32 |
///  n × u32 map | fnv u64 of everything before it`.
fn encode(key: &CacheKey, perm: &Permutation) -> Vec<u8> {
    let identity = key.identity();
    let n = perm.len();
    let mut out = Vec::with_capacity(4 + 4 + 4 + identity.len() + 4 + 4 * n as usize + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(identity.len() as u32).to_le_bytes());
    out.extend_from_slice(identity.as_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    for u in 0..n {
        out.extend_from_slice(&perm.apply(u).to_le_bytes());
    }
    let check = Fnv1a::hash(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

fn decode(bytes: &[u8], key: &CacheKey, n: u32) -> Result<Permutation, String> {
    if bytes.len() < 8 + 8 {
        return Err("truncated header".to_string());
    }
    let (payload, check_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(check_bytes.try_into().expect("8 bytes"));
    if Fnv1a::hash(payload) != stored {
        return Err("checksum mismatch".to_string());
    }
    let mut r = payload;
    let mut take = |k: usize| -> Result<&[u8], String> {
        if r.len() < k {
            return Err("truncated payload".to_string());
        }
        let (head, rest) = r.split_at(k);
        r = rest;
        Ok(head)
    };
    if take(4)? != MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(format!("unsupported format version {version}"));
    }
    let id_len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
    let identity = std::str::from_utf8(take(id_len)?).map_err(|_| "bad identity".to_string())?;
    if identity != key.identity() {
        return Err(format!("identity mismatch: entry is for {identity}"));
    }
    let stored_n = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
    if stored_n != n {
        return Err(format!(
            "node count mismatch: entry has {stored_n}, graph has {n}"
        ));
    }
    let map_bytes = take(4 * n as usize)?;
    if !r.is_empty() {
        return Err("trailing bytes".to_string());
    }
    let map: Vec<NodeId> = map_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Permutation::try_new(map).map_err(|e| format!("not a bijection: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gorder_impl::GorderOrdering;
    use gorder_graph::gen::copying_model;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gorder-order-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_key() -> CacheKey {
        CacheKey {
            graph_digest: 0x1234,
            ordering: "Gorder".into(),
            params: "w=5".into(),
            seed: 42,
        }
    }

    #[test]
    fn digest_depends_on_content() {
        let a = copying_model(100, 4, 0.5, 1);
        let b = copying_model(100, 4, 0.5, 2);
        assert_eq!(graph_digest(&a), graph_digest(&a));
        assert_ne!(graph_digest(&a), graph_digest(&b));
        assert_ne!(
            graph_digest(&Graph::empty(3)),
            graph_digest(&Graph::empty(4))
        );
    }

    #[test]
    fn round_trip_returns_exact_permutation() {
        let dir = tmpdir("roundtrip");
        let cache = OrderCache::new(&dir).unwrap();
        let g = copying_model(120, 4, 0.6, 3);
        let o = GorderOrdering::with_defaults();
        let key = CacheKey::for_ordering(&g, &o, 42);
        assert!(cache.load(&key, g.n()).is_none(), "cold cache misses");
        let perm = o.compute(&g);
        cache.store(&key, &perm).unwrap();
        let loaded = cache.load(&key, g.n()).expect("warm cache hits");
        assert_eq!(loaded.as_slice(), perm.as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_key_components_land_in_different_files() {
        let base = demo_key();
        let mut graph2 = base.clone();
        graph2.graph_digest ^= 1;
        let mut params2 = base.clone();
        params2.params = "w=7".into();
        let mut seed2 = base.clone();
        seed2.seed = 43;
        for other in [&graph2, &params2, &seed2] {
            assert_ne!(base.file_name(), other.file_name());
            assert_ne!(base.identity(), other.identity());
        }
    }

    #[test]
    fn corrupt_and_truncated_entries_are_rejected() {
        let dir = tmpdir("corrupt");
        let cache = OrderCache::new(&dir).unwrap();
        let g = copying_model(80, 4, 0.6, 5);
        let o = GorderOrdering::with_defaults();
        let key = CacheKey::for_ordering(&g, &o, 1);
        let perm = o.compute(&g);
        let path = cache.store(&key, &perm).unwrap();

        // Truncation: drop the last 10 bytes.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 10]).unwrap();
        assert!(cache.load(&key, g.n()).is_none());

        // Bit flip inside the map.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.load(&key, g.n()).is_none());

        // Intact bytes still load.
        fs::write(&path, &full).unwrap();
        assert!(cache.load(&key, g.n()).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_node_count_is_a_miss() {
        let dir = tmpdir("ncount");
        let cache = OrderCache::new(&dir).unwrap();
        let g = copying_model(60, 4, 0.6, 7);
        let o = GorderOrdering::with_defaults();
        let key = CacheKey::for_ordering(&g, &o, 1);
        cache.store(&key, &o.compute(&g)).unwrap();
        assert!(cache.load(&key, g.n() + 1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
