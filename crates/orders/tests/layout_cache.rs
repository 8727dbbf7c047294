//! Bound, admission, eviction, and accounting tests for the in-memory
//! layout LRU, including a racing hammer in the style of `cache_race.rs`:
//! whatever the interleaving, the resident bytes never exceed the bound,
//! no identity is counted twice, and every lookup is exactly one hit or
//! one miss.

use std::sync::{Arc, Barrier};

use gorder_graph::Graph;
use gorder_orders::{Admission, LayoutCache};

/// A layout of a known size: `Graph::empty(n)` holds two `n + 1` offset
/// arrays of u64 and no targets.
fn layout(n: u32) -> Arc<Graph> {
    Arc::new(Graph::empty(n))
}

fn bytes(n: u32) -> u64 {
    layout(n).memory_bytes() as u64
}

#[test]
fn eviction_follows_lru_order() {
    let cache = LayoutCache::new(3 * bytes(9));
    for id in ["a", "b", "c"] {
        assert_eq!(
            cache.insert(id, layout(9)),
            Admission::Admitted { evicted: 0 }
        );
    }
    // Touch `a`: `b` is now the least recently used.
    assert!(cache.get("a").is_some());
    assert_eq!(
        cache.insert("d", layout(9)),
        Admission::Admitted { evicted: 1 }
    );
    assert!(cache.get("b").is_none(), "b was least recently used");
    for id in ["a", "c", "d"] {
        assert!(cache.get(id).is_some(), "{id} survives");
    }
    // A layout twice the size evicts the two oldest: `a`, then `c`.
    assert_eq!(bytes(19), 2 * bytes(9));
    cache.get("d");
    assert_eq!(
        cache.insert("big", layout(19)),
        Admission::Admitted { evicted: 2 }
    );
    assert!(cache.get("d").is_some());
    assert!(cache.get("a").is_none() && cache.get("c").is_none());
    let s = cache.stats();
    assert_eq!((s.entries, s.evictions), (2, 3));
    assert_eq!(s.resident_bytes, bytes(9) + bytes(19));
    assert!(s.resident_bytes <= cache.bound());
}

#[test]
fn reinserting_an_identity_counts_its_bytes_once() {
    let cache = LayoutCache::new(10 * bytes(9));
    assert!(matches!(
        cache.insert("x", layout(9)),
        Admission::Admitted { .. }
    ));
    for _ in 0..5 {
        assert_eq!(cache.insert("x", layout(9)), Admission::Resident);
    }
    let s = cache.stats();
    assert_eq!((s.entries, s.resident_bytes), (1, bytes(9)));
}

#[test]
fn reinserting_refreshes_recency() {
    let cache = LayoutCache::new(2 * bytes(9));
    cache.insert("a", layout(9));
    cache.insert("b", layout(9));
    assert_eq!(cache.insert("a", layout(9)), Admission::Resident);
    cache.insert("c", layout(9));
    assert!(cache.get("a").is_some(), "a was refreshed by re-insert");
    assert!(cache.get("b").is_none(), "b was least recently used");
}

#[test]
fn entries_larger_than_the_bound_are_rejected() {
    let cache = LayoutCache::new(bytes(9));
    assert_eq!(
        cache.insert("fits", layout(9)),
        Admission::Admitted { evicted: 0 }
    );
    assert_eq!(cache.insert("huge", layout(10)), Admission::TooLarge);
    // A rejected layout evicts nothing.
    assert!(cache.get("fits").is_some());
    assert!(cache.get("huge").is_none());
    let s = cache.stats();
    assert_eq!((s.entries, s.evictions, s.resident_bytes), (1, 0, bytes(9)));
}

#[test]
fn zero_bound_admits_nothing() {
    let cache = LayoutCache::new(0);
    for (i, n) in [0u32, 1, 9, 1000].into_iter().enumerate() {
        let id = format!("g{i}");
        assert_eq!(cache.insert(&id, layout(n)), Admission::TooLarge);
        assert!(cache.get(&id).is_none());
    }
    let s = cache.stats();
    assert_eq!(
        (s.entries, s.resident_bytes, s.hits, s.misses),
        (0, 0, 0, 4)
    );
}

#[test]
fn hits_plus_misses_equal_lookups() {
    let cache = LayoutCache::new(2 * bytes(9));
    let mut lookups = 0;
    for round in 0..20 {
        // Each identity twice in a row: a miss, then a hit.
        let id = format!("id{}", (round / 2) % 3);
        if cache.get(&id).is_none() {
            cache.insert(&id, layout(9));
        }
        lookups += 1;
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, lookups);
    assert!(s.hits > 0 && s.misses > 0, "{s:?}");
}

#[test]
fn bound_holds_under_an_eight_thread_hammer() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 400;
    // Room for three of the uniform layouts among six identities, so
    // eviction runs constantly; identity "shared" is hit by every thread.
    let size = bytes(31);
    let cache = LayoutCache::new(3 * size + size / 2);
    let barrier = Arc::new(Barrier::new(THREADS));
    let lookups: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, barrier) = (&cache, barrier.clone());
                s.spawn(move || {
                    barrier.wait();
                    let mut lookups = 0u64;
                    for round in 0..ROUNDS {
                        let id = if round % 4 == 0 {
                            "shared".to_string()
                        } else {
                            format!("id{}", (t + round) % 5)
                        };
                        lookups += 1;
                        if cache.get(&id).is_none() {
                            cache.insert(&id, layout(31));
                        }
                        let st = cache.stats();
                        assert!(
                            st.resident_bytes <= cache.bound(),
                            "resident {} over bound {}",
                            st.resident_bytes,
                            cache.bound()
                        );
                        assert_eq!(
                            st.resident_bytes,
                            st.entries as u64 * size,
                            "every resident identity counted exactly once"
                        );
                    }
                    lookups
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, lookups, "{s:?}");
    assert!(s.entries <= 3 && s.evictions > 0, "{s:?}");
}
