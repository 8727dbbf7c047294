//! Byte-bounded in-memory LRU of relabelled graph layouts.
//!
//! A relabelled layout (`Graph::relabel` under an ordering's
//! permutation) is a pure function of the ordering's
//! [`CacheKey::identity`](crate::CacheKey::identity), so a long-lived
//! process that runs many kernels over the same ordering can keep the
//! layout instead of rebuilding it per request. The rules:
//!
//! * the **bound** is in bytes of [`Graph::memory_bytes`]; after every
//!   insert the resident bytes are at most the bound;
//! * **admission** rejects any layout larger than the bound (with a
//!   bound of 0, every layout); re-inserting a resident identity only
//!   refreshes its recency and never counts its bytes twice;
//! * **eviction** drops least-recently-used entries (by the last `get`
//!   hit or insert) until the new entry fits.
//!
//! What may be admitted — e.g. only layouts of completed, non-degraded
//! permutations — is the caller's policy; the cache trusts that an
//! identity names one layout.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use gorder_graph::Graph;

/// Lookup counters and occupancy of a [`LayoutCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Lookups that found their identity.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Sum of the resident layouts' `memory_bytes`.
    pub resident_bytes: u64,
    /// Resident layouts.
    pub entries: usize,
}

/// What one [`LayoutCache::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Stored, after evicting this many older entries.
    Admitted {
        /// Entries evicted to make room.
        evicted: u64,
    },
    /// The identity was already resident; only its recency changed.
    Resident,
    /// The layout is larger than the whole bound and was not stored.
    TooLarge,
}

struct Entry {
    layout: Arc<Graph>,
    last_used: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    clock: u64,
    stats: LayoutStats,
}

/// The LRU itself; shareable across threads (one internal lock).
pub struct LayoutCache {
    bound: u64,
    state: Mutex<State>,
}

impl LayoutCache {
    /// An empty cache holding at most `bound_bytes` of layouts.
    pub fn new(bound_bytes: u64) -> Self {
        LayoutCache {
            bound: bound_bytes,
            state: Mutex::new(State::default()),
        }
    }

    /// The byte bound.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every mutation leaves the state consistent before anything can
        // panic, so a poisoned lock is still safe to use.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The layout for `identity`, if resident (refreshing its recency).
    /// Every call counts as exactly one hit or one miss.
    pub fn get(&self, identity: &str) -> Option<Arc<Graph>> {
        let mut s = self.lock();
        s.clock += 1;
        let now = s.clock;
        let found = s.entries.get_mut(identity).map(|e| {
            e.last_used = now;
            Arc::clone(&e.layout)
        });
        if found.is_some() {
            s.stats.hits += 1;
        } else {
            s.stats.misses += 1;
        }
        found
    }

    /// Whether `identity` is resident. Unlike [`get`](Self::get) it
    /// neither refreshes recency nor counts a hit or miss, so a caller
    /// may peek (e.g. to route a request) before the counted lookup.
    pub fn contains(&self, identity: &str) -> bool {
        self.lock().entries.contains_key(identity)
    }

    /// Offers `layout` under `identity`, evicting least-recently-used
    /// entries until it fits.
    pub fn insert(&self, identity: &str, layout: Arc<Graph>) -> Admission {
        // Every graph has offset arrays, so its size is never 0 and a
        // bound of 0 rejects everything here.
        let bytes = layout.memory_bytes() as u64;
        if bytes > self.bound {
            return Admission::TooLarge;
        }
        let mut s = self.lock();
        s.clock += 1;
        let now = s.clock;
        if let Some(e) = s.entries.get_mut(identity) {
            e.last_used = now;
            return Admission::Resident;
        }
        let mut evicted = 0;
        while s.stats.resident_bytes + bytes > self.bound {
            let oldest = s
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("resident bytes imply a resident entry");
            let e = s.entries.remove(&oldest).expect("key just found");
            s.stats.resident_bytes -= e.layout.memory_bytes() as u64;
            evicted += 1;
        }
        s.entries.insert(
            identity.to_string(),
            Entry {
                layout,
                last_used: now,
            },
        );
        s.stats.resident_bytes += bytes;
        s.stats.evictions += evicted;
        Admission::Admitted { evicted }
    }

    /// Counters and occupancy so far.
    pub fn stats(&self) -> LayoutStats {
        let s = self.lock();
        LayoutStats {
            entries: s.entries.len(),
            ..s.stats
        }
    }
}
