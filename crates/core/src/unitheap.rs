//! The unit heap: a priority queue whose keys move by ±1.
//!
//! Gorder's greedy pops the unplaced node with the highest proximity score
//! to the current window, and every score update is an increment or
//! decrement **by exactly one** (one shared in-neighbour or one edge enters
//! or leaves the window). The original C++ implementation exploits this
//! with a bucketed structure — a doubly-linked list per key value — so
//! every update is O(1) and `pop_max` is amortised O(1) (the max pointer
//! only rises by one per increment).
//!
//! This is a safe-Rust re-design of that structure: intrusive links are
//! `u32` indices instead of raw pointers, and buckets are indexed by key.
//!
//! ## Sentinel bucket lists
//!
//! Each bucket is a *circular* doubly-linked list through a sentinel: the
//! link arrays hold `n` element slots followed by one sentinel slot per
//! bucket, so bucket `k`'s sentinel is id `n + k`. An empty bucket is its
//! sentinel linked to itself, and every element always has a real
//! predecessor and successor. Unlinking is therefore two unconditional
//! stores, and pushing to a bucket's front four, with no head array and
//! no end-of-list cases. Buckets (and their sentinels) are appended as the
//! maximum key grows. A removed element is marked by the key `NONE`
//! instead of a separate membership array.

use gorder_graph::NodeId;

/// Key of an element that was popped or removed.
const NONE: u32 = u32::MAX;

/// Bucketed max-priority queue over elements `0..n` with unit key updates.
///
/// All of [`increment`](UnitHeap::increment),
/// [`decrement`](UnitHeap::decrement) and [`remove`](UnitHeap::remove) are
/// O(1); [`pop_max`](UnitHeap::pop_max) is amortised O(1 + total
/// increments / pops). Elements start with key 0 and are all present.
///
/// Within a bucket, elements pop in LIFO order of their last key change —
/// the same (unspecified) tie-breaking freedom the paper's implementation
/// has. Initially element `u` counts as changed at time `u`, so among
/// untouched elements the highest id pops first.
#[derive(Clone)]
pub struct UnitHeap {
    /// Key per element; `NONE` once it left the heap.
    key: Vec<u32>,
    /// Circular bucket links over `n` elements then one sentinel per
    /// bucket (bucket `k`'s sentinel is `n + k`).
    prev: Vec<u32>,
    next: Vec<u32>,
    n: usize,
    max_key: usize,
    len: usize,
}

impl UnitHeap {
    /// A heap over elements `0..n`, all present with key 0.
    pub fn new(n: u32) -> Self {
        let n = n as usize;
        let mut h = UnitHeap {
            key: vec![0; n],
            prev: vec![0; n],
            next: vec![0; n],
            n,
            max_key: 0,
            len: n,
        };
        h.add_buckets(1);
        // chain all elements into bucket 0
        for i in 0..n {
            h.push_front(0, i as u32);
        }
        h
    }

    /// Number of elements still in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no elements remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `u` is still in the heap.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.key[u as usize] != NONE
    }

    /// Current key of `u` (meaningful only while `contains(u)`).
    #[inline]
    pub fn key(&self, u: NodeId) -> u32 {
        self.key[u as usize]
    }

    /// Appends empty buckets (self-linked sentinels) until there are
    /// `count`.
    #[cold]
    fn add_buckets(&mut self, count: usize) {
        for s in self.next.len()..self.n + count {
            let s = u32::try_from(s).expect("unit heap: elements + buckets exceed u32 ids");
            self.prev.push(s);
            self.next.push(s);
        }
    }

    #[inline]
    fn push_front(&mut self, k: usize, u: u32) {
        let s = self.n + k;
        if s >= self.next.len() {
            self.add_buckets(k + 1);
        }
        let first = self.next[s];
        self.next[u as usize] = first;
        self.prev[u as usize] = s as u32;
        self.prev[first as usize] = u;
        self.next[s] = u;
        self.max_key = self.max_key.max(k);
    }

    #[inline]
    fn unlink(&mut self, u: u32) {
        let (p, nx) = (self.prev[u as usize], self.next[u as usize]);
        self.next[p as usize] = nx;
        self.prev[nx as usize] = p;
    }

    /// Increases `u`'s key by one. No-op if `u` was already popped/removed.
    pub fn increment(&mut self, u: NodeId) {
        self.update(u, 1);
    }

    /// Decreases `u`'s key by one. No-op if `u` was already popped/removed.
    ///
    /// # Panics
    /// Debug-panics if the key would go negative (the greedy only ever
    /// reverses previous increments).
    pub fn decrement(&mut self, u: NodeId) {
        self.update(u, -1);
    }

    /// Applies a **net** key change in one bucket move: unlink, adjust the
    /// key by `delta`, push at the front of the destination bucket. No-op
    /// if `u` was already popped/removed.
    ///
    /// This is the coalesced equivalent of a run of unit
    /// [`increment`](UnitHeap::increment)/[`decrement`](UnitHeap::decrement)
    /// calls ending with a touch of `u`: the key lands on the same value,
    /// and `u` sits at the head of its final bucket exactly as if its last
    /// unit update had just pushed it there. A `delta` of 0 is a pure
    /// *refresh* — the key stays put but `u` still moves to the bucket
    /// head, which is what a `+1` immediately reversed by a `-1` does in
    /// unit terms. Callers preserving unit-update tie-breaking must
    /// therefore apply net-zero updates too, in last-touch order.
    ///
    /// # Panics
    /// Debug-panics if the key would go negative.
    #[inline]
    pub fn update(&mut self, u: NodeId, delta: i64) {
        let key = self.key[u as usize];
        if key == NONE {
            return;
        }
        self.unlink(u);
        let k = i64::from(key) + delta;
        debug_assert!(k >= 0, "net update below zero for {u}: {delta}");
        let k = k.max(0) as u32;
        self.key[u as usize] = k;
        self.push_front(k as usize, u);
    }

    /// Removes and returns an element with the maximum key, or `None` when
    /// empty.
    pub fn pop_max(&mut self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        let mut s = self.n + self.max_key;
        while self.next[s] as usize == s {
            // amortised: max_key only rises on increments
            debug_assert!(self.max_key > 0, "non-empty heap must have a head");
            self.max_key -= 1;
            s -= 1;
        }
        let u = self.next[s];
        self.unlink(u);
        self.key[u as usize] = NONE;
        self.len -= 1;
        Some(u)
    }

    /// Removes a specific element. No-op if already gone.
    pub fn remove(&mut self, u: NodeId) {
        if !self.contains(u) {
            return;
        }
        self.unlink(u);
        self.key[u as usize] = NONE;
        self.len -= 1;
    }
}

impl std::fmt::Debug for UnitHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitHeap")
            .field("len", &self.len)
            .field("max_key", &self.max_key)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_with_zero_keys() {
        let h = UnitHeap::new(5);
        assert_eq!(h.len(), 5);
        for u in 0..5 {
            assert!(h.contains(u));
            assert_eq!(h.key(u), 0);
        }
    }

    #[test]
    fn pop_returns_max() {
        let mut h = UnitHeap::new(4);
        h.increment(2);
        h.increment(2);
        h.increment(1);
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(1));
        // remaining two have key 0, popped in some order
        let mut rest = vec![h.pop_max().unwrap(), h.pop_max().unwrap()];
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 3]);
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn decrement_reverses_increment() {
        let mut h = UnitHeap::new(3);
        h.increment(0);
        h.increment(1);
        h.increment(1);
        h.decrement(1);
        h.decrement(1);
        assert_eq!(h.key(1), 0);
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn updates_after_pop_are_noops() {
        let mut h = UnitHeap::new(3);
        h.increment(2);
        assert_eq!(h.pop_max(), Some(2));
        h.increment(2);
        h.decrement(2);
        assert!(!h.contains(2));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_specific() {
        let mut h = UnitHeap::new(4);
        h.increment(3);
        h.remove(3);
        assert!(!h.contains(3));
        assert_eq!(h.len(), 3);
        assert_ne!(h.pop_max(), Some(3));
        h.remove(3); // idempotent
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn interleaved_stress_matches_reference() {
        // Reference: recompute max by scan over a plain map.
        let n = 64u32;
        let mut h = UnitHeap::new(n);
        let mut keys: Vec<i64> = vec![0; n as usize];
        let mut alive: Vec<bool> = vec![true; n as usize];
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..5000 {
            let u = (rand() % u64::from(n)) as u32;
            match rand() % 4 {
                0 | 1 => {
                    h.increment(u);
                    if alive[u as usize] {
                        keys[u as usize] += 1;
                    }
                }
                2 => {
                    if alive[u as usize] && keys[u as usize] > 0 {
                        h.decrement(u);
                        keys[u as usize] -= 1;
                    }
                }
                _ => {
                    if step % 7 == 0 {
                        if let Some(popped) = h.pop_max() {
                            let expect_max = keys
                                .iter()
                                .zip(&alive)
                                .filter(|(_, &a)| a)
                                .map(|(&k, _)| k)
                                .max();
                            assert_eq!(Some(keys[popped as usize]), expect_max, "step {step}");
                            alive[popped as usize] = false;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_heap() {
        let mut h = UnitHeap::new(0);
        assert!(h.is_empty());
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn lifo_within_bucket() {
        let mut h = UnitHeap::new(3);
        h.increment(0);
        h.increment(1); // 1 pushed after 0 at key 1 → pops first
        assert_eq!(h.pop_max(), Some(1));
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn update_matches_a_unit_run_ending_in_a_touch() {
        // +3 via update == three increments, including the LIFO position
        // its final touch grants.
        let mut a = UnitHeap::new(4);
        let mut b = UnitHeap::new(4);
        a.increment(1); // 1 enters bucket 1 first
        b.increment(1);
        a.increment(2);
        a.decrement(2);
        a.increment(2); // unit run on 2 nets +1, last touch after 1's
        b.update(2, 1);
        for h in [&mut a, &mut b] {
            assert_eq!(h.pop_max(), Some(2), "2 was pushed into bucket 1 last");
            assert_eq!(h.pop_max(), Some(1));
        }
    }

    #[test]
    fn zero_update_refreshes_bucket_position() {
        // A +1 immediately reversed by a -1 still moves the element to
        // the head of its (unchanged) bucket; update(_, 0) must match.
        let mut a = UnitHeap::new(3);
        let mut b = UnitHeap::new(3);
        // bucket 0 order (head first) starts as [2, 1, 0]
        a.increment(0);
        a.decrement(0); // unit refresh: 0 → head of bucket 0
        b.update(0, 0);
        for h in [&mut a, &mut b] {
            assert_eq!(h.pop_max(), Some(0));
            assert_eq!(h.pop_max(), Some(2));
            assert_eq!(h.pop_max(), Some(1));
        }
    }

    #[test]
    fn update_is_noop_after_pop_and_handles_negative_nets() {
        let mut h = UnitHeap::new(3);
        h.update(1, 3);
        h.update(1, -2);
        assert_eq!(h.key(1), 1);
        assert_eq!(h.pop_max(), Some(1));
        h.update(1, 5); // gone: no-op
        assert!(!h.contains(1));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn drains_everything_exactly_once() {
        let mut h = UnitHeap::new(100);
        for u in 0..100 {
            for _ in 0..(u % 5) {
                h.increment(u);
            }
        }
        let mut seen = [false; 100];
        while let Some(u) = h.pop_max() {
            assert!(!seen[u as usize]);
            seen[u as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
