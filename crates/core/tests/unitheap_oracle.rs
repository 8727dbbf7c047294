//! Exact tie-break oracle for the unit heap: `UnitHeap` must pop the same
//! element as a naive model on every pop, not just one of the same key.
//!
//! The model keeps each live element's key and the time of its last
//! change (initially its id, so untouched elements pop highest id first)
//! and pops the argmax of `(key, stamp)` by a linear scan. Every
//! increment, decrement and update — a `0` refresh included — restamps
//! its element; all of them, and `remove`, are no-ops on an element that
//! already left. Gorder's permutations depend on this LIFO-by-last-change
//! order, which the per-unit reference in `gorder.rs` cannot check
//! because it runs on `UnitHeap` itself. Raise the case count with
//! `PROPTEST_CASES`.

use gorder_core::UnitHeap;
use proptest::collection;
use proptest::prelude::*;

/// The naive model.
struct Model {
    /// `(key, stamp)` per element; `None` once popped or removed.
    live: Vec<Option<(i64, u64)>>,
    clock: u64,
}

impl Model {
    fn new(n: u32) -> Self {
        Model {
            live: (0..u64::from(n)).map(|u| Some((0, u))).collect(),
            clock: u64::from(n),
        }
    }

    fn key(&self, u: u32) -> Option<i64> {
        self.live[u as usize].map(|(k, _)| k)
    }

    fn update(&mut self, u: u32, delta: i64) {
        if let Some((k, stamp)) = &mut self.live[u as usize] {
            *k += delta;
            *stamp = self.clock;
            self.clock += 1;
        }
    }

    fn remove(&mut self, u: u32) {
        self.live[u as usize] = None;
    }

    fn pop_max(&mut self) -> Option<u32> {
        let (u, _) = self
            .live
            .iter()
            .enumerate()
            .filter_map(|(u, e)| e.map(|e| (u as u32, e)))
            .max_by_key(|&(_, e)| e)?;
        self.remove(u);
        Some(u)
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|e| e.is_some()).count()
    }
}

fn check_state(heap: &UnitHeap, model: &Model) -> TestCaseResult {
    prop_assert_eq!(heap.len(), model.len());
    prop_assert_eq!(heap.is_empty(), model.len() == 0);
    for u in 0..model.live.len() as u32 {
        let key = model.key(u);
        prop_assert_eq!(heap.contains(u), key.is_some(), "contains({})", u);
        if let Some(k) = key {
            prop_assert_eq!(i64::from(heap.key(u)), k, "key({})", u);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn pops_match_the_naive_model_exactly(
        n in 1u32..40,
        ops in collection::vec((0u8..8, 0u32..1_000, -4i64..5), 1..400),
    ) {
        let mut heap = UnitHeap::new(n);
        let mut model = Model::new(n);
        // The element that most recently left the heap, to aim no-op
        // updates at.
        let mut gone: Option<u32> = None;
        for (kind, pick, delta) in ops {
            let u = pick % n;
            match kind {
                0 => {
                    heap.increment(u);
                    model.update(u, 1);
                }
                1 => {
                    // The heap debug-asserts keys never go negative.
                    if model.key(u).is_some_and(|k| k > 0) {
                        heap.decrement(u);
                        model.update(u, -1);
                    }
                }
                2 | 3 => {
                    // Net updates: refreshes (0) and negative nets
                    // included, clamped so the key stays non-negative.
                    let delta = delta.max(-model.key(u).unwrap_or(0));
                    heap.update(u, delta);
                    model.update(u, delta);
                }
                4 => {
                    heap.remove(u);
                    model.remove(u);
                    gone = Some(u);
                }
                5 => {
                    if let Some(u) = gone {
                        heap.increment(u);
                        heap.decrement(u);
                        heap.update(u, delta);
                        heap.remove(u);
                    }
                }
                _ => {
                    let popped = heap.pop_max();
                    prop_assert_eq!(popped, model.pop_max());
                    gone = popped.or(gone);
                }
            }
            check_state(&heap, &model)?;
        }
        // Drain: the whole remaining pop order must match too.
        loop {
            let popped = heap.pop_max();
            prop_assert_eq!(popped, model.pop_max());
            check_state(&heap, &model)?;
            if popped.is_none() {
                break;
            }
        }
    }
}
