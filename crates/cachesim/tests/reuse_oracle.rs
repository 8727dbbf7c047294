//! Exact oracle for the tracer's reuse-distance histogram: every warm
//! access must land in the bucket of the number of distinct other lines
//! touched since that line's previous access, counted here naively by a
//! backward scan of the stream.
//!
//! The tracker renumbers its access times once its time slots fill (about
//! twice the lines seen), so streams over a few hundred lines run through
//! many renumberings. Some touches fall just around the reach of the
//! tracker's dense last-access vector, so lines start out in its hash
//! map and move into the vector as more lines are seen. Streams longer
//! than a pending buffer run the tracker on the tracer's worker thread,
//! and the histogram is also read once mid-stream. Raise the case count
//! with `PROPTEST_CASES`.

use gorder_cachesim::tracer::REUSE_DISTANCE_BOUNDS;
use gorder_cachesim::{CacheHierarchy, HierarchyConfig, LevelConfig, Tracer};
use gorder_obs::Histogram;
use proptest::prelude::*;
use std::collections::HashMap;

/// The L1 line size of the traced hierarchy.
const LINE: u64 = 64;

/// Lines the tracker's dense vector may cover while only a few lines
/// have been seen (four times its slack of 2^16 lines).
const DENSE_REACH: u64 = 4 << 16;

/// Histogram of exact reuse distances over `lines`, by a backward scan
/// from each warm access to the line's previous one.
fn naive(lines: &[u64]) -> Histogram {
    let mut hist = Histogram::new(&REUSE_DISTANCE_BOUNDS);
    let mut dense: HashMap<u64, usize> = HashMap::new();
    let ids: Vec<usize> = lines
        .iter()
        .map(|&l| {
            let next = dense.len();
            *dense.entry(l).or_insert(next)
        })
        .collect();
    let mut previous: Vec<Option<usize>> = vec![None; dense.len()];
    // `stamp[id] == i + 1` once line `id` was counted for access `i`.
    let mut stamp = vec![0usize; dense.len()];
    for (i, &id) in ids.iter().enumerate() {
        if let Some(j) = previous[id] {
            let mut distinct = 0u64;
            for &other in &ids[j + 1..i] {
                if stamp[other] != i + 1 {
                    stamp[other] = i + 1;
                    distinct += 1;
                }
            }
            hist.observe(distinct as f64);
        }
        previous[id] = Some(i);
    }
    hist
}

/// The line indices of one stream: a hot set of `hot` lines, a sweep
/// that brings in new lines, repeats, and lines around the dense
/// vector's reach.
fn stream(hot: u64, len: usize, seed: u64) -> Vec<u64> {
    let (mut state, mut cursor, mut prev) = (seed, 0u64, 0u64);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state ^ (state >> 29);
            prev = match r % 16 {
                0..=8 => (r >> 8) % hot,
                9..=11 => {
                    cursor = (cursor + 1) % (4 * hot);
                    cursor
                }
                12..=13 => prev,
                _ => DENSE_REACH - 32 + (r >> 8) % 2048,
            };
            prev
        })
        .collect()
}

fn tracer() -> Tracer {
    let level = |size_bytes, associativity| LevelConfig {
        size_bytes,
        line_bytes: LINE,
        associativity,
    };
    Tracer::new(CacheHierarchy::new(&HierarchyConfig {
        levels: vec![level(32 * 1024, 8), level(256 * 1024, 8)],
        prefetch_next_line: false,
    }))
}

fn assert_same(got: &Histogram, want: &Histogram, at: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.counts(),
        want.counts(),
        "bucket counts after {} touches",
        at
    );
    prop_assert_eq!(got.total(), want.total(), "total after {} touches", at);
    prop_assert_eq!(got.sum(), want.sum(), "distance sum after {} touches", at);
    Ok(())
}

proptest! {
    #[test]
    fn reuse_histogram_matches_a_naive_count(
        hot in 1u64..300,
        len in 0usize..9000,
        cut in 0usize..9000,
        seed in 0u64..u64::MAX,
        elem_shift in 0u32..2,
    ) {
        let lines = stream(hot, len, seed);
        let cut = cut.min(len);
        // 64- or 32-byte elements: one or two per line.
        let elem_bytes = LINE >> elem_shift;
        let mut t = tracer();
        t.enable_reuse_tracking();
        let arr = t.alloc(((DENSE_REACH + 4096) << elem_shift) as usize, elem_bytes);
        for (i, &line) in lines.iter().enumerate() {
            if i == cut {
                let mid = t.reuse_histogram().expect("tracking is on").clone();
                assert_same(&mid, &naive(&lines[..cut]), cut)?;
            }
            // odd touches take a line's second element when it has two
            let index = (line << elem_shift) + (i as u64 & u64::from(elem_shift));
            t.touch(&arr, index as usize);
        }
        let end = t.reuse_histogram().expect("tracking is on").clone();
        assert_same(&end, &naive(&lines), len)?;
    }
}
