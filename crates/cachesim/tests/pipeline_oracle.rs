//! Differential oracle for the pipelined tracer: a `Tracer` runs L1 on the
//! touching thread and the levels below it on a worker, and must report
//! exactly what a serial `CacheHierarchy::access_batch` reports for the
//! same addresses. Readers are called at random points mid-stream, each
//! compared against the serial model at that point, so every drain and
//! every wait for the worker is checked as well as the final counters.
//!
//! Hierarchies have 1–3 levels (one level runs without a worker), with
//! next-line prefetch on and off. Streams are 0, 1, a pending buffer less
//! one, one, one plus one, or several buffers long. With reuse tracking
//! on, the pipelined tracer's reuse histogram, kept on its worker, is
//! compared against that of a one-level tracer, which runs without one.
//! Raise the case count with `PROPTEST_CASES`.

use gorder_cachesim::tracer::VArray;
use gorder_cachesim::{
    CacheHierarchy, CounterSnapshot, HierarchyConfig, LevelConfig, StallModel, Tracer,
};
use proptest::collection;
use proptest::prelude::*;

/// Touches per pending buffer (the crate's private batch size).
const BATCH: usize = 4096;

/// A level geometry: line 16–256 B, 1–16 ways, and a power-of-two set
/// count up to 1024, or 1280 (the scaled-down L3's).
fn geometry() -> impl Strategy<Value = LevelConfig> {
    (4u32..9, 1u32..17, 0u32..12).prop_map(|(line_log, associativity, sets_log)| {
        let line_bytes = 1u64 << line_log;
        let sets = if sets_log == 11 { 1280 } else { 1 << sets_log };
        LevelConfig {
            size_bytes: sets * line_bytes * u64::from(associativity),
            line_bytes,
            associativity,
        }
    })
}

/// How far into the stream a reader is called, and which one.
#[derive(Debug, Clone, Copy)]
struct Read {
    at: usize,
    reader: u32,
}

#[derive(Debug, Clone)]
struct Case {
    config: HierarchyConfig,
    len: usize,
    seed: u64,
    tracking: bool,
    reads: Vec<Read>,
}

/// Stream lengths around the pending buffer's size, or a few buffers.
fn length(kind: u32, r: usize) -> usize {
    match kind {
        0 => 0,
        1 => 1,
        2 => BATCH - 1,
        3 => BATCH,
        4 => BATCH + 1,
        _ => 2 * BATCH + r % (3 * BATCH),
    }
}

fn case() -> impl Strategy<Value = Case> {
    (
        collection::vec(geometry(), 1..4),
        (any::<bool>(), any::<bool>()),
        0u32..8,
        any::<u64>(),
    )
        .prop_flat_map(|(levels, (prefetch, tracking), kind, seed)| {
            let len = length(kind, seed as usize);
            let config = HierarchyConfig {
                levels,
                prefetch_next_line: prefetch,
            };
            collection::vec(
                (0..len + 1, 0u32..5).prop_map(|(at, reader)| Read { at, reader }),
                0..6,
            )
            .prop_map(move |mut reads| {
                reads.sort_by_key(|r| r.at);
                Case {
                    config: config.clone(),
                    len,
                    seed,
                    tracking,
                    reads,
                }
            })
        })
}

/// Array indices with a mix of locality: sequential runs, a hot set that
/// fits small caches, a warm set that fits larger ones, and anything.
fn indices(len: usize, seed: u64) -> Vec<usize> {
    let (mut state, mut cursor) = (seed, 0usize);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (state ^ (state >> 29)) as usize;
            match r % 4 {
                0 => {
                    cursor += 4;
                    cursor
                }
                1 => (r >> 8) % 4096,
                2 => (r >> 8) % (1 << 20),
                _ => (r >> 8) % (1 << 40),
            }
        })
        .collect()
}

/// The serial side: the hierarchy run over each stretch of the stream
/// with one `access_batch` call, and the same L1 alone in a tracer, which
/// runs without a worker, for the reuse fields.
struct Serial {
    hierarchy: CacheHierarchy,
    inline: Tracer,
    fed: usize,
}

impl Serial {
    fn new(config: &HierarchyConfig, tracking: bool) -> Self {
        let mut inline = Tracer::new(CacheHierarchy::new(&HierarchyConfig {
            levels: vec![config.levels[0]],
            prefetch_next_line: false,
        }));
        if tracking {
            inline.enable_reuse_tracking();
        }
        Serial {
            hierarchy: CacheHierarchy::new(config),
            inline,
            fed: 0,
        }
    }

    /// Runs the stream up to `at`; `arr` is the traced array.
    fn catch_up(&mut self, arr: &VArray, indices: &[usize], at: usize) {
        let stretch = &indices[self.fed..at];
        let addrs: Vec<u64> = stretch.iter().map(|&i| arr.addr(i)).collect();
        self.hierarchy.access_batch(&addrs);
        // the inline tracer allocates the same array at the same address
        for &i in stretch {
            self.inline.touch(arr, i);
        }
        self.fed = at;
    }

    /// What the pipelined tracer's counters must read.
    fn counters(&mut self) -> CounterSnapshot {
        let levels = self.hierarchy.level_stats();
        let reuse = self.inline.counters();
        CounterSnapshot {
            refs: levels[0].references,
            level_misses: levels.iter().map(|l| l.misses).collect(),
            memory_accesses: self.hierarchy.stats().memory_accesses,
            ops: 0,
            ..reuse
        }
    }
}

proptest! {
    #[test]
    fn pipelined_tracer_matches_serial_hierarchy(case in case()) {
        let mut tracer = Tracer::new(CacheHierarchy::new(&case.config));
        let mut serial = Serial::new(&case.config, case.tracking);
        if case.tracking {
            tracer.enable_reuse_tracking();
        }
        let arr = tracer.alloc(1 << 40, 1);
        prop_assert_eq!(serial.inline.alloc(1 << 40, 1).addr(0), arr.addr(0));
        let indices = indices(case.len, case.seed);
        let mut reads = case.reads.iter().peekable();
        for at in 0..=case.len {
            while let Some(read) = reads.next_if(|r| r.at == at) {
                serial.catch_up(&arr, &indices, at);
                let model = StallModel::skylake();
                match read.reader {
                    0 => prop_assert_eq!(tracer.stats(), serial.hierarchy.stats(), "at {}", at),
                    1 => prop_assert_eq!(tracer.counters(), serial.counters(), "at {}", at),
                    2 => prop_assert_eq!(
                        tracer.hierarchy().level_stats(),
                        serial.hierarchy.level_stats(),
                        "at {}",
                        at
                    ),
                    3 => prop_assert_eq!(
                        tracer.breakdown(&model),
                        model.breakdown(&serial.hierarchy.stats(), 0),
                        "at {}",
                        at
                    ),
                    _ => prop_assert_eq!(
                        tracer.reuse_histogram().cloned(),
                        serial.inline.reuse_histogram().cloned(),
                        "at {}",
                        at
                    ),
                }
            }
            if at < case.len {
                tracer.touch(&arr, indices[at]);
            }
        }
        serial.catch_up(&arr, &indices, case.len);
        prop_assert_eq!(tracer.hierarchy().level_stats(), serial.hierarchy.level_stats());
        prop_assert_eq!(tracer.hierarchy().prefetches(), serial.hierarchy.prefetches());
        prop_assert_eq!(tracer.counters(), serial.counters());
    }
}
