//! Differential oracle for the cache model: the MRU-ordered `CacheLevel`
//! must return the same hit/miss for every operation, and the same
//! counters, as the timestamp-LRU model it replaced. That model is kept
//! here verbatim as the reference. The hierarchy is checked against it
//! both one access at a time and in batches of random sizes, which it runs
//! level by level, with and without next-line prefetch.
//!
//! Geometries cover line sizes 16–256 B, 1–16 ways, and power-of-two as
//! well as other set counts (1280 and 20480 included, the scaled-down and
//! Xeon L3s). Addresses range from 0 past 2³⁸ bytes, across line number
//! 2³² (where the set index leaves its fastmod path) and up to `u64::MAX`.
//! Raise the case count with `PROPTEST_CASES`.

use gorder_cachesim::{CacheHierarchy, CacheLevel, HierarchyConfig, LevelConfig, LevelStats};
use proptest::collection;
use proptest::prelude::*;

/// The timestamp-LRU level as it stood before the MRU rewrite.
mod reference {
    use gorder_cachesim::{LevelConfig, LevelStats};

    const INVALID: u64 = u64::MAX;

    /// One set-associative LRU cache level.
    #[derive(Debug, Clone)]
    pub struct CacheLevel {
        config: LevelConfig,
        sets: u64,
        line_shift: u32,
        /// `tags[set * assoc + way]`.
        tags: Vec<u64>,
        /// Last-use stamp per way (same indexing).
        stamps: Vec<u64>,
        clock: u64,
        stats: LevelStats,
    }

    impl CacheLevel {
        /// Builds an empty cache with the given geometry.
        ///
        /// # Panics
        /// Panics if the line size is not a power of two, the associativity is
        /// zero, or the geometry doesn't yield a whole power-of-two set count.
        pub fn new(config: LevelConfig) -> Self {
            assert!(
                config.line_bytes.is_power_of_two(),
                "line size must be a power of two"
            );
            assert!(config.associativity > 0, "need at least one way");
            // Sets are indexed by modulo, so non-power-of-two counts are fine
            // (real sliced LLCs have them: 20 MiB / 16-way / 64 B = 20480 sets).
            let sets = config.sets();
            assert!(sets > 0, "geometry yields zero sets");
            let ways = (sets * u64::from(config.associativity)) as usize;
            CacheLevel {
                config,
                sets,
                line_shift: config.line_bytes.trailing_zeros(),
                tags: vec![INVALID; ways],
                stamps: vec![0; ways],
                clock: 0,
                stats: LevelStats::default(),
            }
        }

        /// The level's geometry.
        pub fn config(&self) -> LevelConfig {
            self.config
        }

        /// Counters so far.
        pub fn stats(&self) -> LevelStats {
            self.stats
        }

        /// Looks `addr` up, updating LRU state; on miss, installs the line
        /// (evicting the set's LRU way). Returns `true` on hit.
        pub fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.references += 1;
            let line = addr >> self.line_shift;
            let set = (line % self.sets) as usize;
            let assoc = self.config.associativity as usize;
            let base = set * assoc;
            let ways = &mut self.tags[base..base + assoc];
            if let Some(w) = ways.iter().position(|&t| t == line) {
                self.stamps[base + w] = self.clock;
                return true;
            }
            self.stats.misses += 1;
            // evict LRU way (or fill an invalid one — stamp 0 loses to all)
            let victim = (0..assoc)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("associativity > 0");
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        /// Installs the line holding `addr` without touching the demand
        /// counters — the prefetch path. Returns `true` if the line was
        /// already resident (refreshes its LRU position either way).
        pub fn install(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = addr >> self.line_shift;
            let set = (line % self.sets) as usize;
            let assoc = self.config.associativity as usize;
            let base = set * assoc;
            if let Some(w) = self.tags[base..base + assoc]
                .iter()
                .position(|&t| t == line)
            {
                self.stamps[base + w] = self.clock;
                return true;
            }
            let victim = (0..assoc)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("associativity > 0");
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        /// Resets counters (contents are kept).
        pub fn reset_stats(&mut self) {
            self.stats = LevelStats::default();
        }

        /// Empties the cache and resets counters.
        pub fn flush(&mut self) {
            self.tags.iter_mut().for_each(|t| *t = INVALID);
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.clock = 0;
            self.stats = LevelStats::default();
        }
    }
}

/// The hierarchy's one-access-at-a-time path over reference levels.
struct RefHierarchy {
    levels: Vec<reference::CacheLevel>,
    prefetch_next_line: bool,
    prefetches: u64,
}

impl RefHierarchy {
    fn new(config: &HierarchyConfig) -> Self {
        RefHierarchy {
            levels: config
                .levels
                .iter()
                .map(|&c| reference::CacheLevel::new(c))
                .collect(),
            prefetch_next_line: config.prefetch_next_line,
            prefetches: 0,
        }
    }

    fn access(&mut self, addr: u64) -> usize {
        let mut hit = self.levels.len();
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(addr) {
                hit = i;
                break;
            }
        }
        if hit > 0 && self.prefetch_next_line {
            let next = addr.wrapping_add(self.levels[0].config().line_bytes);
            for level in &mut self.levels {
                level.install(next);
            }
            self.prefetches += 1;
        }
        hit
    }

    fn level_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats()).collect()
    }

    fn reset_stats(&mut self) {
        self.levels
            .iter_mut()
            .for_each(reference::CacheLevel::reset_stats);
    }

    fn flush(&mut self) {
        self.levels
            .iter_mut()
            .for_each(reference::CacheLevel::flush);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Install(u64),
    ResetStats,
    Flush,
}

/// A level geometry: line 16–256 B, 1–16 ways, and a set count that is a
/// power of two, an arbitrary count below 300, 1280 or 20480.
fn geometry() -> impl Strategy<Value = LevelConfig> {
    (4u32..9, 1u32..17, 0u32..4, 0u64..300).prop_map(|(line_log, associativity, kind, n)| {
        let line_bytes = 1u64 << line_log;
        let sets = match kind {
            0 => 1 << (n % 11),
            1 => n + 1,
            2 => 1280,
            _ => 20_480,
        };
        LevelConfig {
            size_bytes: sets * line_bytes * u64::from(associativity),
            line_bytes,
            associativity,
        }
    })
}

/// An address for `config`: usually one of a few sets' conflicting lines
/// (more of them than the set has ways) in a window starting at 0, at
/// 2³⁸, across line number 2³², or ending at `u64::MAX`; sometimes any
/// address below 2³⁹ or any `u64`.
fn address(config: LevelConfig, r: u64) -> u64 {
    let line = config.line_bytes;
    let sets = config.sets();
    let depth = 2 * u64::from(config.associativity) + 3;
    let window = (4 + depth * sets) * line;
    let base = match r % 8 {
        0 | 1 => 0,
        2 | 3 => 1 << 38,
        4 => (1u64 << 32) * line - window / 2,
        5 => u64::MAX - window + 1,
        6 => return (r >> 3) % (1 << 39),
        _ => return r.rotate_left(7),
    };
    let set = (r >> 8) % 4;
    let k = (r >> 16) % depth;
    let offset = (r >> 32) % line;
    base.wrapping_add((set + k * sets) * line + offset)
}

fn op(config: LevelConfig, kind: u32, r: u64) -> Op {
    match kind {
        0..=19 => Op::Access(address(config, r)),
        20..=25 => Op::Install(address(config, r)),
        26 => Op::ResetStats,
        _ => Op::Flush,
    }
}

fn level_case() -> impl Strategy<Value = (LevelConfig, Vec<Op>)> {
    geometry().prop_flat_map(|config| {
        collection::vec(
            (0u32..28, any::<u64>()).prop_map(move |(kind, r)| op(config, kind, r)),
            1..600,
        )
        .prop_map(move |ops| (config, ops))
    })
}

fn hierarchy_case() -> impl Strategy<Value = (HierarchyConfig, Vec<Op>)> {
    collection::vec(geometry(), 1..4).prop_flat_map(|levels| {
        let l1 = levels[0];
        // hierarchies take demand accesses, counter resets and flushes
        let ops = collection::vec(
            (0u32..28, any::<u64>()).prop_map(move |(kind, r)| match op(l1, kind, r) {
                Op::Install(addr) => Op::Access(addr),
                other => other,
            }),
            1..600,
        );
        ops.prop_map(move |ops| {
            let config = HierarchyConfig {
                levels: levels.clone(),
                prefetch_next_line: true,
            };
            (config, ops)
        })
    })
}

/// A step of a batched run.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `len` accesses drawn from `seed` in one `access_batch` call.
    Batch {
        len: usize,
        seed: u64,
    },
    /// One `access`, whose hit level is compared.
    Access(u64),
    ResetStats,
    Flush,
}

/// The addresses of a `Step::Batch`, drawn for the hierarchy's L1.
fn batch(l1: LevelConfig, len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            address(l1, state ^ (state >> 29))
        })
        .collect()
}

/// 1–3 levels, prefetch on or off, and batches of 1 to 400 accesses (one
/// in 32 is 16× longer, past the hierarchy's internal batch) mixed with
/// single accesses, counter resets and flushes.
fn batch_case() -> impl Strategy<Value = (HierarchyConfig, Vec<Step>)> {
    (collection::vec(geometry(), 1..4), any::<bool>()).prop_flat_map(|(levels, prefetch)| {
        let l1 = levels[0];
        let steps = collection::vec(
            (0u32..16, any::<u64>(), 1usize..401).prop_map(move |(kind, r, len)| match kind {
                0..=9 => Step::Batch {
                    len: if r % 32 == 0 { len * 16 } else { len },
                    seed: r,
                },
                10..=13 => Step::Access(address(l1, r)),
                14 => Step::ResetStats,
                _ => Step::Flush,
            }),
            1..24,
        );
        steps.prop_map(move |steps| {
            let config = HierarchyConfig {
                levels: levels.clone(),
                prefetch_next_line: prefetch,
            };
            (config, steps)
        })
    })
}

proptest! {
    #[test]
    fn level_matches_timestamp_lru((config, ops) in level_case()) {
        let mut model = CacheLevel::new(config);
        let mut oracle = reference::CacheLevel::new(config);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Access(addr) => {
                    prop_assert_eq!(model.access(addr), oracle.access(addr), "op {} {:?} on {:?}", i, op, config);
                }
                Op::Install(addr) => {
                    prop_assert_eq!(model.install(addr), oracle.install(addr), "op {} {:?} on {:?}", i, op, config);
                }
                Op::ResetStats => {
                    model.reset_stats();
                    oracle.reset_stats();
                }
                Op::Flush => {
                    model.flush();
                    oracle.flush();
                }
            }
            prop_assert_eq!(model.stats(), oracle.stats(), "after op {} on {:?}", i, config);
        }
    }

    #[test]
    fn prefetching_hierarchy_matches_timestamp_lru((config, ops) in hierarchy_case()) {
        let mut model = CacheHierarchy::new(&config);
        let mut oracle = RefHierarchy::new(&config);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Access(addr) => {
                    prop_assert_eq!(model.access(addr), oracle.access(addr), "op {} {:?} on {:?}", i, op, config);
                }
                Op::ResetStats => {
                    model.reset_stats();
                    oracle.reset_stats();
                }
                Op::Flush => {
                    model.flush();
                    oracle.flush();
                }
                Op::Install(_) => unreachable!("hierarchy cases generate no installs"),
            }
        }
        prop_assert_eq!(model.level_stats(), oracle.level_stats());
        prop_assert_eq!(model.prefetches(), oracle.prefetches);
    }

    #[test]
    fn batched_hierarchy_matches_timestamp_lru((config, steps) in batch_case()) {
        let mut model = CacheHierarchy::new(&config);
        let mut oracle = RefHierarchy::new(&config);
        let l1 = config.levels[0];
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Batch { len, seed } => {
                    let addrs = batch(l1, len, seed);
                    model.access_batch(&addrs);
                    for &addr in &addrs {
                        oracle.access(addr);
                    }
                }
                Step::Access(addr) => {
                    prop_assert_eq!(model.access(addr), oracle.access(addr), "step {} {:?} on {:?}", i, step, config);
                }
                Step::ResetStats => {
                    model.reset_stats();
                    oracle.reset_stats();
                }
                Step::Flush => {
                    model.flush();
                    oracle.flush();
                }
            }
            prop_assert_eq!(model.level_stats(), oracle.level_stats(), "after step {} {:?} on {:?}", i, step, config);
            prop_assert_eq!(model.prefetches(), oracle.prefetches, "after step {} on {:?}", i, config);
        }
    }
}
