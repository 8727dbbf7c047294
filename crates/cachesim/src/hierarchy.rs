//! A multi-level non-inclusive cache hierarchy.
//!
//! Each reference probes L1; a miss falls through to the next level, and a
//! line fetched from below is installed at every level it missed. An
//! eviction never invalidates the levels above, so no level's contents
//! depend on another's: each holds whatever its own ordered stream of
//! lookups left there. That is what lets [`CacheHierarchy::access_batch`]
//! run a batch through L1 whole, then L2 over L1's misses, and so on,
//! with the same result as one reference at a time. The counters map
//! directly onto the replication's Table 3 columns:
//!
//! * `L1-ref` — references to L1 (every data reference);
//! * `L1-mr` — L1 miss rate;
//! * `L3-ref` — references reaching L3 (= L2 misses);
//! * `L3-r` — L3 references / L1 references;
//! * `Cache-mr` — memory accesses / L1 references.

use crate::level::{CacheLevel, LevelConfig, LevelStats, Ref, StreamRef};

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Levels from closest (L1) to farthest (LLC).
    pub levels: Vec<LevelConfig>,
    /// Next-line prefetcher: on every demand miss, the following line is
    /// installed at all levels (without counting as a demand reference).
    /// Sequential CSR scans benefit; pointer-chasing attribute reads do
    /// not — an ablation knob for the `prefetch` bench.
    pub prefetch_next_line: bool,
}

impl HierarchyConfig {
    /// The replication's machine: Xeon E5-4650L — 32 KiB L1d (8-way),
    /// 256 KiB L2 (8-way), 20 MiB L3 (16-way), 64-byte lines throughout.
    pub fn xeon_e5() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 32 << 10,
                    line_bytes: 64,
                    associativity: 8,
                },
                LevelConfig {
                    size_bytes: 256 << 10,
                    line_bytes: 64,
                    associativity: 8,
                },
                LevelConfig {
                    size_bytes: 20 << 20,
                    line_bytes: 64,
                    associativity: 16,
                },
            ],
            prefetch_next_line: false,
        }
    }

    /// A hierarchy for laptop-scale graphs: every level shrinks 16× (to
    /// 2 KiB / 16 KiB / 1.25 MiB, 64-byte lines kept). The paper's L1
    /// holds ~0.004 % of a graph's per-node attributes; a full-size 32 KiB
    /// L1 would hold a third of our ~100×-smaller datasets, letting
    /// *mid-range* layout quality mask the micro-clustering the paper
    /// measures. Shrinking capacities restores the paper's
    /// working-set-to-cache ratios.
    pub fn scaled_down() -> Self {
        HierarchyConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 2 << 10,
                    line_bytes: 64,
                    associativity: 8,
                },
                LevelConfig {
                    size_bytes: 16 << 10,
                    line_bytes: 64,
                    associativity: 8,
                },
                LevelConfig {
                    size_bytes: 1280 << 10,
                    line_bytes: 64,
                    associativity: 16,
                },
            ],
            prefetch_next_line: false,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::xeon_e5()
    }
}

/// Summary counters in the replication's Table 3 vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStats {
    /// References to L1 (all data references).
    pub l1_refs: u64,
    /// L1 miss rate.
    pub l1_miss_rate: f64,
    /// References reaching the last level.
    pub llc_refs: u64,
    /// LLC references / L1 references.
    pub llc_ratio: f64,
    /// Full misses (memory accesses) / L1 references.
    pub cache_miss_rate: f64,
    /// Hits at each level, then memory accesses last.
    pub hits_per_level: Vec<u64>,
    /// Accesses that fell through every level.
    pub memory_accesses: u64,
}

/// A non-inclusive cache hierarchy with per-level statistics.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    prefetches: u64,
    streams: Streams,
}

/// The two streams between levels, reused from batch to batch: each level
/// reads one and writes the other. Prefetch installs ride in them too, so
/// a prefetching hierarchy's entries say which kind they are. Without
/// prefetch every entry is a demand, and the streams hold bare addresses:
/// half the bytes of a [`Ref`] and no kind test per entry (sim-web's
/// `op_ms` measured 12% lower, paired median, than with `Ref` streams
/// throughout).
///
/// A [`crate::Tracer`] also uses a pair as the buffer it hands from L1 to
/// the levels below: L1 writes the first stream, and the levels below
/// run over it with the second as scratch.
#[derive(Debug, Clone)]
pub(crate) enum Streams {
    Demand([Vec<u64>; 2]),
    Prefetch([Vec<Ref>; 2]),
}

impl Streams {
    fn new(prefetch: bool) -> Self {
        if prefetch {
            Streams::Prefetch(Default::default())
        } else {
            Streams::Demand(Default::default())
        }
    }

    /// Runs `addrs` through `l1` into the first stream. Returns the
    /// stream's length and the next-line prefetches L1 issued (one per
    /// demand miss, none without prefetch).
    fn first(&mut self, l1: &mut CacheLevel, addrs: &[u64]) -> (usize, u64) {
        fn run<R: StreamRef + From<u64>>(
            l1: &mut CacheLevel,
            addrs: &[u64],
            out: &mut Vec<R>,
            prefetch: bool,
        ) -> (usize, u64) {
            // a prefetching L1 forwards an install after each miss
            let room = addrs.len() << usize::from(prefetch);
            if out.len() < room {
                out.resize(room, R::from(0));
            }
            let (len, hits) = l1.pass(addrs, out, prefetch);
            (len, (addrs.len() - hits) as u64 * u64::from(prefetch))
        }
        match self {
            Streams::Demand([out, _]) => run(l1, addrs, out, false),
            Streams::Prefetch([out, _]) => run(l1, addrs, out, true),
        }
    }

    /// Runs the first `len` entries of the first stream down `levels`,
    /// each over what the one above forwarded, until a level forwards
    /// nothing.
    pub(crate) fn rest(&mut self, levels: &mut [CacheLevel], len: usize) {
        fn run<R: StreamRef>(levels: &mut [CacheLevel], [a, b]: &mut [Vec<R>; 2], mut len: usize) {
            if b.len() < len {
                b.resize(len, a[0]);
            }
            let (mut input, mut output) = (&mut a[..], &mut b[..]);
            for level in levels {
                if len == 0 {
                    break;
                }
                (len, _) = level.pass(&input[..len], output, false);
                std::mem::swap(&mut input, &mut output);
            }
        }
        match self {
            Streams::Demand(streams) => run(levels, streams, len),
            Streams::Prefetch(streams) => run(levels, streams, len),
        }
    }
}

/// References per batch, here and in the tracer's pending buffer: long
/// enough that each level's pass runs hot, short enough that the streams
/// between levels stay small.
pub(crate) const BATCH: usize = 4096;

impl CacheHierarchy {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Panics
    /// Panics on an empty level list or invalid level geometry.
    pub fn new(config: &HierarchyConfig) -> Self {
        assert!(!config.levels.is_empty(), "need at least one cache level");
        CacheHierarchy {
            levels: config.levels.iter().map(|&c| CacheLevel::new(c)).collect(),
            prefetches: 0,
            streams: Streams::new(config.prefetch_next_line),
        }
    }

    /// The replication's default machine.
    pub fn xeon_e5() -> Self {
        Self::new(&HierarchyConfig::xeon_e5())
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// One data reference at `addr`. Returns the level index that hit
    /// (0 = L1), or `depth()` for a full miss to memory.
    pub fn access(&mut self, addr: u64) -> usize {
        // A reference reaches level k + 1 only by missing level k, so the
        // levels it missed number exactly its hit level.
        let misses = |h: &Self| h.levels.iter().map(|l| l.stats().misses).sum::<u64>();
        let before = misses(self);
        self.access_batch(&[addr]);
        (misses(self) - before) as usize
    }

    /// Data references at `addrs`, in order: the same counters and the
    /// same cache contents as calling [`CacheHierarchy::access`] on each.
    ///
    /// Each batch runs through L1 whole, then through L2 over L1's
    /// misses only, and so on down. That is exact because no level's
    /// contents depend on any other's: a miss fills every level it passed
    /// through, and an eviction never invalidates the levels above, so
    /// each level sees the same ordered stream either way.
    pub fn access_batch(&mut self, addrs: &[u64]) {
        for batch in addrs.chunks(BATCH) {
            self.run(batch);
        }
    }

    fn run(&mut self, addrs: &[u64]) {
        let (len, prefetches) = self.streams.first(&mut self.levels[0], addrs);
        self.prefetches += prefetches;
        self.streams.rest(&mut self.levels[1..], len);
    }

    /// Runs `addrs` through L1 alone, leaving in the first of `streams`
    /// what the levels below must see. Returns that stream's length.
    pub(crate) fn run_l1(&mut self, addrs: &[u64], streams: &mut Streams) -> usize {
        let (len, prefetches) = streams.first(&mut self.levels[0], addrs);
        self.prefetches += prefetches;
        len
    }

    /// An empty pair of streams of the kind this hierarchy's levels pass.
    pub(crate) fn empty_streams(&self) -> Streams {
        Streams::new(matches!(self.streams, Streams::Prefetch(_)))
    }

    /// Moves the levels below L1 out, leaving L1 alone.
    pub(crate) fn take_below(&mut self) -> Vec<CacheLevel> {
        self.levels.split_off(1)
    }

    /// Puts back the levels [`CacheHierarchy::take_below`] moved out.
    pub(crate) fn restore_below(&mut self, below: Vec<CacheLevel>) {
        debug_assert_eq!(self.levels.len(), 1, "the levels below are already here");
        self.levels.extend(below);
    }

    /// L1's line size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        self.levels[0].config().line_bytes
    }

    /// Number of next-line prefetches issued.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Raw per-level counters.
    pub fn level_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats()).collect()
    }

    /// Table-3-style summary.
    pub fn stats(&self) -> CacheStats {
        let per = self.level_stats();
        let l1 = per.first().copied().unwrap_or_default();
        let last = per.last().copied().unwrap_or_default();
        let hits_per_level: Vec<u64> = per.iter().map(|s| s.references - s.misses).collect();
        let memory = last.misses;
        CacheStats {
            l1_refs: l1.references,
            l1_miss_rate: l1.miss_rate(),
            llc_refs: last.references,
            llc_ratio: if l1.references == 0 {
                0.0
            } else {
                last.references as f64 / l1.references as f64
            },
            cache_miss_rate: if l1.references == 0 {
                0.0
            } else {
                memory as f64 / l1.references as f64
            },
            hits_per_level,
            memory_accesses: memory,
        }
    }

    /// Resets counters, keeping cache contents (for warmup protocols).
    pub fn reset_stats(&mut self) {
        self.levels.iter_mut().for_each(CacheLevel::reset_stats);
    }

    /// Empties all levels and counters.
    pub fn flush(&mut self) {
        self.levels.iter_mut().for_each(CacheLevel::flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(&HierarchyConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 256,
                    line_bytes: 64,
                    associativity: 2,
                },
                LevelConfig {
                    size_bytes: 1024,
                    line_bytes: 64,
                    associativity: 4,
                },
            ],
            prefetch_next_line: false,
        })
    }

    #[test]
    fn miss_falls_through_and_installs_above() {
        let mut h = tiny();
        assert_eq!(h.access(0), 2, "cold miss goes to memory");
        assert_eq!(h.access(0), 0, "now in L1");
        let s = h.stats();
        assert_eq!(s.l1_refs, 2);
        assert_eq!(s.memory_accesses, 1);
        assert_eq!(s.llc_refs, 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = tiny();
        // fill L1 set 0 (2-way, even lines) with 3 lines: line 0 evicted
        // from L1 but retained in the bigger L2
        h.access(0);
        h.access(2 * 64);
        h.access(4 * 64);
        assert_eq!(h.access(0), 1, "line 0 should hit in L2");
    }

    #[test]
    fn stats_ratios() {
        let mut h = tiny();
        for i in 0..8u64 {
            h.access(i * 64);
        }
        for i in 0..8u64 {
            h.access(i * 64);
        }
        let s = h.stats();
        assert_eq!(s.l1_refs, 16);
        assert!(s.l1_miss_rate > 0.0 && s.l1_miss_rate <= 1.0);
        assert!(
            s.cache_miss_rate <= s.l1_miss_rate,
            "deeper levels only filter"
        );
        assert!(s.llc_ratio <= s.l1_miss_rate + 1e-12);
    }

    #[test]
    fn xeon_defaults_build() {
        let h = CacheHierarchy::xeon_e5();
        assert_eq!(h.depth(), 3);
    }

    #[test]
    fn sequential_scan_has_line_sized_miss_rate() {
        // streaming over 64-byte lines with 4-byte elements → ~1/16 misses
        let mut h = CacheHierarchy::xeon_e5();
        for i in 0..100_000u64 {
            h.access(0x100_0000 + i * 4);
        }
        let mr = h.stats().l1_miss_rate;
        assert!(
            (mr - 1.0 / 16.0).abs() < 0.01,
            "sequential miss rate = {mr}"
        );
    }

    #[test]
    fn random_scan_beyond_llc_misses_mostly() {
        let mut h = CacheHierarchy::new(&HierarchyConfig {
            levels: vec![LevelConfig {
                size_bytes: 4096,
                line_bytes: 64,
                associativity: 4,
            }],
            prefetch_next_line: false,
        });
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.access(state % (1 << 24));
        }
        assert!(h.stats().l1_miss_rate > 0.9);
    }

    #[test]
    fn next_line_prefetch_helps_sequential_scans() {
        let run = |prefetch: bool| {
            let mut cfg = HierarchyConfig::xeon_e5();
            cfg.prefetch_next_line = prefetch;
            let mut h = CacheHierarchy::new(&cfg);
            for i in 0..100_000u64 {
                h.access(0x100_0000 + i * 4);
            }
            (h.stats().l1_miss_rate, h.prefetches())
        };
        let (mr_off, pf_off) = run(false);
        let (mr_on, pf_on) = run(true);
        assert_eq!(pf_off, 0);
        assert!(pf_on > 0);
        // miss-triggered prefetch covers every other line of a pure
        // sequential scan → roughly half the misses
        assert!(
            mr_on < mr_off * 0.7,
            "prefetching a sequential scan: {mr_on} vs {mr_off}"
        );
    }

    #[test]
    fn prefetch_does_not_change_reference_counts() {
        let mut cfg = HierarchyConfig::xeon_e5();
        cfg.prefetch_next_line = true;
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..1000u64 {
            h.access(i * 64);
        }
        assert_eq!(h.stats().l1_refs, 1000, "prefetches are not demand refs");
    }

    #[test]
    fn flush_and_reset() {
        let mut h = tiny();
        h.access(0);
        h.reset_stats();
        assert_eq!(h.stats().l1_refs, 0);
        assert_eq!(h.access(0), 0, "contents kept across reset_stats");
        h.flush();
        assert_eq!(h.access(0), 2, "flush empties contents");
    }
}
