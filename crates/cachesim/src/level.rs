//! A single set-associative cache level with true LRU replacement.
//!
//! Geometry is the classic (size, line, associativity) triple. Each set is
//! a run of `associativity` tags kept in recency order, most recently used
//! first, so the LRU way is always the last one. A lookup scans the ways
//! linearly (assoc ≤ 16 for every real level we model, so a scan beats
//! fancier structures); a hit rotates its tag to the front, and a miss
//! shifts the set down one slot and writes the new line at the front,
//! evicting the last way. Empty ways hold a sentinel tag and sit behind
//! every valid line, so a miss fills them before it evicts anything.
//!
//! The set index avoids a 64-bit division: a mask when the set count is a
//! power of two, otherwise Lemire's 32-bit fastmod for line numbers below
//! 2³², with exact `%` as the fallback for wider ones.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
}

impl LevelConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.associativity))
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups that reached this level.
    pub references: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl LevelStats {
    /// Miss rate in `[0, 1]`; 0 when there were no references.
    pub fn miss_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.misses as f64 / self.references as f64
        }
    }
}

const INVALID: u64 = u64::MAX;

/// Maps a line number to its set without a 64-bit division.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Power-of-two set count: `line & (sets - 1)`.
    Mask(u64),
    /// Set count below 2³²: Lemire's fastmod with `magic = ⌈2⁶⁴ / sets⌉`,
    /// exact for every 32-bit line number; wider ones take `%`.
    FastMod { sets: u64, magic: u64 },
    /// Any other set count: plain `%`.
    Div(u64),
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        if sets.is_power_of_two() {
            SetIndex::Mask(sets - 1)
        } else if sets <= u64::from(u32::MAX) {
            SetIndex::FastMod {
                sets,
                magic: u64::MAX / sets + 1,
            }
        } else {
            SetIndex::Div(sets)
        }
    }

    #[inline]
    fn of(self, line: u64) -> usize {
        (match self {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::FastMod { sets, magic } if line >> 32 == 0 => {
                let low = magic.wrapping_mul(line);
                ((u128::from(low) * u128::from(sets)) >> 64) as u64
            }
            SetIndex::FastMod { sets, .. } | SetIndex::Div(sets) => line % sets,
        }) as usize
    }
}

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    config: LevelConfig,
    line_shift: u32,
    index: SetIndex,
    /// `tags[set * assoc..][..assoc]`, most recently used first.
    tags: Vec<u64>,
    stats: LevelStats,
}

impl CacheLevel {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the line size is not a power of two, the associativity is
    /// zero, the geometry yields zero sets, or `size_bytes` is not exactly
    /// `sets × line_bytes × associativity`. The set count itself need not
    /// be a power of two.
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
        let assoc = config.associativity as usize;
        assert_eq!(
            config.size_bytes,
            sets * config.line_bytes * assoc as u64,
            "size must be a whole number of sets (line × associativity bytes each)"
        );
        CacheLevel {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            index: SetIndex::new(sets),
            tags: vec![INVALID; sets as usize * assoc],
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
        let hit = self.lookup(addr);
        self.stats.references += 1;
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Installs the line holding `addr` without touching the demand
    /// counters — the prefetch path. Returns `true` if the line was
    /// already resident (refreshes its LRU position either way).
    pub fn install(&mut self, addr: u64) -> bool {
        self.lookup(addr)
    }

    /// Moves the line holding `addr` to the front of its set, installing
    /// it over the LRU way if absent. Returns `true` if it was resident.
    #[inline]
    fn lookup(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let assoc = self.config.associativity as usize;
        let base = self.index.of(line) * assoc;
        let ways = &mut self.tags[base..base + assoc];
        let (hit, w) = match ways.iter().position(|&t| t == line) {
            Some(w) => (true, w),
            None => (false, assoc - 1),
        };
        if w > 0 {
            ways.copy_within(..w, 1);
        }
        ways[0] = line;
        hit
    }

    /// Resets counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = LevelStats::default();
    }

    /// Empties the cache and resets counters.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.stats = LevelStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheLevel {
        // 4 lines of 64 B, 2-way → 2 sets
        CacheLevel::new(LevelConfig {
            size_bytes: 256,
            line_bytes: 64,
            associativity: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().references, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // lines 0, 2, 4 all map to set 0 (even line numbers)
        c.access(0); // miss, install
        c.access(2 * 64); // miss, install → set full
        c.access(0); // hit, refreshes line 0
        c.access(4 * 64); // miss → evicts line 2 (LRU)
        assert!(c.access(0), "line 0 must still be resident");
        assert!(!c.access(2 * 64), "line 2 was the LRU victim");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = CacheLevel::new(LevelConfig {
            size_bytes: 4096,
            line_bytes: 64,
            associativity: 4,
        });
        let addrs: Vec<u64> = (0..64).map(|i| i * 64).collect(); // exactly capacity
        for &a in &addrs {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &addrs {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn thrashing_beyond_capacity_misses() {
        let mut c = tiny(); // 4 lines
                            // cycle through 8 distinct lines in the same set repeatedly:
                            // 2-way set can never retain them
        let addrs: Vec<u64> = (0..8).map(|i| i * 2 * 64).collect();
        for _ in 0..5 {
            for &a in &addrs {
                c.access(a);
            }
        }
        assert_eq!(c.stats().miss_rate(), 1.0);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.stats().references, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        CacheLevel::new(LevelConfig {
            size_bytes: 256,
            line_bytes: 48,
            associativity: 2,
        });
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn rejects_size_that_is_not_whole_sets() {
        // 3000 B / (64 B × 2 ways) = 23.4 sets: flooring would hold 2944 B
        CacheLevel::new(LevelConfig {
            size_bytes: 3000,
            line_bytes: 64,
            associativity: 2,
        });
    }

    #[test]
    fn set_index_matches_modulo() {
        let lines = [
            0,
            1,
            1279,
            1280,
            20_479,
            20_480,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            0x0123_4567_89ab_cdef,
            u64::MAX - 1,
            u64::MAX,
        ];
        for sets in [
            1,
            2,
            3,
            7,
            64,
            1280,
            20_480,
            u64::from(u32::MAX),
            1 << 33,
            (1 << 33) + 1,
        ] {
            let index = SetIndex::new(sets);
            for line in lines
                .into_iter()
                .chain((0..4096).map(|i| i * 2_654_435_761))
            {
                assert_eq!(
                    index.of(line) as u64,
                    line % sets,
                    "line {line}, {sets} sets"
                );
            }
        }
    }

    #[test]
    fn miss_rate_bounds() {
        let s = LevelStats {
            references: 0,
            misses: 0,
        };
        assert_eq!(s.miss_rate(), 0.0);
        let s = LevelStats {
            references: 4,
            misses: 1,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }
}
