//! A single set-associative cache level with true LRU replacement.
//!
//! Geometry is the classic (size, line, associativity) triple. Each set is
//! a run of `associativity` tags kept in recency order, most recently used
//! first, so the LRU way is always the last one. A lookup is one carry
//! pass over the ways (assoc ≤ 16 for every real level we model, so a scan
//! beats fancier structures): the new tag goes in front and each way takes
//! the tag before it, until the pass reaches the way that held the line (a
//! hit) or falls off the end, evicting the last way (a miss). Empty ways
//! hold a sentinel tag and sit behind every valid line, so a miss fills
//! them before it evicts anything.
//!
//! A level takes references a stream at a time: one pass looks each up in
//! order and writes the ones the level below must see (the misses, and any
//! prefetch installs) to an output stream: each entry is written
//! unconditionally and the stream's end advances only past those, so
//! appending a miss takes no branch.
//! 8- and 16-way levels (every preset level) get their own copy of the
//! pass, in which the way scan unrolls. [`CacheLevel::access`] and
//! [`CacheLevel::install`] are one-entry passes.
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

/// An entry of the stream a level hands to the level below.
pub(crate) trait StreamRef: Copy {
    /// The byte address to look up.
    fn addr(self) -> u64;
    /// A demand reference is counted, and forwarded only if it misses; a
    /// prefetch install is uncounted, and forwarded whether it hits or not.
    fn is_demand(self) -> bool;
    /// The install of the line at `addr`, if the stream can carry one.
    fn install(addr: u64) -> Option<Self>;
}

/// A stream without prefetch: every entry is a demand address.
impl StreamRef for u64 {
    #[inline(always)]
    fn addr(self) -> u64 {
        self
    }
    #[inline(always)]
    fn is_demand(self) -> bool {
        true
    }
    #[inline(always)]
    fn install(_: u64) -> Option<Self> {
        None
    }
}

/// An entry of a prefetching hierarchy's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ref {
    /// A data reference at this address.
    Demand(u64),
    /// A next-line prefetch of the line holding this address.
    Install(u64),
}

impl From<u64> for Ref {
    fn from(addr: u64) -> Self {
        Ref::Demand(addr)
    }
}

impl StreamRef for Ref {
    #[inline(always)]
    fn addr(self) -> u64 {
        match self {
            Ref::Demand(addr) | Ref::Install(addr) => addr,
        }
    }
    #[inline(always)]
    fn is_demand(self) -> bool {
        matches!(self, Ref::Demand(_))
    }
    #[inline(always)]
    fn install(addr: u64) -> Option<Self> {
        Some(Ref::Install(addr))
    }
}

/// Moves `line` to the front of `ways`, or writes it there over the LRU
/// way if absent, in one carry pass: each way takes the tag before it
/// until the pass reaches `line`. Returns `true` if `line` was resident.
#[inline(always)]
fn promote(ways: &mut [u64], line: u64) -> bool {
    let mut carry = line;
    for way in ways {
        let tag = std::mem::replace(way, carry);
        if tag == line {
            return true;
        }
        carry = tag;
    }
    false
}

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
        self.pass(&[addr], &mut [0u64], false).1 == 1
    }

    /// Installs the line holding `addr` without touching the demand
    /// counters — the prefetch path. Returns `true` if the line was
    /// already resident (refreshes its LRU position either way).
    pub fn install(&mut self, addr: u64) -> bool {
        let install = Ref::Install(addr);
        self.pass(&[install], &mut [install], false).1 == 1
    }

    /// Runs `refs` through the level in order and writes to the front of
    /// `out` the stream the level below must see: every demand reference
    /// that missed, and every install. With `prefetch` (on a stream that
    /// carries installs), a demand miss also installs the next line here
    /// and forwards that install right after the miss. Returns how many
    /// entries were forwarded and how many of `refs` hit.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the forwarded stream: `refs.len()`
    /// entries, twice that with `prefetch`.
    pub(crate) fn pass<I: Copy + Into<R>, R: StreamRef>(
        &mut self,
        refs: &[I],
        out: &mut [R],
        prefetch: bool,
    ) -> (usize, usize) {
        debug_assert!(
            !prefetch || R::install(0).is_some(),
            "a prefetching pass needs a stream that carries installs"
        );
        // The usual way counts get their own copy of the loop, in which
        // the carry pass unrolls and each way has its own exit branch: the
        // branch predictor learns those far better than one loop branch.
        // End to end, sim-web's `op_ms` measured 14% lower (paired median)
        // than with one generic loop (EXPERIMENTS.md, "Cache-model
        // throughput").
        match self.config.associativity {
            8 => self.pass_ways::<8, I, R>(refs, out, prefetch),
            16 => self.pass_ways::<16, I, R>(refs, out, prefetch),
            _ => self.pass_ways::<0, I, R>(refs, out, prefetch),
        }
    }

    /// [`CacheLevel::pass`] for `WAYS`-way sets (0: any way count).
    #[inline(always)]
    fn pass_ways<const WAYS: usize, I: Copy + Into<R>, R: StreamRef>(
        &mut self,
        refs: &[I],
        out: &mut [R],
        prefetch: bool,
    ) -> (usize, usize) {
        let assoc = if WAYS > 0 {
            WAYS
        } else {
            self.config.associativity as usize
        };
        let (line_shift, line_bytes, index) = (self.line_shift, self.config.line_bytes, self.index);
        let tags = &mut self.tags[..];
        let mut lookup = |addr: u64| {
            let line = addr >> line_shift;
            let base = index.of(line) * assoc;
            promote(&mut tags[base..base + assoc], line)
        };
        let (mut forwarded, mut hits) = (0, 0);
        let (mut references, mut misses) = (0, 0);
        for &r in refs {
            let r: R = r.into();
            let (addr, demand) = (r.addr(), r.is_demand());
            let hit = lookup(addr);
            hits += usize::from(hit);
            references += u64::from(demand);
            misses += u64::from(demand & !hit);
            // written unconditionally, kept by advancing past it
            out[forwarded] = r;
            forwarded += usize::from(!(demand & hit));
            if prefetch & demand & !hit {
                let next = addr.wrapping_add(line_bytes);
                if let Some(install) = R::install(next) {
                    lookup(next);
                    out[forwarded] = install;
                    forwarded += 1;
                }
            }
        }
        self.stats.references += references;
        self.stats.misses += misses;
        (forwarded, hits)
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "carries installs")]
    fn prefetch_needs_a_stream_that_carries_installs() {
        tiny().pass(&[0u64], &mut [0u64; 2], true);
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
