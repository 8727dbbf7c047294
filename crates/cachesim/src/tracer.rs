//! Virtual address space and access recording.
//!
//! A [`Tracer`] owns a [`CacheHierarchy`] plus a bump allocator for
//! *virtual arrays*: each array the traced algorithm would allocate
//! (CSR offsets/targets, distance arrays, rank vectors, …) gets a
//! line-aligned address range, and every element access is translated to
//! a byte address and pushed through the hierarchy, a batch at a time. A
//! separate counter tallies non-memory operations for the stall model's
//! CPU share.
//!
//! The model runs as a two-stage pipeline across two threads. The thread
//! that touches (the traced kernel's) also runs L1's pass over each full
//! batch. It hands the stream L1 forwards, its misses and any prefetch
//! installs, to one worker thread that owns the levels below L1 and the
//! reuse tracker, through a bounded queue of a few reused buffers. The
//! worker takes batches in the order they were sent, so every level sees
//! the same ordered stream as in a serial run. Since the hierarchy is
//! non-inclusive, that stream is all a level's state depends on, and
//! every counter is the same as [`CacheHierarchy::access_batch`] gives.
//! A one-level hierarchy has nothing to hand off and runs on the caller.
//! Readers wait for the worker to finish every batch sent before they
//! look.
//!
//! The optional reuse-distance tracker ([`Tracer::enable_reuse_tracking`])
//! is bounded by the distinct lines `L` a trace touches, not by its
//! length: at most about 40 bytes per line, 16 for the last-access
//! vector (4-byte times, covering up to four lines per line seen) and 24
//! for the `2L` time slots it renumbers into when they fill (a 4-byte
//! tree node and an 8-byte line each), plus 1 MiB of the vector's fixed
//! slack.

use crate::hierarchy::{CacheHierarchy, CacheStats, Streams, BATCH};
use crate::level::CacheLevel;
use crate::stall::{StallBreakdown, StallModel};
use gorder_obs::Histogram;
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// Bucket upper bounds for [`Tracer::reuse_histogram`]: powers of two
/// from 1 to 2²³ distinct lines (plus the implicit overflow bucket).
/// Fixed by this spec — never by the trace — so reuse profiles from
/// different runs and orderings are comparable bin-for-bin.
pub const REUSE_DISTANCE_BOUNDS: [f64; 24] = {
    let mut b = [0.0; 24];
    let mut i = 0;
    while i < 24 {
        b[i] = (1u64 << i) as f64;
        i += 1;
    }
    b
};

/// Exact LRU reuse distances over cache lines of the hierarchy's L1 line
/// size: for each access, the number of *distinct other lines* touched
/// since the previous access to the same line (0 = immediate
/// re-reference; cold first touches are not recorded). Implemented with
/// the classic Bennett–Kruskal scheme: a Fenwick tree over access times
/// marks each line's most recent access, so each access costs
/// `O(log S)` for `S` time slots.
///
/// For `L` distinct lines seen (the bound is in the module doc):
///
/// * **Last access per line.** [`Tracer::alloc`] hands out dense
///   addresses from `HEAP_BASE`, so the times are a vector indexed by
///   line. It covers at most `4 × (L + DENSE_LINES)` lines; a line
///   beyond that (a sparse touch far into a huge array) keeps its time
///   in a hash map until the vector reaches it.
/// * **Time slots.** When the clock reaches the slot capacity, the live
///   marks are renumbered `1..=L` in time order and the tree is rebuilt
///   with `max(2L, MIN_SLOTS)` slots. A distance counts the marks
///   between two times, which the renumbering keeps in order, so it
///   stays exact; its `O(S)` cost is paid once per at least `S / 2`
///   accesses.
#[derive(Debug)]
struct ReuseTracker {
    line_shift: u32,
    /// The line of `HEAP_BASE`, which lines are numbered from.
    base_line: u64,
    /// Per line, the time of its last access, or 0 if never seen.
    last: Vec<u32>,
    /// The same for lines at or beyond `last.len()`.
    far: HashMap<u64, u32>,
    /// Per time slot, the line accessed then (`owner[0]` is unused). A
    /// slot whose line was accessed again later is stale.
    owner: Vec<u64>,
    /// 1-indexed Fenwick tree over time slots: 1 at each line's last
    /// access time.
    tree: Vec<u32>,
    /// The latest time handed out.
    now: u32,
    /// Distinct lines seen, which is the number of marks in the tree.
    lines: u32,
    hist: Histogram,
}

/// Fewest time slots the tracker keeps, so a trace over a handful of
/// lines does not renumber every few accesses.
const MIN_SLOTS: usize = 64;

/// Lines the dense last-access vector may cover beyond four per line
/// seen (4 bytes each, so 1 MiB).
const DENSE_LINES: u64 = 1 << 16;

impl ReuseTracker {
    fn new(line_bytes: u64) -> Self {
        let line_shift = line_bytes.trailing_zeros();
        ReuseTracker {
            line_shift,
            base_line: HEAP_BASE >> line_shift,
            last: Vec::new(),
            far: HashMap::new(),
            owner: vec![0; MIN_SLOTS + 1],
            tree: vec![0; MIN_SLOTS + 1],
            now: 0,
            lines: 0,
            hist: Histogram::new(&REUSE_DISTANCE_BOUNDS),
        }
    }

    /// `line`'s last access time, 0 if never seen.
    #[inline]
    fn time(&mut self, line: u64) -> &mut u32 {
        if line < self.last.len() as u64 {
            return &mut self.last[line as usize];
        }
        self.time_far(line)
    }

    /// Grows the dense vector to reach `line` if that keeps it within
    /// its bound, moving the hash map's lines it now covers into it;
    /// otherwise `line` lives in the hash map.
    #[cold]
    fn time_far(&mut self, line: u64) -> &mut u32 {
        let reach = 4 * (u64::from(self.lines) + DENSE_LINES);
        if line >= reach {
            return self.far.entry(line).or_insert(0);
        }
        let len = (line + 1).next_power_of_two().min(reach);
        self.last.resize(len as usize, 0);
        let last = &mut self.last;
        self.far.retain(|&l, &mut t| {
            let dense = l < len;
            if dense {
                last[l as usize] = t;
            }
            !dense
        });
        &mut self.last[line as usize]
    }

    fn add(&mut self, mut i: usize, delta: u32) {
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0u32;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i &= i - 1;
        }
        s
    }

    /// Renumbers the live marks `1..=lines` in time order and rebuilds
    /// the tree with room for as many new times again.
    #[cold]
    fn renumber(&mut self) {
        let mut rank = 0;
        for t in 1..=self.now {
            let line = self.owner[t as usize];
            // A line's live time is its latest, so it is met after all
            // of its stale ones, and the ranks written never exceed `t`.
            let last = self.time(line);
            if *last == t {
                rank += 1;
                *last = rank;
                self.owner[rank as usize] = line;
            }
        }
        debug_assert_eq!(rank, self.lines);
        let slots = (2 * rank as usize).max(MIN_SLOTS);
        assert!(
            slots < u32::MAX as usize,
            "reuse tracking holds fewer than 2^31 distinct lines"
        );
        self.now = rank;
        self.owner.resize(slots + 1, 0);
        // Linear Fenwick build over ones at 1..=rank.
        self.tree.clear();
        self.tree.resize(slots + 1, 0);
        self.tree[1..=rank as usize].fill(1);
        for i in 1..=slots {
            let parent = i + (i & i.wrapping_neg());
            if parent <= slots {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    fn record(&mut self, addr: u64) {
        let line = (addr >> self.line_shift) - self.base_line;
        if self.now as usize + 1 == self.tree.len() {
            self.renumber();
        }
        self.now += 1;
        let t = self.now;
        let prev = std::mem::replace(self.time(line), t);
        self.owner[t as usize] = line;
        if prev == 0 {
            self.lines += 1;
        } else {
            // Every mark is at a time before `t`, so the marks after
            // `prev` are all of them minus those up to it.
            let distance = self.lines - self.prefix(prev as usize);
            self.add(prev as usize, u32::MAX);
            self.hist.observe(f64::from(distance));
        }
        self.add(t as usize, 1);
    }

    fn record_all(&mut self, addrs: &[u64]) {
        for &addr in addrs {
            self.record(addr);
        }
    }
}

/// A virtual array: base address + element size.
#[derive(Debug, Clone, Copy)]
pub struct VArray {
    base: u64,
    elem_bytes: u64,
    len: u64,
}

impl VArray {
    /// Address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(
            (i as u64) < self.len.max(1),
            "index {i} out of bounds {}",
            self.len
        );
        self.base + i as u64 * self.elem_bytes
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Batch buffers shared by L1 and the worker, so at most this many
/// batches are in flight and the handoff's memory stays bounded.
const DEPTH: usize = 4;

/// One batch on its way from L1 to the levels below.
struct Handoff {
    /// L1's forwarded stream first, then scratch for the levels below.
    streams: Streams,
    /// Length of L1's forwarded stream.
    len: usize,
    /// The batch's addresses, for the reuse tracker (empty when it is off).
    addrs: Vec<u64>,
}

/// What the worker owns while it runs.
type Below = (Vec<CacheLevel>, Option<ReuseTracker>);

/// A thread running the levels below L1, and the reuse tracker if it is
/// on, over the batches L1 sends it. It returns each buffer once done
/// with it, and what it owns once the sending side closes.
struct Worker {
    batches: SyncSender<Handoff>,
    free: Receiver<Handoff>,
    /// Whether the worker runs the reuse tracker, which then needs each
    /// batch's addresses. Fixed for the worker's life.
    tracking: bool,
    thread: JoinHandle<Below>,
}

impl Worker {
    fn spawn((mut levels, mut reuse): Below, streams: Streams) -> Self {
        let (batches, inbox) = mpsc::sync_channel::<Handoff>(DEPTH);
        let (done, free) = mpsc::channel();
        for _ in 0..DEPTH {
            let buffer = Handoff {
                streams: streams.clone(),
                len: 0,
                addrs: Vec::new(),
            };
            done.send(buffer).expect("the receiver is right here");
        }
        let tracking = reuse.is_some();
        let thread = thread::Builder::new()
            .name("cachesim".into())
            .spawn(move || {
                for mut batch in inbox {
                    batch.streams.rest(&mut levels, batch.len);
                    if let Some(reuse) = &mut reuse {
                        reuse.record_all(&batch.addrs);
                    }
                    // fails only once the tracer stops taking buffers back
                    let _ = done.send(batch);
                }
                (levels, reuse)
            })
            .expect("failed to spawn the cache model's worker thread");
        Worker {
            batches,
            free,
            tracking,
            thread,
        }
    }

    /// Closes the queue and waits until the worker has run every batch
    /// sent. Returns what it owns, or the payload of the panic that
    /// stopped it.
    fn join(self) -> thread::Result<Below> {
        drop(self.batches);
        self.thread.join()
    }

    /// Re-raises the panic that made the worker stop taking batches (the
    /// only way it stops while its queue is open).
    fn fail(self) -> ! {
        match self.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the worker stopped while its queue was open"),
        }
    }
}

/// Records an algorithm's memory references into a cache hierarchy.
///
/// Touches collect in a pending buffer of one hierarchy batch. When it
/// fills, L1 runs over it on the calling thread, and a worker thread runs
/// the levels below L1 over what L1 forwards (and the reuse tracker over
/// the batch) while the caller goes on touching. Every reader drains the
/// pending buffer and waits for the worker first, so what it reports
/// always covers every touch.
pub struct Tracer {
    /// The whole hierarchy, or L1 alone while `worker` holds the rest.
    hierarchy: CacheHierarchy,
    worker: Option<Worker>,
    ops: u64,
    bump: u64,
    /// The reuse tracker, unless `worker` holds it.
    reuse: Option<ReuseTracker>,
    pending: Box<[u64]>,
    queued: usize,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("ops", &self.ops)
            .field("queued", &self.queued)
            .field("pipelined", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

/// Heap base: arbitrary, line-aligned, nonzero so address 0 is never used.
const HEAP_BASE: u64 = 0x0001_0000_0000;

impl Tracer {
    /// Wraps a hierarchy. The worker thread for the levels below L1
    /// starts with the first full batch.
    pub fn new(hierarchy: CacheHierarchy) -> Self {
        Tracer {
            hierarchy,
            worker: None,
            ops: 0,
            bump: HEAP_BASE,
            reuse: None,
            pending: vec![0; BATCH].into_boxed_slice(),
            queued: 0,
        }
    }

    /// Runs every pending touch through the model. A full batch goes
    /// through L1 here, and what L1 forwards goes to the worker (with the
    /// batch, if it runs the reuse tracker), started here if the hierarchy
    /// has more than one level and none is running. With no worker
    /// running the hierarchy is whole, and a partial batch (drained for a
    /// reader) runs through it and the tracker on this thread.
    fn drain(&mut self) {
        if self.queued == 0 {
            return;
        }
        if self.worker.is_none() && self.queued == BATCH && self.hierarchy.depth() > 1 {
            let below = (self.hierarchy.take_below(), self.reuse.take());
            self.worker = Some(Worker::spawn(below, self.hierarchy.empty_streams()));
        }
        let addrs = &self.pending[..std::mem::take(&mut self.queued)];
        let Some(worker) = &self.worker else {
            self.hierarchy.access_batch(addrs);
            if let Some(reuse) = &mut self.reuse {
                reuse.record_all(addrs);
            }
            return;
        };
        let Ok(mut batch) = worker.free.recv() else {
            self.worker.take().expect("running").fail()
        };
        batch.len = self.hierarchy.run_l1(addrs, &mut batch.streams);
        batch.addrs.clear();
        if worker.tracking {
            batch.addrs.extend_from_slice(addrs);
        }
        if worker.batches.send(batch).is_err() {
            self.worker.take().expect("running").fail();
        }
    }

    /// Drains the pending touches and waits until the worker has run
    /// every batch. Afterwards the hierarchy is whole and `reuse` holds
    /// the reuse tracker, until the next full batch starts a worker.
    fn settle(&mut self) {
        self.drain();
        if let Some(worker) = self.worker.take() {
            let (below, reuse) = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            self.hierarchy.restore_below(below);
            self.reuse = reuse;
        }
    }

    /// Turns on exact reuse-distance tracking (off by default: it costs
    /// `O(log L)` per access for `L` distinct lines seen, and memory
    /// bounded by `L` as the module doc says). Distances land in the
    /// fixed [`REUSE_DISTANCE_BOUNDS`] buckets, readable via
    /// [`Tracer::reuse_histogram`].
    pub fn enable_reuse_tracking(&mut self) {
        self.settle();
        if self.reuse.is_none() {
            self.reuse = Some(ReuseTracker::new(self.hierarchy.line_bytes()));
        }
    }

    /// The reuse-distance histogram, if tracking was enabled. One
    /// observation per warm line access; cold first touches are not
    /// counted (their distance is undefined, not merely large).
    pub fn reuse_histogram(&mut self) -> Option<&Histogram> {
        self.settle();
        self.reuse.as_ref().map(|r| &r.hist)
    }

    /// Allocates a virtual array of `len` elements of `elem_bytes` each,
    /// aligned to the L1 line — mirroring what a real allocator would hand
    /// out for consecutively allocated `Vec`s.
    pub fn alloc(&mut self, len: usize, elem_bytes: u64) -> VArray {
        let line = self.hierarchy.line_bytes();
        let base = self.bump.next_multiple_of(line);
        self.bump = base + (len as u64 * elem_bytes).max(1);
        VArray {
            base,
            elem_bytes,
            len: len as u64,
        }
    }

    /// One data reference to `arr[i]` (read and write cost the same in
    /// this model).
    #[inline]
    pub fn touch(&mut self, arr: &VArray, i: usize) {
        self.pending[self.queued] = arr.addr(i);
        self.queued += 1;
        if self.queued == BATCH {
            self.drain();
        }
    }

    /// Counts `n` non-memory operations.
    #[inline]
    pub fn op(&mut self, n: u64) {
        self.ops += n;
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The hierarchy, with every touch so far run through it.
    pub fn hierarchy(&mut self) -> &CacheHierarchy {
        self.settle();
        &self.hierarchy
    }

    /// Cache counters so far.
    pub fn stats(&mut self) -> CacheStats {
        self.hierarchy().stats()
    }

    /// CPU/stall split under `model`.
    pub fn breakdown(&mut self, model: &StallModel) -> StallBreakdown {
        model.breakdown(&self.stats(), self.ops)
    }

    /// A flat, fully deterministic snapshot of every counter this run
    /// accumulated — the raw material for regression baselines. Every
    /// field is an exact integer count (the reuse sum is an integral
    /// `f64`), so two replays of the same workload produce bit-identical
    /// snapshots on any platform.
    pub fn counters(&mut self) -> CounterSnapshot {
        let levels = self.hierarchy().level_stats();
        let (reuse_total, reuse_sum, reuse_counts) = match self.reuse_histogram() {
            Some(h) => (h.total(), h.sum(), h.counts().to_vec()),
            None => (0, 0.0, Vec::new()),
        };
        CounterSnapshot {
            refs: levels.first().map_or(0, |l| l.references),
            level_misses: levels.iter().map(|l| l.misses).collect(),
            memory_accesses: self.hierarchy.stats().memory_accesses,
            ops: self.ops,
            reuse_total,
            reuse_sum,
            reuse_counts,
        }
    }
}

impl Drop for Tracer {
    /// Stops the worker and waits for it. A panic it had is not raised
    /// again here, where a second panic would abort a thread already
    /// unwinding: the panic hook has reported it, and any reader called
    /// before the drop raises it.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Per-run counter totals from a [`Tracer`], frozen at snapshot time.
/// Unlike [`CacheStats`] (which carries derived rates), this holds only
/// the raw counts, so equality is exact and byte-reproducible — the
/// property the bench regression gate's sim-proxy baselines rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Data references issued (= L1 references).
    pub refs: u64,
    /// Misses at each cache level, L1 first. The last entry equals
    /// `memory_accesses`: whatever misses the last level goes to DRAM.
    pub level_misses: Vec<u64>,
    /// Accesses that fell through every level.
    pub memory_accesses: u64,
    /// Non-memory operations counted via [`Tracer::op`].
    pub ops: u64,
    /// Warm-line reuse observations (0 when tracking was off).
    pub reuse_total: u64,
    /// Sum of observed reuse distances (integral; 0.0 when off).
    pub reuse_sum: f64,
    /// Reuse-distance histogram counts over [`REUSE_DISTANCE_BOUNDS`]
    /// plus the overflow bucket (empty when tracking was off).
    pub reuse_counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;

    fn tracer() -> Tracer {
        Tracer::new(CacheHierarchy::new(&HierarchyConfig::xeon_e5()))
    }

    #[test]
    fn arrays_are_disjoint_and_aligned() {
        let mut t = tracer();
        let a = t.alloc(100, 4);
        let b = t.alloc(50, 8);
        assert_eq!(a.addr(0) % 64, 0);
        assert_eq!(b.addr(0) % 64, 0);
        assert!(a.addr(99) < b.addr(0), "arrays must not overlap");
    }

    #[test]
    fn arrays_start_on_the_l1_line() {
        let level = |size_bytes| crate::level::LevelConfig {
            size_bytes,
            line_bytes: 128,
            associativity: 4,
        };
        let mut t = Tracer::new(CacheHierarchy::new(&HierarchyConfig {
            levels: vec![level(4096), level(65536)],
            prefetch_next_line: false,
        }));
        // sizes that end mid-line, on a 64-byte boundary, and empty
        for (len, elem_bytes) in [(1, 4), (3, 8), (16, 4), (0, 4), (17, 4), (5, 64)] {
            let a = t.alloc(len, elem_bytes);
            assert_eq!(a.addr(0) % 128, 0, "{len} × {elem_bytes} B");
        }
    }

    #[test]
    fn element_addressing() {
        let mut t = tracer();
        let a = t.alloc(10, 8);
        assert_eq!(a.addr(3) - a.addr(0), 24);
    }

    #[test]
    fn touches_reach_the_hierarchy() {
        let mut t = tracer();
        let a = t.alloc(1000, 4);
        for i in 0..1000 {
            t.touch(&a, i);
        }
        let s = t.stats();
        assert_eq!(s.l1_refs, 1000);
        // sequential u32 scan: ~1/16 miss rate
        assert!(s.l1_miss_rate < 0.10, "mr = {}", s.l1_miss_rate);
    }

    #[test]
    fn ops_counted() {
        let mut t = tracer();
        t.op(5);
        t.op(2);
        assert_eq!(t.ops(), 7);
        let b = t.breakdown(&StallModel::skylake());
        assert_eq!(b.cpu_cycles, 7.0);
    }

    #[test]
    fn reuse_tracking_is_opt_in() {
        let mut t = tracer();
        let a = t.alloc(16, 4);
        t.touch(&a, 0);
        assert!(t.reuse_histogram().is_none());
        // a touch still pending when tracking starts is not tracked, so
        // the line's first tracked touch is cold
        t.touch(&a, 1);
        t.enable_reuse_tracking();
        t.touch(&a, 2);
        assert_eq!(t.reuse_histogram().unwrap().total(), 0);
    }

    #[test]
    fn reuse_distances_are_exact() {
        let mut t = tracer();
        t.enable_reuse_tracking();
        // One element per line (64-byte elements) so touches map 1:1 to
        // lines: A B A → A reused over {B} → distance 1;
        // then B reused over {A} → distance 1; then B again → 0.
        let a = t.alloc(4, 64);
        t.touch(&a, 0); // A cold
        t.touch(&a, 1); // B cold
        t.touch(&a, 0); // A: distance 1
        t.touch(&a, 1); // B: distance 1
        t.touch(&a, 1); // B: distance 0
        let h = t.reuse_histogram().unwrap();
        assert_eq!(h.total(), 3, "cold touches are not recorded");
        // distances {1, 1, 0} all land in the ≤1 bucket
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.sum(), 2.0);
    }

    #[test]
    fn reuse_scan_of_k_lines_has_distance_k_minus_1() {
        let mut t = tracer();
        t.enable_reuse_tracking();
        let k = 100usize;
        let a = t.alloc(k, 64);
        for _ in 0..3 {
            for i in 0..k {
                t.touch(&a, i);
            }
        }
        // Each warm access in a cyclic scan of k distinct lines reuses
        // over exactly the other k−1 lines.
        let h = t.reuse_histogram().unwrap();
        assert_eq!(h.total(), (2 * k) as u64);
        assert_eq!(h.sum(), (2 * k * (k - 1)) as f64);
        // 64 < 99 ≤ 128: all mass in the ≤128 bucket.
        let idx = REUSE_DISTANCE_BOUNDS
            .iter()
            .position(|&b| b == 128.0)
            .unwrap();
        assert_eq!(h.counts()[idx], (2 * k) as u64);
    }

    #[test]
    fn reuse_distances_count_the_hierarchys_lines() {
        let level = |size_bytes| crate::level::LevelConfig {
            size_bytes,
            line_bytes: 128,
            associativity: 4,
        };
        let mut t = Tracer::new(CacheHierarchy::new(&HierarchyConfig {
            levels: vec![level(4096), level(65536)],
            prefetch_next_line: false,
        }));
        t.enable_reuse_tracking();
        // 64-byte elements, two per 128-byte line: 0 and 1 share line A,
        // 2 is line B. Touches 0 1 2 0 → A cold, A (0), B cold, A (1).
        let a = t.alloc(4, 64);
        for i in [0, 1, 2, 0] {
            t.touch(&a, i);
        }
        let h = t.reuse_histogram().unwrap();
        assert_eq!(h.total(), 2, "64-byte lines would give one warm touch");
        assert_eq!(h.sum(), 1.0);
    }

    /// A tracer whose worker panics on the next batch it takes: one
    /// claiming a longer stream from L1 than its buffer holds.
    fn poisoned() -> (Tracer, VArray) {
        let mut t = tracer();
        let a = t.alloc(BATCH, 64);
        for i in 0..BATCH {
            t.touch(&a, i);
        }
        let worker = t.worker.as_ref().expect("a full batch starts the worker");
        let mut batch = worker.free.recv().unwrap();
        batch.len = match &batch.streams {
            Streams::Demand([first, _]) => first.len() + 1,
            Streams::Prefetch([first, _]) => first.len() + 1,
        };
        worker.batches.send(batch).unwrap();
        (t, a)
    }

    #[test]
    fn a_worker_panic_reaches_readers_and_touches() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (mut t, _) = poisoned();
        assert!(
            catch_unwind(AssertUnwindSafe(|| t.stats())).is_err(),
            "reader"
        );
        let (mut t, a) = poisoned();
        let touching = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..(DEPTH + 2) * BATCH {
                t.touch(&a, i % BATCH);
            }
        }));
        assert!(touching.is_err(), "touch");
        // dropping joins the worker without panicking again
        let (t, _) = poisoned();
        drop(t);
    }

    #[test]
    fn zero_length_alloc_ok() {
        let mut t = tracer();
        let a = t.alloc(0, 4);
        assert!(a.is_empty());
        let b = t.alloc(4, 4);
        assert!(b.addr(0) > a.base);
    }
}
