//! The Gorder windowed greedy (Algorithm GO of the paper).
//!
//! Gorder lays nodes out one at a time. At every step it appends the
//! unplaced node with the highest total proximity `Σ S(·, v)` to the nodes
//! `v` currently inside the trailing window of size `w`. Because each
//! window entry/exit changes any candidate's score by exactly ±1 per shared
//! relationship, all score maintenance runs on the O(1)-update
//! [`UnitHeap`]:
//!
//! * when `v` **enters** the window: `+1` to every out-neighbour of `v`
//!   (edge `v → u`), `+1` to every in-neighbour of `v` (edge `u → v`), and
//!   `+1` to every other out-neighbour `u` of every in-neighbour `x` of `v`
//!   (the common in-neighbour `x` makes `u` and `v` siblings);
//! * when `v` **exits** the window (it was placed `w` steps ago): the same
//!   updates with `−1`.
//!
//! The paper proves this greedy achieves at least `1/(2w)` of the optimal
//! `F(π)` and observes that propagating sibling updates *through* very
//! high-degree hubs dominates the running time on power-law graphs, so the
//! implementation may skip propagation through hubs above a degree
//! threshold (see [`GorderBuilder::hub_threshold`]).
//!
//! ## Coalesced window deltas
//!
//! A candidate is typically touched several times per placement step —
//! once per shared relationship with the entering node, and again with
//! opposite sign for the exiting one. Issuing each `±1` as its own heap
//! operation turns every touch into an unlink + push on the bucket lists.
//! Instead, the build loop writes the step's enter **and** exit touches
//! into a reusable scratch (`DeltaScratch`) and then applies **one net
//! [`UnitHeap::update`] per touched candidate**. Three parts keep that
//! cheap, and each is exact:
//!
//! * **Last-touch index.** One `Slot { delta, last }` per candidate holds
//!   the net change and the index of its last touch in the step's stream;
//!   `last == PLACED` marks a placed node. A touch writes its node into
//!   the pre-sized stream unconditionally and advances the stream length
//!   only if the node is unplaced, so the many touches of placed nodes
//!   cost no mispredicted branch and never reach the heap (on which they
//!   were no-ops anyway).
//! * **Forward flush.** One pass over the stream applies a candidate's
//!   update only at the index its `last` points to, i.e. in last-touch
//!   order. That order is the tie-breaking contract: within a bucket the
//!   unit heap pops in LIFO order of the last key change, and under
//!   per-unit updates a candidate reaches its final key and bucket head
//!   at its last touch, after which only later-touched nodes are pushed
//!   ahead of it. Replaying final states in last-touch order — net-zero
//!   touches included, which still move a candidate to its bucket head —
//!   reproduces the per-unit bucket layout exactly.
//! * **Exit replay.** The stream a node produces on entering the window
//!   is kept (`Window`) together with the number of hubs it skipped;
//!   when the node leaves, that stream is replayed with `−1` instead of
//!   walking in(v) → out(x) through the graph again. The placed set only
//!   grows, so re-filtering the recorded stream yields exactly the stream
//!   a fresh walk would, in the same order, and the hub count is a
//!   property of the graph alone. The window holds at most `w + 1`
//!   streams and never more than `n + m` ids: a stream that does not fit
//!   is not recorded, and its node's exit walks the graph as before.
//! * **Compacted rows.** About half of the ids a walk meets in the
//!   graph's out-rows were placed long ago, and each costs a random read
//!   of its slot just to be dropped. So the walk reads a private copy of
//!   the out-rows (`Rows`), and as it walks a row it writes the row's
//!   unplaced ids back to its front, in order, using the flag `touch`
//!   computes anyway. Filtering an ordered stream by a set that only
//!   grows gives the same stream, so the touches, the recorded streams
//!   and every counter are unchanged. The copy borrows the graph's
//!   offsets and adds one live length per node: the build holds
//!   `4(n + m)` bytes more, freed before it returns. In-rows are not
//!   compacted, since a placed in-neighbour still links its siblings.
//!   The walk also prefetches the row and live length of the
//!   in-neighbour two places ahead.
//!
//! `tests/gorder_oracle.rs` keeps the per-unit loop as the oracle the
//! equivalence is checked against (placements and all five counters),
//! and `tests/golden_perms.rs` pins the pre-optimisation digests.

use crate::budget::{Budget, DegradeReason, ExecOutcome, CHECK_STRIDE};
use crate::unitheap::UnitHeap;
use gorder_graph::{Graph, NodeId, Permutation};
use std::collections::VecDeque;
use std::hint::select_unpredictable;

/// Configuration builder for [`Gorder`].
///
/// ```
/// use gorder_core::GorderBuilder;
/// let gorder = GorderBuilder::new().window(5).build();
/// ```
#[derive(Debug, Clone)]
pub struct GorderBuilder {
    window: u32,
    hub_threshold: Option<u32>,
}

impl GorderBuilder {
    /// Defaults: `window = 5` (the paper's choice), exact sibling
    /// propagation (no hub skipping). Skipping saves time on graphs whose
    /// hubs have extreme *out*-degree, but silently weakens the sibling
    /// signal exactly where it is strongest (e.g. hub-centred blocks), so
    /// it is opt-in via [`GorderBuilder::hub_threshold`].
    pub fn new() -> Self {
        GorderBuilder {
            window: 5,
            hub_threshold: None,
        }
    }

    /// Window size `w ≥ 1`. The paper tunes this on PageRank/flickr and
    /// settles on 5 (its Figure 8; the replication's Figure 4 finds a
    /// slightly better plateau at 64–2048, at higher ordering cost).
    pub fn window(mut self, w: u32) -> Self {
        assert!(w >= 1, "window must be at least 1");
        self.window = w;
        self
    }

    /// Sibling updates are not propagated through in-neighbours whose
    /// out-degree exceeds this threshold (`None` = exact, the default).
    /// This is the paper's practical optimisation for power-law hubs;
    /// enable it when `Σ out-degree²` makes exact propagation too slow,
    /// at some cost in ordering quality around hub-centred blocks.
    pub fn hub_threshold(mut self, t: Option<u32>) -> Self {
        self.hub_threshold = t;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> Gorder {
        Gorder {
            window: self.window,
            hub_threshold: self.hub_threshold,
        }
    }
}

impl Default for GorderBuilder {
    fn default() -> Self {
        GorderBuilder::new()
    }
}

/// Counters describing one Gorder run (for tests, ablations and the
/// scalability analysis of Table 2).
///
/// These are plain data: registry export happens exactly once per run,
/// in the unified ordering runner (`gorder_orders::run_ordering`), which
/// folds these counters into its `OrderStats` — never here, so a run
/// can't double-count depending on which compute path the caller took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GorderStats {
    /// Coalesced heap updates applied with a **positive** net key change
    /// (one per touched candidate per placement step, not one per `+1`).
    pub increments: u64,
    /// Coalesced heap updates applied with a **negative** net key change.
    pub decrements: u64,
    /// Total max-key pops from the unit heap (one per greedily placed
    /// node after the seed).
    pub pops: u64,
    /// Sibling propagations skipped due to the hub threshold.
    pub hub_skips: u64,
    /// Coalesced heap updates whose net key change was **zero** — pure
    /// bucket-position refreshes, applied only to keep the per-unit
    /// LIFO tie-breaking intact.
    pub refreshes: u64,
}

impl GorderStats {
    /// Merges another run's (or chunk's) counters into this one — how
    /// the partition-parallel driver aggregates per-worker stats.
    pub fn merge(&mut self, other: &GorderStats) {
        self.increments += other.increments;
        self.decrements += other.decrements;
        self.pops += other.pops;
        self.hub_skips += other.hub_skips;
        self.refreshes += other.refreshes;
    }

    /// Total heap bucket moves this run performed (every coalesced
    /// update is exactly one unlink + push, whatever its net sign).
    pub fn heap_updates(&self) -> u64 {
        self.increments + self.decrements + self.refreshes
    }
}

/// [`Slot::last`] of a node that is already placed.
const PLACED: u32 = u32::MAX;

/// One candidate's coalescing state.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Net pending key change; non-zero only between a touch and the
    /// step's flush.
    delta: i32,
    /// Index of the node's last touch in the step's stream, or `PLACED`.
    /// Stale once the step is flushed; every touch rewrites it.
    last: u32,
}

/// Reusable per-run scratch for coalescing one placement step's window
/// deltas: one [`Slot`] per candidate plus the step's touch stream. The
/// stream buffer only grows and nothing is cleared between steps (a
/// flushed delta is reset where it is read), so steady-state steps do no
/// allocation.
struct DeltaScratch {
    slots: Vec<Slot>,
    /// The step's touches of unplaced candidates, in per-unit stream
    /// order: `events[..len]`. The buffer is sized before each walk, so a
    /// touch writes its node unconditionally and advances `len` only if
    /// the node is unplaced; a placed node's write is overwritten next.
    events: Vec<NodeId>,
    len: usize,
}

impl DeltaScratch {
    fn new(n: u32) -> Self {
        DeltaScratch {
            slots: vec![Slot::default(); n as usize],
            events: Vec::new(),
            len: 0,
        }
    }

    /// Marks `v` placed: from now on its touches are dropped.
    fn place(&mut self, v: NodeId) {
        self.slots[v as usize].last = PLACED;
    }

    /// Makes room for `extra` more touches in this step.
    #[inline]
    fn reserve(&mut self, extra: usize) {
        let need = self.len + extra;
        if need > self.events.len() {
            self.grow(need);
        }
    }

    #[cold]
    fn grow(&mut self, need: usize) {
        // Touch indices are stored in `Slot::last` and must stay below
        // `PLACED`.
        assert!(
            need <= PLACED as usize,
            "Gorder step needs {need} candidate touches; at most {PLACED} fit a u32 index"
        );
        let len = need.max(2 * self.events.len()).min(PLACED as usize);
        self.events.resize(len, 0);
    }

    /// Returns whether `u` is unplaced, i.e. whether the touch counted.
    #[inline]
    fn touch(&mut self, u: NodeId, sign: i32) -> bool {
        let i = self.len;
        self.events[i] = u;
        let slot = &mut self.slots[u as usize];
        let live = slot.last != PLACED;
        // About half of all touches hit placed nodes, in no pattern a
        // branch predictor could learn.
        slot.delta += select_unpredictable(live, sign, 0);
        slot.last = select_unpredictable(live, i as u32, PLACED);
        self.len = i + usize::from(live);
        live
    }

    /// Touches the ids of `x`'s out-row in order and keeps the unplaced
    /// ones, still in order, at the row's front. The caller reserves room
    /// for the row.
    #[inline]
    fn touch_row(&mut self, rows: &mut Rows, x: NodeId, sign: i32) {
        let (row, live) = rows.row_mut(x);
        let mut kept = 0;
        for i in 0..row.len() {
            let u = row[i];
            row[kept] = u;
            kept += usize::from(self.touch(u, sign));
        }
        // `kept` ≤ the old live length, which fits a u32.
        *live = kept as u32;
    }

    /// Touches, with `sign`, every candidate whose score changes when `v`
    /// enters (`+1`) or leaves (`-1`) the window, in the exact order the
    /// per-unit implementation issued them, minus placed ids the rows
    /// already shed. Returns the hubs skipped.
    fn walk(&mut self, rows: &mut Rows, v: NodeId, sign: i32, hub_threshold: u32) -> u32 {
        let g = rows.g;
        // Neighbour score via out-edges of v: S_n(u, v) counts edge v → u.
        self.reserve(rows.live(v));
        self.touch_row(rows, v, sign);
        let mut hub_skips = 0;
        let ins = g.in_neighbors(v);
        for (k, &x) in ins.iter().enumerate() {
            if let Some(&ahead) = ins.get(k + 2) {
                rows.prefetch(ahead);
            }
            // Sibling score: x is a common in-neighbour of v and of every
            // other out-neighbour u of x (v itself is placed, so its own
            // touch is dropped like any other placed node's). The hub
            // test reads the graph's degree, placed ids included.
            let hub = g.out_degree(x) > hub_threshold;
            hub_skips += u32::from(hub);
            self.reserve(1 + if hub { 0 } else { rows.live(x) });
            // Neighbour score via in-edges of v: S_n counts edge x → v.
            self.touch(x, sign);
            if !hub {
                self.touch_row(rows, x, sign);
            }
        }
        hub_skips
    }

    /// `v` (just placed) enters the window: its touches open the step's
    /// stream, which is kept for its exit.
    fn enter(
        &mut self,
        rows: &mut Rows,
        v: NodeId,
        hub_threshold: u32,
        window: &mut Window,
        stats: &mut GorderStats,
    ) {
        debug_assert_eq!(self.len, 0, "enter opens the step");
        let hub_skips = self.walk(rows, v, 1, hub_threshold);
        stats.hub_skips += u64::from(hub_skips);
        window.record(v, &self.events[..self.len], hub_skips);
    }

    /// The oldest window node leaves: its entry stream is replayed with
    /// `-1`, and `touch` drops the candidates placed since it was
    /// recorded. That is the stream a fresh walk would produce, because
    /// the placed set only grows. A stream the window had no room for is
    /// walked again instead, over the compacted rows.
    fn exit(
        &mut self,
        rows: &mut Rows,
        hub_threshold: u32,
        window: &mut Window,
        stats: &mut GorderStats,
    ) {
        let entry = window
            .entries
            .pop_front()
            .expect("every node leaving the window entered it");
        stats.hub_skips += u64::from(entry.hub_skips);
        match entry.stream {
            Some(len) => {
                let len = len as usize;
                self.reserve(len);
                for &u in window.ids.range(..len) {
                    self.touch(u, -1);
                }
                window.ids.drain(..len);
            }
            None => {
                let hub_skips = self.walk(rows, entry.node, -1, hub_threshold);
                debug_assert_eq!(hub_skips, entry.hub_skips);
            }
        }
    }

    /// Applies one net heap update per touched candidate, in the order
    /// of each candidate's **last** touch in the step's stream: a forward
    /// pass that acts on a node only at the index its `last` points to.
    ///
    /// That order is the tie-breaking contract: the unit heap pops LIFO
    /// within a bucket, and under per-unit updates a candidate ends up
    /// at the head of its final bucket at the moment of its last touch.
    /// Replaying final states in last-touch order (net-zero refreshes
    /// included) therefore reproduces the per-unit bucket layout — and
    /// the permutation — byte for byte.
    fn flush(&mut self, heap: &mut UnitHeap, stats: &mut GorderStats) {
        for (i, &u) in self.events[..self.len].iter().enumerate() {
            let slot = &mut self.slots[u as usize];
            if slot.last as usize == i {
                let d = std::mem::take(&mut slot.delta);
                heap.update(u, i64::from(d));
                stats.increments += u64::from(d > 0);
                stats.decrements += u64::from(d < 0);
                stats.refreshes += u64::from(d == 0);
            }
        }
        self.len = 0;
    }
}

/// The out-rows the walk reads: a private copy of the graph's out-CSR
/// targets, indexed by the graph's own offsets, from which a walk drops
/// the ids placed since the row was last walked. Row `x` is
/// `ids[offsets[x]..][..live[x]]`, the graph's row `x` in the same order
/// minus placed ids the walks already met. In-rows are not copied: a
/// placed in-neighbour still links its siblings.
struct Rows<'g> {
    g: &'g Graph,
    offsets: &'g [u64],
    /// Exactly `m` ids; a boxed slice, so it never grows.
    ids: Box<[NodeId]>,
    live: Box<[u32]>,
}

impl<'g> Rows<'g> {
    fn new(g: &'g Graph) -> Self {
        let (offsets, targets) = g.out_csr();
        Rows {
            g,
            offsets,
            ids: targets.into(),
            live: g.nodes().map(|u| g.out_degree(u)).collect(),
        }
    }

    /// The number of ids row `x` still holds.
    #[inline]
    fn live(&self, x: NodeId) -> usize {
        self.live[x as usize] as usize
    }

    /// Row `x` and its live length, for a walk that compacts it.
    #[inline]
    fn row_mut(&mut self, x: NodeId) -> (&mut [NodeId], &mut u32) {
        let live = &mut self.live[x as usize];
        let start = self.offsets[x as usize] as usize;
        (&mut self.ids[start..start + *live as usize], live)
    }

    /// Starts loading row `x`'s first ids and its live length.
    #[inline]
    fn prefetch(&self, x: NodeId) {
        let start = self.offsets[x as usize] as usize;
        prefetch(self.ids.as_ptr().wrapping_add(start));
        prefetch(self.live.as_ptr().wrapping_add(x as usize));
    }
}

/// Hints the CPU to bring the cache line holding `p` into L1. A no-op
/// off x86_64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint. It loads nothing the program can
    // observe and never faults, whatever address it is given.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The entry streams of the nodes in the window, oldest first, kept so
/// that a node's exit replays its stream instead of walking in(v) →
/// out(x) through the graph again.
struct Window {
    /// The recorded streams, concatenated.
    ids: VecDeque<NodeId>,
    /// One entry per node in the window, in placement order.
    entries: VecDeque<WindowEntry>,
    /// Most ids `ids` may hold. A stream that would overflow it is not
    /// recorded, and its node's exit walks the graph instead.
    cap: usize,
}

struct WindowEntry {
    node: NodeId,
    /// Length of the recorded stream at the front of [`Window::ids`]
    /// once this entry is the oldest; `None` if it was not recorded.
    stream: Option<u32>,
    hub_skips: u32,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window {
            ids: VecDeque::new(),
            entries: VecDeque::new(),
            cap,
        }
    }

    fn record(&mut self, node: NodeId, stream: &[NodeId], hub_skips: u32) {
        let fits = self.ids.len() + stream.len() <= self.cap;
        if fits {
            self.ids.extend(stream);
        }
        self.entries.push_back(WindowEntry {
            node,
            // A step's stream is indexed by u32 (see `DeltaScratch::grow`).
            stream: fits.then_some(stream.len() as u32),
            hub_skips,
        });
    }
}

/// The ids a run's [`Window`] may hold: one per node and edge, so the
/// replay state never outgrows the graph's own out-adjacency.
fn replay_cap(g: &Graph) -> usize {
    usize::try_from(g.m() + u64::from(g.n())).unwrap_or(usize::MAX)
}

/// The configured Gorder ordering algorithm. See the module docs.
#[derive(Debug, Clone)]
pub struct Gorder {
    window: u32,
    hub_threshold: Option<u32>,
}

impl Gorder {
    /// Gorder with the paper's defaults (`w = 5`).
    pub fn with_defaults() -> Self {
        GorderBuilder::new().build()
    }

    /// The configured window size.
    pub fn window_size(&self) -> u32 {
        self.window
    }

    /// The configured hub threshold (`None` = exact propagation).
    pub fn hub_threshold(&self) -> Option<u32> {
        self.hub_threshold
    }

    /// Computes the Gorder permutation (`old id → new id`).
    pub fn compute(&self, g: &Graph) -> Permutation {
        self.compute_with_stats(g).0
    }

    /// Computes the permutation along with update counters.
    pub fn compute_with_stats(&self, g: &Graph) -> (Permutation, GorderStats) {
        let _span = gorder_obs::span("gorder.build");
        let n = g.n();
        if n == 0 {
            return (Permutation::identity(0), GorderStats::default());
        }
        let (placement, stats, stop) = self.greedy(g, None, replay_cap(g));
        debug_assert!(stop.is_none(), "unbudgeted greedy cannot stop early");
        let perm = Permutation::from_placement(&placement)
            .expect("greedy placement covers every node exactly once");
        (perm, stats)
    }

    /// The windowed greedy build loop shared by the plain and budgeted
    /// entry points. Returns the (possibly partial, if the budget ran
    /// out) placement, the run counters, and the degrade reason if any.
    /// `replay_cap` bounds the exit-replay state (see [`replay_cap`]);
    /// the result does not depend on it.
    fn greedy(
        &self,
        g: &Graph,
        budget: Option<&Budget>,
        replay_cap: usize,
    ) -> (Vec<NodeId>, GorderStats, Option<DegradeReason>) {
        let n = g.n();
        let w = self.window as usize;
        let hub = self.hub_threshold.unwrap_or(u32::MAX);
        let mut stats = GorderStats::default();
        let mut placement: Vec<NodeId> = Vec::with_capacity(n as usize);

        // Checked before the seed is placed so that a zero budget degrades
        // all the way down the ladder to pure ChDFS.
        let mut stop = budget.and_then(|b| b.exhausted(0));
        if stop.is_none() {
            let mut heap = UnitHeap::new(n);
            let mut scratch = DeltaScratch::new(n);
            let mut window = Window::new(replay_cap);
            let mut rows = Rows::new(g);
            // Seed with the highest in-degree node: it has the most
            // siblings to pull in behind it. Ties break toward the
            // smallest id.
            let seed = (0..n)
                .max_by_key(|&u| (g.in_degree(u), std::cmp::Reverse(u)))
                .expect("non-empty graph");
            heap.remove(seed);
            scratch.place(seed);
            placement.push(seed);
            scratch.enter(&mut rows, seed, hub, &mut window, &mut stats);
            scratch.flush(&mut heap, &mut stats);

            while let Some(v) = heap.pop_max() {
                stats.pops += 1;
                scratch.place(v);
                placement.push(v);
                scratch.enter(&mut rows, v, hub, &mut window, &mut stats);
                if placement.len() > w {
                    scratch.exit(&mut rows, hub, &mut window, &mut stats);
                }
                // One net heap update per candidate the enter + exit
                // deltas touched, instead of a stream of ±1 operations.
                scratch.flush(&mut heap, &mut stats);
                if let Some(b) = budget {
                    let done = placement.len() as u64;
                    if done.is_multiple_of(CHECK_STRIDE) {
                        stop = b.exhausted(done);
                        if stop.is_some() {
                            break;
                        }
                    }
                }
            }
        }
        (placement, stats, stop)
    }

    /// Anytime variant of [`Gorder::compute`]: runs the greedy under a
    /// [`Budget`], and on exhaustion appends every unplaced node in
    /// children-first DFS discovery order (the ChDFS baseline restricted
    /// to the unplaced remainder). The result is always a valid
    /// permutation; a degraded one interpolates between full Gorder and
    /// pure ChDFS — with a zero budget it *is* exactly ChDFS.
    pub fn compute_budgeted(&self, g: &Graph, budget: &Budget) -> ExecOutcome<Permutation> {
        self.compute_budgeted_with_stats(g, budget).0
    }

    /// Like [`Gorder::compute_budgeted`] but also returns the heap update
    /// counters accumulated before the budget ran out.
    pub fn compute_budgeted_with_stats(
        &self,
        g: &Graph,
        budget: &Budget,
    ) -> (ExecOutcome<Permutation>, GorderStats) {
        if budget.is_unlimited() {
            let (perm, stats) = self.compute_with_stats(g);
            return (ExecOutcome::Completed(perm), stats);
        }
        let n = g.n();
        if n == 0 {
            return (
                ExecOutcome::Completed(Permutation::identity(0)),
                GorderStats::default(),
            );
        }
        let _span = gorder_obs::span("gorder.build");
        let (mut placement, stats, stop) = self.greedy(g, Some(budget), replay_cap(g));
        let outcome = match stop {
            None => {
                let perm = Permutation::from_placement(&placement)
                    .expect("greedy placement covers every node exactly once");
                ExecOutcome::Completed(perm)
            }
            Some(reason) => {
                chdfs_fill(g, &mut placement);
                let perm = Permutation::from_placement(&placement)
                    .expect("DFS fill covers every remaining node exactly once");
                ExecOutcome::Degraded(perm, reason)
            }
        };
        (outcome, stats)
    }
}

/// Appends every node not yet in `placement` in children-first DFS
/// discovery order, starting from the unplaced node of maximum total
/// degree (ties to the smallest id) with id-order restarts — the exact
/// traversal of the ChDFS baseline, restricted to the unplaced set.
fn chdfs_fill(g: &Graph, placement: &mut Vec<NodeId>) {
    let n = g.n();
    let mut seen = vec![false; n as usize];
    for &u in placement.iter() {
        seen[u as usize] = true;
    }
    let start = (0..n)
        .filter(|&u| !seen[u as usize])
        .max_by_key(|&u| (g.degree(u), std::cmp::Reverse(u)));
    let Some(start) = start else { return };
    let mut stack: Vec<(NodeId, u32)> = Vec::new();
    for s in std::iter::once(start).chain(g.nodes()) {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        placement.push(s);
        stack.push((s, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let ns = g.out_neighbors(u);
            let mut advanced = false;
            while (*next as usize) < ns.len() {
                let v = ns[*next as usize];
                *next += 1;
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    placement.push(v);
                    stack.push((v, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{f_score_of, pair_score};
    use gorder_graph::gen::{copying_model, preferential_attachment, PrefAttachConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exit_replay_matches_a_fresh_walk_at_any_cap() {
        // With no room for replay every exit walks the compacted rows
        // again; with unbounded room every exit replays its entry stream.
        // Both, and the default bound, give the same placement and
        // counters.
        let graphs = [social(400), copying_model(350, 6, 0.7, 21)];
        for g in &graphs {
            for w in [1u32, 5, 64] {
                for hub in [None, Some(2), Some(8)] {
                    let gorder = GorderBuilder::new().window(w).hub_threshold(hub).build();
                    let walked = gorder.greedy(g, None, 0);
                    let replayed = gorder.greedy(g, None, usize::MAX);
                    let default = gorder.greedy(g, None, replay_cap(g));
                    assert_eq!(walked, replayed, "w={w} hub={hub:?}");
                    assert_eq!(walked, default, "w={w} hub={hub:?}");
                }
            }
        }
    }

    #[test]
    fn a_fully_dead_row_is_walked_as_empty() {
        // Row 0 is {1, 2}. Walking 1 after both are placed touches 0 and
        // sheds the whole row; walking 2 then touches 0 alone. Every
        // touch writes the stream buffer, dropped ones included, so a
        // buffer left as filled shows that no dead id was read.
        const UNWRITTEN: NodeId = 7;
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let mut rows = Rows::new(&g);
        let mut scratch = DeltaScratch::new(3);
        scratch.place(1);
        scratch.place(2);
        scratch.walk(&mut rows, 1, 1, u32::MAX);
        assert_eq!(scratch.events[..scratch.len], [0]);
        assert_eq!(rows.live(0), 0);
        scratch.len = 0;
        scratch.events.fill(UNWRITTEN);
        scratch.walk(&mut rows, 2, 1, u32::MAX);
        assert_eq!(scratch.events[..scratch.len], [0]);
        assert!(
            scratch.events[1..].iter().all(|&u| u == UNWRITTEN),
            "the dead row was read: {:?}",
            scratch.events
        );
    }

    #[test]
    fn compacted_rows_keep_graph_order_within_m_ids() {
        // Walking nodes in Gorder's own placement order, every row stays
        // the graph's row in order minus some placed ids, keeps every
        // unplaced id, and the private copy holds exactly m ids
        // throughout, with hub skipping off and on.
        let g = social(300);
        for hub in [None, Some(2)] {
            let order = GorderBuilder::new()
                .hub_threshold(hub)
                .build()
                .compute(&g)
                .placement();
            let mut rows = Rows::new(&g);
            let mut scratch = DeltaScratch::new(g.n());
            let mut placed = vec![false; g.n() as usize];
            for chunk in order.chunks(37) {
                // Place and walk each node's entry as the build does; the
                // streams are dropped.
                for &v in chunk {
                    scratch.place(v);
                    placed[v as usize] = true;
                    scratch.walk(&mut rows, v, 1, hub.unwrap_or(u32::MAX));
                    scratch.len = 0;
                }
                assert_eq!(rows.ids.len() as u64, g.m());
                for x in g.nodes() {
                    let row = &rows.ids[rows.offsets[x as usize] as usize..][..rows.live(x)];
                    let full = g.out_neighbors(x);
                    let mut rest = full.iter();
                    assert!(
                        row.iter().all(|u| rest.any(|f| f == u)),
                        "row {x} is not in graph order: {row:?} vs {full:?}"
                    );
                    assert!(
                        full.iter()
                            .filter(|&&u| !placed[u as usize])
                            .all(|u| row.contains(u)),
                        "row {x} lost an unplaced id"
                    );
                }
            }
            let live: usize = g.nodes().map(|x| rows.live(x)).sum();
            assert!(live < g.m() as usize, "walks shed no id at all");
        }
    }

    #[test]
    #[should_panic(expected = "fit a u32 index")]
    fn step_beyond_u32_touches_fails_loudly() {
        let mut scratch = DeltaScratch::new(1);
        scratch.reserve(PLACED as usize + 1);
    }

    fn social(n: u32) -> Graph {
        preferential_attachment(PrefAttachConfig {
            n,
            out_degree: 6,
            reciprocity: 0.3,
            uniform_mix: 0.1,
            closure_prob: 0.3,
            recency_bias: 0.3,
            seed: 13,
        })
    }

    fn assert_valid_perm(perm: &Permutation, n: u32) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n as usize];
        for u in 0..n {
            let p = perm.apply(u) as usize;
            assert!(!seen[p], "duplicate target {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn produces_valid_permutation() {
        let g = social(500);
        let perm = Gorder::with_defaults().compute(&g);
        assert_valid_perm(&perm, 500);
    }

    #[test]
    fn deterministic() {
        let g = social(300);
        let gorder = Gorder::with_defaults();
        assert_eq!(gorder.compute(&g).as_slice(), gorder.compute(&g).as_slice());
    }

    #[test]
    fn beats_random_on_f_score() {
        let g = copying_model(600, 8, 0.7, 21);
        let w = 5;
        let perm = GorderBuilder::new().window(w).build().compute(&g);
        let random = Permutation::random(g.n(), &mut StdRng::seed_from_u64(3));
        let f_gorder = f_score_of(&g, &perm, w);
        let f_random = f_score_of(&g, &random, w);
        assert!(
            f_gorder > 2 * f_random,
            "gorder F = {f_gorder} should dominate random F = {f_random}"
        );
    }

    #[test]
    fn beats_original_on_f_score_for_shuffled_input() {
        // Shuffle a structured graph so the identity order carries no
        // signal, then check Gorder rediscovers locality.
        let g0 = copying_model(500, 6, 0.7, 5);
        let shuffle = Permutation::random(g0.n(), &mut StdRng::seed_from_u64(17));
        let g = g0.relabel(&shuffle);
        let w = 5;
        let perm = GorderBuilder::new().window(w).build().compute(&g);
        let f_gorder = f_score_of(&g, &perm, w);
        let f_identity = f_score_of(&g, &Permutation::identity(g.n()), w);
        assert!(
            f_gorder > f_identity,
            "gorder F = {f_gorder} vs identity F = {f_identity}"
        );
    }

    #[test]
    fn greedy_picks_max_score_neighbor_on_toy_graph() {
        // Star with a tail: node 0 points at 1..=4; node 5 shares all of
        // 0's targets (siblings). Greedy seeded at the max in-degree node
        // must keep sibling-rich nodes adjacent.
        let mut edges = vec![];
        for t in 1..=4 {
            edges.push((0u32, t));
            edges.push((5u32, t));
        }
        let g = Graph::from_edges(6, &edges);
        let perm = GorderBuilder::new().window(3).build().compute(&g);
        let placement = perm.placement();
        // 0 and 5 both have in-degree 0 and share 4 sibling relations with
        // each of 1..=4; whichever of 1..=4 is placed first, the strong
        // mutual siblings 1..=4 must cluster: check that consecutive
        // placement pairs have positive scores where possible.
        let mut positive_adjacent = 0;
        for pair in placement.windows(2) {
            if pair_score(&g, pair[0], pair[1]) > 0 {
                positive_adjacent += 1;
            }
        }
        assert!(positive_adjacent >= 4, "placement {placement:?}");
    }

    #[test]
    fn greedy_always_picks_a_max_score_node() {
        // Oracle: replay the placement and verify every chosen node ties
        // the true maximum of Σ_{v ∈ window} S(·, v) over unplaced nodes.
        let g = copying_model(60, 4, 0.6, 11);
        let w = 4usize;
        let placement = GorderBuilder::new()
            .window(w as u32)
            .build()
            .compute(&g)
            .placement();
        let mut placed = vec![false; g.n() as usize];
        placed[placement[0] as usize] = true;
        for i in 1..placement.len() {
            let window = &placement[i.saturating_sub(w)..i];
            let score_of = |u: u32| -> u64 { window.iter().map(|&v| pair_score(&g, u, v)).sum() };
            let chosen = score_of(placement[i]);
            let best = (0..g.n())
                .filter(|&u| !placed[u as usize])
                .map(score_of)
                .max()
                .unwrap();
            assert_eq!(
                chosen, best,
                "step {i}: picked {} with score {chosen}, max was {best}",
                placement[i]
            );
            placed[placement[i] as usize] = true;
        }
    }

    #[test]
    fn window_one_and_huge_window_work() {
        let g = social(200);
        for w in [1, 2, 199, 500] {
            let perm = GorderBuilder::new().window(w).build().compute(&g);
            assert_valid_perm(&perm, 200);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let perm = Gorder::with_defaults().compute(&Graph::empty(0));
        assert_eq!(perm.len(), 0);
        let perm = Gorder::with_defaults().compute(&Graph::empty(1));
        assert_eq!(perm.apply(0), 0);
    }

    #[test]
    fn disconnected_components_all_placed() {
        // two disjoint triangles + isolated nodes
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let perm = Gorder::with_defaults().compute(&g);
        assert_valid_perm(&perm, 8);
    }

    #[test]
    fn hub_threshold_preserves_validity_and_counts_skips() {
        let g = social(400);
        let (perm, stats) = GorderBuilder::new()
            .hub_threshold(Some(2))
            .build()
            .compute_with_stats(&g);
        assert_valid_perm(&perm, 400);
        assert!(stats.hub_skips > 0, "threshold 2 must skip some hubs");
    }

    #[test]
    fn exact_mode_has_no_skips() {
        let g = social(300);
        let (_, stats) = GorderBuilder::new()
            .hub_threshold(None)
            .build()
            .compute_with_stats(&g);
        assert_eq!(stats.hub_skips, 0);
    }

    #[test]
    fn coalesced_counters_are_populated_and_consistent() {
        // Counters classify coalesced updates by net sign; every placed
        // node after the seed is one pop, and a window of w keeps the
        // negative-net updates a strict subset of the per-step touches.
        let g = social(300);
        let (_, stats) = Gorder::with_defaults().compute_with_stats(&g);
        assert!(stats.increments > 0);
        assert_eq!(stats.pops, u64::from(g.n()) - 1);
        assert!(stats.heap_updates() >= stats.increments + stats.decrements);
    }

    #[test]
    fn budgeted_unlimited_matches_plain_compute() {
        let g = social(300);
        let gorder = Gorder::with_defaults();
        let plain = gorder.compute(&g);
        match gorder.compute_budgeted(&g, &crate::budget::Budget::unlimited()) {
            crate::budget::ExecOutcome::Completed(perm) => {
                assert_eq!(perm.as_slice(), plain.as_slice());
            }
            other => panic!(
                "unlimited budget must complete, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn budgeted_node_cap_degrades_to_valid_permutation() {
        let g = social(600);
        let budget = crate::budget::Budget::unlimited().with_node_cap(128);
        match Gorder::with_defaults().compute_budgeted(&g, &budget) {
            crate::budget::ExecOutcome::Degraded(perm, reason) => {
                assert_eq!(reason, crate::budget::DegradeReason::NodeCapReached);
                assert_valid_perm(&perm, 600);
            }
            other => panic!(
                "128-node cap on 600 nodes must degrade, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn budgeted_node_cap_keeps_the_unbudgeted_prefix() {
        // The window's replay state is shared with the budgeted loop: a
        // capped run must place its first `cap` nodes exactly as the
        // unbudgeted run does, for caps below and above the window.
        let g = social(600);
        for w in [2u32, 64] {
            let gorder = GorderBuilder::new().window(w).build();
            let full = gorder.compute(&g).placement();
            for cap in [1u64, 3, 40, 100, 200, 500] {
                let budget = crate::budget::Budget::unlimited().with_node_cap(cap);
                let perm = gorder
                    .compute_budgeted(&g, &budget)
                    .value()
                    .expect("a degraded run still carries a permutation");
                let cap = cap as usize;
                assert_eq!(
                    perm.placement()[..cap],
                    full[..cap],
                    "w={w} cap={cap}: greedy prefix diverged"
                );
            }
        }
    }

    #[test]
    fn budgeted_cancellation_degrades_immediately() {
        let g = social(400);
        let budget = crate::budget::Budget::unlimited().with_node_cap(u64::MAX);
        budget.cancel();
        match Gorder::with_defaults().compute_budgeted(&g, &budget) {
            crate::budget::ExecOutcome::Degraded(perm, reason) => {
                assert_eq!(reason, crate::budget::DegradeReason::Cancelled);
                assert_valid_perm(&perm, 400);
            }
            other => panic!(
                "cancelled budget must degrade, got {}",
                other.status_label()
            ),
        }
    }

    #[test]
    fn zero_budget_fallback_is_pure_chdfs() {
        // With a zero node cap nothing is greedily placed, so the
        // fallback must reproduce the ChDFS baseline exactly: discovery
        // order from the max-total-degree node with id-order restarts.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let budget = crate::budget::Budget::unlimited().with_node_cap(0);
        let perm = Gorder::with_defaults()
            .compute_budgeted(&g, &budget)
            .value()
            .expect("degraded result still carries a permutation");
        assert_eq!(perm.placement(), vec![0, 1, 3, 2]);
    }

    #[test]
    fn larger_window_does_not_reduce_f_at_same_window() {
        // Orderings built with larger w should score at least comparably
        // on their own objective... strictly this is heuristic; we assert
        // the weaker, stable property that both beat random.
        let g = copying_model(400, 6, 0.7, 9);
        let random = Permutation::random(g.n(), &mut StdRng::seed_from_u64(2));
        for w in [2, 8] {
            let perm = GorderBuilder::new().window(w).build().compute(&g);
            assert!(f_score_of(&g, &perm, w) > f_score_of(&g, &random, w));
        }
    }
}
