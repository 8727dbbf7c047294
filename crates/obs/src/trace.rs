//! Schema-versioned JSONL run tracing.
//!
//! A trace file is a sequence of one-object-per-line JSON records:
//! the first line is always a [`RunManifest`] (run provenance: tool,
//! dataset, ordering, algorithm, threads, window, config hash,
//! wall-clock start), followed by one [`TraceEvent`] line per phase,
//! grid cell, or kernel run, and optionally one line per metric from a
//! registry [`Snapshot`]. Every line is flushed as it is written, so an
//! interrupted sweep leaves a readable prefix from which the completed
//! cells can be reconstructed.
//!
//! Key order within each record kind is fixed and pinned by the golden
//! test (`tests/golden/trace_keys.txt`); any reordering or addition is a
//! schema change and must bump [`SCHEMA_VERSION`].
//!
//! [`read_jsonl`] is the only reader of the format: it owns the line
//! loop, the manifest-first and schema-version checks, the
//! `line N (byte offset O)` error prefix and the torn-final-line rule.
//! [`validate_jsonl`], the gate baseline parser and sweep resume are
//! calls to it. The record kinds that are read back ([`RunManifest`],
//! [`CellEvent`], [`RowEvent`], [`GateEvent`], [`OrderEvent`]) carry a
//! `decode` next to the writer it inverts.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{Fields, JsonObject};
use crate::registry::Snapshot;

/// Version of the trace line schema. Bump when any record kind changes
/// its key set or key order; readers refuse mismatched manifests.
///
/// v2: added the `row` record kind (verbatim CSV rows, the unit of
/// crash-safe resume) and `degraded_serial` to `kernel` records.
///
/// v3: added the `order` record kind — one line per ordering
/// construction, carrying the ordering's identity (name, params, seed,
/// graph digest, config-hashable identity string), its `OrderStats`
/// counters, and whether the permutation came from the on-disk cache.
///
/// v4: added the `gate` record kind — one line per regression-gate cell
/// (`gorder-bench gate`), carrying either the deterministic sim-proxy
/// counters (cache misses per level, ops, reuse summary) or the paired
/// wall-clock statistics (speedup median, sign-test p, bootstrap CI).
///
/// v5: added the `serve` record kind — one line per request the
/// `gorder-serve` daemon answered, carrying the operation, its target
/// (dataset/ordering/algo), the admission outcome (`ok`/`busy`/`error`),
/// which degradation tier actually served it (`cache`/`full`/`degraded`/
/// `original`), whether a worker panic forced a serial retry, and the
/// queueing/service timings.
pub const SCHEMA_VERSION: u64 = 5;

/// Incremental 64-bit FNV-1a: the one hash behind [`config_hash`], the
/// permutation cache's graph digests and entry checksums, and the
/// daemon's permutation checksums, so all of them share one id space.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.finish()
    }
}

/// FNV-1a over the bytes of a canonical config string — cheap, stable
/// across platforms, and good enough to answer "were these two runs
/// configured identically?".
pub fn config_hash(config: &str) -> u64 {
    Fnv1a::hash(config.as_bytes())
}

/// The header line of every trace: enough provenance to re-run (or at
/// least re-interpret) the file without the shell history that produced
/// it. Fields that do not apply to a given tool (a whole-grid sweep has
/// no single ordering) are `None` and serialise as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Emitting binary/subcommand, e.g. `"gorder-cli run"` or `"fig5"`.
    pub tool: String,
    /// Dataset name, when the run targets exactly one.
    pub dataset: Option<String>,
    /// Ordering name, when the run targets exactly one.
    pub ordering: Option<String>,
    /// Algorithm/kernel name, when the run targets exactly one.
    pub algo: Option<String>,
    /// Worker thread count the run was configured with.
    pub threads: u64,
    /// Gorder window parameter `w`.
    pub window: Option<u64>,
    /// FNV-1a hash of the canonical config string (see [`config_hash`]).
    pub config_hash: u64,
    /// Wall-clock start, seconds since the Unix epoch.
    pub started_unix_secs: u64,
}

impl RunManifest {
    /// A manifest for `tool`, hashing `config` (a canonical rendering of
    /// every knob that shaped the run) and stamping the current
    /// wall-clock time.
    pub fn new(tool: &str, config: &str) -> Self {
        let started = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunManifest {
            tool: tool.to_string(),
            dataset: None,
            ordering: None,
            algo: None,
            threads: 1,
            window: None,
            config_hash: config_hash(config),
            started_unix_secs: started,
        }
    }

    /// Renders the manifest line. Key order is part of the schema.
    pub fn to_json_line(&self) -> String {
        JsonObject::new()
            .u64("schema_version", SCHEMA_VERSION)
            .str("kind", "manifest")
            .str("tool", &self.tool)
            .opt_str("dataset", self.dataset.as_deref())
            .opt_str("ordering", self.ordering.as_deref())
            .opt_str("algo", self.algo.as_deref())
            .u64("threads", self.threads)
            .opt_u64("window", self.window)
            .u64("config_hash", self.config_hash)
            .u64("started_unix_secs", self.started_unix_secs)
            .finish()
    }

    /// Decodes a manifest line written by [`RunManifest::to_json_line`].
    pub fn decode(f: &Fields) -> Result<Self, String> {
        Ok(RunManifest {
            tool: f.str("tool")?,
            dataset: f.opt_str("dataset")?,
            ordering: f.opt_str("ordering")?,
            algo: f.opt_str("algo")?,
            threads: f.u64("threads")?,
            window: f.opt_u64("window")?,
            config_hash: f.u64("config_hash")?,
            started_unix_secs: f.u64("started_unix_secs")?,
        })
    }
}

/// One grid cell (dataset × ordering × algorithm) outcome, as the bench
/// sweeps record them. `seconds` is `null` for cells that never produced
/// a time (timeout/failure) — the status string says why.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEvent {
    /// Dataset the cell ran on.
    pub dataset: String,
    /// Ordering under test.
    pub ordering: String,
    /// Algorithm/kernel name.
    pub algo: String,
    /// Cell status label (`"ok"`, `"timeout"`, `"ordering-failed"`, …).
    pub status: String,
    /// Measured seconds; non-finite values serialise as `null`.
    pub seconds: f64,
    /// Result checksum for cross-ordering equivalence checking.
    pub checksum: u64,
}

/// One kernel execution with its full `KernelStats`-shaped breakdown —
/// the trace twin of the CLI's `--stats` line, keyed identically.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Algorithm/kernel name.
    pub algo: String,
    /// Ordering the graph was laid out with.
    pub ordering: String,
    /// Result checksum.
    pub checksum: u64,
    /// End-to-end seconds.
    pub seconds: f64,
    /// Execution engine label (`"serial"`, `"parallel"`, …).
    pub engine: String,
    /// Iterations until convergence.
    pub iterations: u64,
    /// Edges relaxed across all iterations.
    pub edges_relaxed: u64,
    /// Frontier pushes (traversal kernels).
    pub frontier_pushes: u64,
    /// Peak frontier size.
    pub frontier_peak: u64,
    /// Seconds in init.
    pub init_secs: f64,
    /// Seconds in the iterate loop.
    pub compute_secs: f64,
    /// Seconds in finish.
    pub finish_secs: f64,
    /// Threads actually used.
    pub threads_used: u64,
    /// Summed per-thread busy seconds.
    pub thread_busy_secs: f64,
    /// Whether a worker panic forced a serial retry of this run.
    pub degraded_serial: bool,
}

/// One finished artifact row, verbatim: the exact CSV cells a sweep
/// binary will write for one logical row of `table`, recorded the moment
/// the row is computed. This is the unit of crash-safe resume — a
/// resumed sweep re-emits recovered rows byte-for-byte, so the final CSV
/// is identical to an uninterrupted run's.
#[derive(Debug, Clone, PartialEq)]
pub struct RowEvent {
    /// Artifact the row belongs to (e.g. `"fig5.csv"`).
    pub table: String,
    /// Grid coordinates of the row, e.g. `"epinion|BFS|Gorder"` —
    /// whatever uniquely identifies the row within `table`.
    pub key: String,
    /// The row's CSV cells, exactly as they will be written.
    pub cells: Vec<String>,
}

/// One ordering construction: which ordering ran (or was loaded from the
/// permutation cache), on what graph, with what outcome and counters.
/// `identity` is the canonical cache-key string
/// (`graph=<digest>,order=<name>,params=<params>,seed=<seed>`) so two
/// traces can be joined on "same ordering of the same graph" with a
/// single string compare (or its [`config_hash`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderEvent {
    /// Dataset name, when the sweep knows one (`null` from the CLI).
    pub dataset: Option<String>,
    /// Ordering name, e.g. `"Gorder"`.
    pub name: String,
    /// Canonical parameter string, e.g. `"w=5"`; empty for
    /// parameter-free orderings.
    pub params: String,
    /// Seed the ordering registry was constructed with.
    pub seed: u64,
    /// FNV-1a digest of the graph's CSR content.
    pub graph_digest: u64,
    /// The canonical cache-key string (see the struct docs).
    pub identity: String,
    /// Outcome label (`"ok"`, `"degraded"`, `"timeout"`, `"failed"`).
    pub status: String,
    /// Wall seconds to produce the permutation (near zero on cache hit).
    pub seconds: f64,
    /// Nodes placed by the ordering (= n on success).
    pub nodes_placed: u64,
    /// Unit-heap key increments (Gorder-family; 0 elsewhere).
    pub heap_increments: u64,
    /// Unit-heap key decrements (Gorder-family; 0 elsewhere).
    pub heap_decrements: u64,
    /// Unit-heap max-pops (Gorder-family; 0 elsewhere).
    pub heap_pops: u64,
    /// Threads the ordering ran on.
    pub threads_used: u64,
    /// Whether the permutation was loaded from the on-disk cache.
    pub cache_hit: bool,
}

/// One regression-gate cell (dataset × ordering × algorithm), as
/// `gorder-bench gate` records them into `BENCH_gate.json`.
///
/// The record carries both measurement modes' fields; the `mode` string
/// says which half is live. Sim-proxy cells fill the counter block
/// (`refs` through `reuse_counts`) with exact, platform-independent
/// integers and zero the wall block; wall-clock cells do the reverse.
/// Unused numeric fields are `0`/`0.0`, never `null`, so byte-identity
/// of two sim runs is a pure function of the counters.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEvent {
    /// Measurement mode: `"sim"` or `"wall"`.
    pub mode: String,
    /// Dataset the cell ran on.
    pub dataset: String,
    /// Ordering under test.
    pub ordering: String,
    /// Algorithm/kernel name.
    pub algo: String,
    /// Result checksum (work-elision guard; identical across orderings
    /// for relabeling-invariant kernels).
    pub checksum: u64,
    /// Engine iterations executed.
    pub iterations: u64,
    /// Edges scanned/relaxed across the run.
    pub edges_relaxed: u64,
    /// Simulated data references (= L1 references); 0 in wall mode.
    pub refs: u64,
    /// Simulated misses at each cache level, L1 first; empty in wall mode.
    pub level_misses: Vec<u64>,
    /// Simulated accesses that fell through every level; 0 in wall mode.
    pub mem_accesses: u64,
    /// Simulated non-memory operations; 0 in wall mode.
    pub ops: u64,
    /// Warm-line reuse observations; 0 in wall mode.
    pub reuse_total: u64,
    /// Sum of observed reuse distances (integral f64); 0.0 in wall mode.
    pub reuse_sum: f64,
    /// Reuse-distance histogram counts (fixed power-of-two buckets plus
    /// overflow); empty in wall mode.
    pub reuse_counts: Vec<u64>,
    /// Wall mode: interleaved A/B sample pairs kept after warmup; 0 in
    /// sim mode.
    pub pairs: u64,
    /// Wall mode: median speedup of this ordering over Original
    /// (t_Original / t_ordering); 0.0 in sim mode.
    pub speedup: f64,
    /// Wall mode: two-sided sign-test p-value over the pairs; 0.0 in sim
    /// mode.
    pub sign_p: f64,
    /// Wall mode: bootstrap CI lower bound on the speedup; 0.0 in sim.
    pub ci_lo: f64,
    /// Wall mode: bootstrap CI upper bound on the speedup; 0.0 in sim.
    pub ci_hi: f64,
}

/// One request served (or shed, or rejected) by the `gorder-serve`
/// daemon. Exactly one record is emitted per structured response the
/// server sends, so the trace is a complete ledger of the daemon's
/// admission decisions: counting `serve` records equals counting
/// responses, and a drained server's trace accounts for every accepted
/// request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Requested operation (`"order"`, `"run"`, `"simulate"`,
    /// `"health"`, `"stats"`, `"shutdown"`).
    pub op: String,
    /// Dataset the request targeted, when it named one.
    pub dataset: Option<String>,
    /// Ordering the request asked for, when it named one.
    pub ordering: Option<String>,
    /// Algorithm/kernel the request asked for, when it named one.
    pub algo: Option<String>,
    /// Admission outcome: `"ok"`, `"busy"` (shed), or `"error"`.
    pub status: String,
    /// Degradation tier that served the request: `"cache"` (layout LRU /
    /// OrderCache / single-flight hit), `"full"` (ordering computed
    /// completely), `"degraded"` (budget expired mid-build, anytime
    /// completion), `"original"` (ladder floor: identity ordering).
    /// `None` for responses with no ordering work (`health`, `busy`,
    /// errors).
    pub tier: Option<String>,
    /// Whether a worker panic forced this request onto the serial-retry
    /// rung of the panic ladder.
    pub degraded_serial: bool,
    /// Seconds the request waited in the admission queue.
    pub queue_secs: f64,
    /// Seconds of service time (compute, excluding queueing).
    pub seconds: f64,
    /// Result checksum (kernel checksum for `run`/`simulate`,
    /// permutation digest for `order`; 0 when not applicable).
    pub checksum: u64,
}

/// A named, timed phase (e.g. `"gorder.build"`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEvent {
    /// Phase name.
    pub name: String,
    /// Duration in seconds.
    pub seconds: f64,
}

/// Any non-manifest trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A grid-cell outcome.
    Cell(CellEvent),
    /// A kernel run with stats breakdown.
    Kernel(KernelEvent),
    /// A regression-gate cell (sim-proxy counters or wall statistics).
    Gate(GateEvent),
    /// An ordering construction (computed or cache-loaded).
    Order(OrderEvent),
    /// A timed phase.
    Phase(PhaseEvent),
    /// A verbatim artifact row (the unit of crash-safe resume).
    Row(RowEvent),
    /// One request answered by the `gorder-serve` daemon.
    Serve(ServeEvent),
}

impl TraceEvent {
    /// Renders the event line. Key order per kind is part of the schema.
    pub fn to_json_line(&self) -> String {
        match self {
            TraceEvent::Cell(c) => JsonObject::new()
                .str("kind", "cell")
                .str("dataset", &c.dataset)
                .str("ordering", &c.ordering)
                .str("algo", &c.algo)
                .str("status", &c.status)
                .f64("seconds", c.seconds)
                .u64("checksum", c.checksum)
                .finish(),
            TraceEvent::Kernel(k) => JsonObject::new()
                .str("kind", "kernel")
                .str("algo", &k.algo)
                .str("ordering", &k.ordering)
                .u64("checksum", k.checksum)
                .f64("seconds", k.seconds)
                .str("engine", &k.engine)
                .u64("iterations", k.iterations)
                .u64("edges_relaxed", k.edges_relaxed)
                .u64("frontier_pushes", k.frontier_pushes)
                .u64("frontier_peak", k.frontier_peak)
                .f64("init_secs", k.init_secs)
                .f64("compute_secs", k.compute_secs)
                .f64("finish_secs", k.finish_secs)
                .u64("threads_used", k.threads_used)
                .f64("thread_busy_secs", k.thread_busy_secs)
                .bool("degraded_serial", k.degraded_serial)
                .finish(),
            TraceEvent::Gate(g) => JsonObject::new()
                .str("kind", "gate")
                .str("mode", &g.mode)
                .str("dataset", &g.dataset)
                .str("ordering", &g.ordering)
                .str("algo", &g.algo)
                .u64("checksum", g.checksum)
                .u64("iterations", g.iterations)
                .u64("edges_relaxed", g.edges_relaxed)
                .u64("refs", g.refs)
                .u64_array("level_misses", &g.level_misses)
                .u64("mem_accesses", g.mem_accesses)
                .u64("ops", g.ops)
                .u64("reuse_total", g.reuse_total)
                .f64("reuse_sum", g.reuse_sum)
                .u64_array("reuse_counts", &g.reuse_counts)
                .u64("pairs", g.pairs)
                .f64("speedup", g.speedup)
                .f64("sign_p", g.sign_p)
                .f64("ci_lo", g.ci_lo)
                .f64("ci_hi", g.ci_hi)
                .finish(),
            TraceEvent::Order(o) => JsonObject::new()
                .str("kind", "order")
                .opt_str("dataset", o.dataset.as_deref())
                .str("name", &o.name)
                .str("params", &o.params)
                .u64("seed", o.seed)
                .u64("graph_digest", o.graph_digest)
                .str("identity", &o.identity)
                .str("status", &o.status)
                .f64("seconds", o.seconds)
                .u64("nodes_placed", o.nodes_placed)
                .u64("heap_increments", o.heap_increments)
                .u64("heap_decrements", o.heap_decrements)
                .u64("heap_pops", o.heap_pops)
                .u64("threads_used", o.threads_used)
                .bool("cache_hit", o.cache_hit)
                .finish(),
            TraceEvent::Phase(p) => JsonObject::new()
                .str("kind", "phase")
                .str("name", &p.name)
                .f64("seconds", p.seconds)
                .finish(),
            TraceEvent::Row(r) => JsonObject::new()
                .str("kind", "row")
                .str("table", &r.table)
                .str("key", &r.key)
                .str_array("cells", &r.cells)
                .finish(),
            TraceEvent::Serve(s) => JsonObject::new()
                .str("kind", "serve")
                .str("op", &s.op)
                .opt_str("dataset", s.dataset.as_deref())
                .opt_str("ordering", s.ordering.as_deref())
                .opt_str("algo", s.algo.as_deref())
                .str("status", &s.status)
                .opt_str("tier", s.tier.as_deref())
                .bool("degraded_serial", s.degraded_serial)
                .f64("queue_secs", s.queue_secs)
                .f64("seconds", s.seconds)
                .u64("checksum", s.checksum)
                .finish(),
        }
    }
}

// Decoders for the record kinds something reads back: each inverts its
// arm of `TraceEvent::to_json_line`.

impl CellEvent {
    /// Decodes a `cell` line; `null` seconds read back as NaN.
    pub fn decode(f: &Fields) -> Result<Self, String> {
        Ok(CellEvent {
            dataset: f.str("dataset")?,
            ordering: f.str("ordering")?,
            algo: f.str("algo")?,
            status: f.str("status")?,
            seconds: f.f64_or_nan("seconds")?,
            checksum: f.u64("checksum")?,
        })
    }
}

impl RowEvent {
    /// Decodes a `row` line.
    pub fn decode(f: &Fields) -> Result<Self, String> {
        Ok(RowEvent {
            table: f.str("table")?,
            key: f.str("key")?,
            cells: f.str_array("cells")?,
        })
    }
}

impl GateEvent {
    /// Decodes a `gate` line.
    pub fn decode(f: &Fields) -> Result<Self, String> {
        Ok(GateEvent {
            mode: f.str("mode")?,
            dataset: f.str("dataset")?,
            ordering: f.str("ordering")?,
            algo: f.str("algo")?,
            checksum: f.u64("checksum")?,
            iterations: f.u64("iterations")?,
            edges_relaxed: f.u64("edges_relaxed")?,
            refs: f.u64("refs")?,
            level_misses: f.u64_array("level_misses")?,
            mem_accesses: f.u64("mem_accesses")?,
            ops: f.u64("ops")?,
            reuse_total: f.u64("reuse_total")?,
            reuse_sum: f.f64("reuse_sum")?,
            reuse_counts: f.u64_array("reuse_counts")?,
            pairs: f.u64("pairs")?,
            speedup: f.f64("speedup")?,
            sign_p: f.f64("sign_p")?,
            ci_lo: f.f64("ci_lo")?,
            ci_hi: f.f64("ci_hi")?,
        })
    }
}

impl OrderEvent {
    /// Decodes an `order` line.
    pub fn decode(f: &Fields) -> Result<Self, String> {
        Ok(OrderEvent {
            dataset: f.opt_str("dataset")?,
            name: f.str("name")?,
            params: f.str("params")?,
            seed: f.u64("seed")?,
            graph_digest: f.u64("graph_digest")?,
            identity: f.str("identity")?,
            status: f.str("status")?,
            seconds: f.f64("seconds")?,
            nodes_placed: f.u64("nodes_placed")?,
            heap_increments: f.u64("heap_increments")?,
            heap_decrements: f.u64("heap_decrements")?,
            heap_pops: f.u64("heap_pops")?,
            threads_used: f.u64("threads_used")?,
            cache_hit: f.bool("cache_hit")?,
        })
    }
}

/// Renders one registry metric as a trace line (kind `counter`, `gauge`,
/// `span`, or `histogram`).
fn metric_lines(snap: &Snapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, v) in &snap.counters {
        lines.push(
            JsonObject::new()
                .str("kind", "counter")
                .str("name", name)
                .u64("value", *v)
                .finish(),
        );
    }
    for (name, v) in &snap.gauges {
        lines.push(
            JsonObject::new()
                .str("kind", "gauge")
                .str("name", name)
                .f64("value", *v)
                .finish(),
        );
    }
    for (name, s) in &snap.spans {
        lines.push(
            JsonObject::new()
                .str("kind", "span")
                .str("name", name)
                .u64("count", s.count)
                .f64("total_secs", s.total_secs)
                .f64("max_secs", s.max_secs)
                .finish(),
        );
    }
    for (name, h) in &snap.histograms {
        lines.push(
            JsonObject::new()
                .str("kind", "histogram")
                .str("name", name)
                .f64_array("bounds", h.bounds())
                .u64_array("counts", h.counts())
                .u64("total", h.total())
                .f64("sum", h.sum())
                .finish(),
        );
    }
    lines
}

/// A line-flushed JSONL trace writer. Construct over any [`Write`] (for
/// tests) or via [`TraceSink::create`] for a file; write the manifest
/// first, then events as they happen. Each line is flushed immediately
/// so a killed process loses at most the line being written.
#[derive(Debug)]
pub struct TraceSink<W: Write> {
    w: W,
    lines: u64,
}

impl TraceSink<BufWriter<File>> {
    /// Opens (truncating) a trace file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(TraceSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        TraceSink { w, lines: 0 }
    }

    fn line(&mut self, s: &str) -> io::Result<()> {
        self.w.write_all(s.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.w.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// Writes the manifest header line. Call exactly once, first.
    pub fn manifest(&mut self, m: &RunManifest) -> io::Result<()> {
        self.line(&m.to_json_line())
    }

    /// Writes one event line.
    pub fn event(&mut self, e: &TraceEvent) -> io::Result<()> {
        self.line(&e.to_json_line())
    }

    /// Writes one line per metric in the snapshot (counters, gauges,
    /// spans, histograms) — the usual end-of-run registry export.
    pub fn metrics(&mut self, snap: &Snapshot) -> io::Result<()> {
        for l in metric_lines(snap) {
            self.line(&l)?;
        }
        Ok(())
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Unwraps the inner writer (tests inspect the buffer).
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// What [`read_jsonl`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total lines (including the manifest).
    pub lines: usize,
    /// Line count per record kind (`"manifest"`, `"cell"`, …).
    pub by_kind: BTreeMap<String, usize>,
    /// Lenient mode only: the trace ended in one invalid, unterminated
    /// final line — the signature of a crash mid-write. The torn line is
    /// not counted in `lines` or `by_kind`.
    pub truncated_final_line: bool,
}

/// Validates a whole trace: every line must pass the strict JSON parser,
/// the first line must be a `manifest` with a matching
/// [`SCHEMA_VERSION`], and every line must carry a `kind`. This is
/// [`read_jsonl`] with no per-record decoding — what the golden tests,
/// the CI smoke step and `gorder-cli validate-trace` run. Errors name
/// both the line number and the byte offset of the first invalid line.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    read_jsonl(text, false, |_, _, _| Ok(()))
}

/// [`validate_jsonl`], but tolerating exactly one invalid **final** line
/// with no trailing newline — what a crash mid-write produces (every
/// earlier line was flushed whole). A torn manifest still fails: with no
/// complete first line the trace identifies nothing. The summary's
/// `truncated_final_line` reports whether the tolerance was used.
pub fn validate_jsonl_lenient(text: &str) -> Result<TraceSummary, String> {
    read_jsonl(text, true, |_, _, _| Ok(()))
}

/// The one trace reader. Walks `text` line by line; each line must
/// parse ([`Fields::parse`]) and carry a `kind`, and line 1 must be a
/// `manifest` with the supported [`SCHEMA_VERSION`]. Then
/// `on_record(line_number, kind, fields)` decodes whatever the caller
/// needs from the line. Every error, the callback's included, is
/// prefixed `line N (byte offset O): `.
///
/// With `lenient`, one failing line is forgiven when it is the last one,
/// unterminated and past the manifest — a line torn by a crash mid-write
/// (complete lines are flushed newline-last, so they always have one).
/// The summary's `truncated_final_line` reports it.
pub fn read_jsonl(
    text: &str,
    lenient: bool,
    mut on_record: impl FnMut(usize, &str, &Fields) -> Result<(), String>,
) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut offset = 0usize;
    for (idx, raw) in text.split_inclusive('\n').enumerate() {
        let n = idx + 1;
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let torn_tolerable = lenient && n >= 2 && offset + raw.len() == text.len() && raw == line;
        match read_line(line, n, &mut on_record) {
            Ok(kind) => {
                *summary.by_kind.entry(kind).or_insert(0) += 1;
                summary.lines = n;
            }
            Err(_) if torn_tolerable => {
                summary.truncated_final_line = true;
                break;
            }
            Err(e) => return Err(format!("line {n} (byte offset {offset}): {e}")),
        }
        offset += raw.len();
    }
    if summary.lines == 0 {
        return Err("empty trace: expected at least a manifest line".to_string());
    }
    Ok(summary)
}

/// Checks line `n` and hands it to `on_record`; returns its `kind`.
fn read_line(
    line: &str,
    n: usize,
    on_record: &mut impl FnMut(usize, &str, &Fields) -> Result<(), String>,
) -> Result<String, String> {
    let fields = Fields::parse(line)?;
    let kind = fields.raw("kind")?.trim_matches('"').to_string();
    if n == 1 {
        if kind != "manifest" {
            return Err(format!("first line must be a manifest, got {kind:?}"));
        }
        let ver = fields
            .raw("schema_version")
            .map_err(|_| "manifest missing schema_version".to_string())?;
        if ver != SCHEMA_VERSION.to_string() {
            return Err(format!(
                "schema_version {ver} != supported {SCHEMA_VERSION}"
            ));
        }
    }
    on_record(n, &kind, &fields)?;
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;
    use crate::registry::Registry;

    fn demo_manifest() -> RunManifest {
        let mut m = RunManifest::new("test-tool", "scale=4,seed=7");
        m.dataset = Some("flickr".to_string());
        m.ordering = Some("Gorder".to_string());
        m.algo = Some("pagerank".to_string());
        m.threads = 4;
        m.window = Some(5);
        m
    }

    #[test]
    fn config_hash_is_stable_fnv1a() {
        // FNV-1a reference values: empty string hashes to the offset
        // basis; any change to the algorithm breaks cross-run joins.
        assert_eq!(config_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(config_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(config_hash("scale=4"), config_hash("scale=5"));
    }

    #[test]
    fn manifest_line_parses_and_orders_keys() {
        let line = demo_manifest().to_json_line();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["schema_version"], SCHEMA_VERSION.to_string());
        assert_eq!(obj["kind"], "\"manifest\"");
        assert_eq!(
            crate::json::top_level_keys(&line),
            vec![
                "schema_version",
                "kind",
                "tool",
                "dataset",
                "ordering",
                "algo",
                "threads",
                "window",
                "config_hash",
                "started_unix_secs",
            ]
        );
    }

    #[test]
    fn nan_seconds_serialise_as_null_and_still_parse() {
        let line = TraceEvent::Cell(CellEvent {
            dataset: "flickr".into(),
            ordering: "Gorder".into(),
            algo: "bfs".into(),
            status: "timeout".into(),
            seconds: f64::NAN,
            checksum: 0,
        })
        .to_json_line();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["seconds"], "null");
    }

    #[test]
    fn sink_writes_manifest_events_and_metrics() {
        let reg = Registry::new();
        reg.counter_add("gorder.increments", 10);
        reg.span_record("gorder.build", 0.5);
        reg.observe("edge_span", &[1.0, 8.0], 3.0);
        reg.gauge_set("locality.score", 0.9);

        let mut sink = TraceSink::new(Vec::new());
        sink.manifest(&demo_manifest()).unwrap();
        sink.event(&TraceEvent::Phase(PhaseEvent {
            name: "order".into(),
            seconds: 0.25,
        }))
        .unwrap();
        sink.metrics(&reg.snapshot()).unwrap();
        assert_eq!(sink.lines_written(), 6);

        let text = String::from_utf8(sink.into_inner()).unwrap();
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.lines, 6);
        assert_eq!(summary.by_kind["manifest"], 1);
        assert_eq!(summary.by_kind["phase"], 1);
        assert_eq!(summary.by_kind["counter"], 1);
        assert_eq!(summary.by_kind["gauge"], 1);
        assert_eq!(summary.by_kind["span"], 1);
        assert_eq!(summary.by_kind["histogram"], 1);
    }

    #[test]
    fn validate_rejects_bad_traces() {
        assert!(validate_jsonl("").is_err());
        let ev = TraceEvent::Phase(PhaseEvent {
            name: "x".into(),
            seconds: 1.0,
        });
        // First line not a manifest.
        assert!(validate_jsonl(&ev.to_json_line()).is_err());
        // Wrong schema version.
        let bad = demo_manifest().to_json_line().replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":999",
            1,
        );
        assert!(validate_jsonl(&bad).is_err());
        // Malformed JSON mid-file (the interrupted-write case).
        let good = demo_manifest().to_json_line();
        assert!(validate_jsonl(&format!("{good}\n{{\"kind\":\"cell\"")).is_err());
        // Missing kind.
        assert!(validate_jsonl(&format!("{good}\n{{\"a\":1}}")).is_err());
    }

    #[test]
    fn kernel_event_mirrors_stats_key_order() {
        let line = TraceEvent::Kernel(KernelEvent {
            algo: "pagerank".into(),
            ordering: "Gorder".into(),
            checksum: 7,
            seconds: 1.0,
            engine: "serial".into(),
            iterations: 3,
            edges_relaxed: 100,
            frontier_pushes: 0,
            frontier_peak: 0,
            init_secs: 0.1,
            compute_secs: 0.8,
            finish_secs: 0.1,
            threads_used: 1,
            thread_busy_secs: 0.9,
            degraded_serial: false,
        })
        .to_json_line();
        let keys = crate::json::top_level_keys(&line);
        assert_eq!(keys[0], "kind");
        // The remaining keys are exactly the --stats line's key set, in
        // the same order, so tooling can join the two surfaces.
        assert_eq!(
            &keys[1..],
            &[
                "algo",
                "ordering",
                "checksum",
                "seconds",
                "engine",
                "iterations",
                "edges_relaxed",
                "frontier_pushes",
                "frontier_peak",
                "init_secs",
                "compute_secs",
                "finish_secs",
                "threads_used",
                "thread_busy_secs",
                "degraded_serial",
            ]
        );
    }

    #[test]
    fn order_event_pins_key_order() {
        let line = TraceEvent::Order(OrderEvent {
            dataset: Some("epinion".into()),
            name: "Gorder".into(),
            params: "w=5".into(),
            seed: 42,
            graph_digest: 0xdead_beef,
            identity: "graph=deadbeef,order=Gorder,params=w=5,seed=42".into(),
            status: "ok".into(),
            seconds: 0.5,
            nodes_placed: 100,
            heap_increments: 10,
            heap_decrements: 8,
            heap_pops: 99,
            threads_used: 1,
            cache_hit: false,
        })
        .to_json_line();
        assert_eq!(
            crate::json::top_level_keys(&line),
            vec![
                "kind",
                "dataset",
                "name",
                "params",
                "seed",
                "graph_digest",
                "identity",
                "status",
                "seconds",
                "nodes_placed",
                "heap_increments",
                "heap_decrements",
                "heap_pops",
                "threads_used",
                "cache_hit",
            ]
        );
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["kind"], "\"order\"");
        assert_eq!(obj["cache_hit"], "false");
    }

    #[test]
    fn gate_event_pins_key_order() {
        let line = TraceEvent::Gate(GateEvent {
            mode: "sim".into(),
            dataset: "epinion".into(),
            ordering: "Gorder".into(),
            algo: "BFS".into(),
            checksum: 7,
            iterations: 3,
            edges_relaxed: 100,
            refs: 2048,
            level_misses: vec![128, 64, 32],
            mem_accesses: 32,
            ops: 4096,
            reuse_total: 1500,
            reuse_sum: 42_000.0,
            reuse_counts: vec![10, 20, 30],
            pairs: 0,
            speedup: 0.0,
            sign_p: 0.0,
            ci_lo: 0.0,
            ci_hi: 0.0,
        })
        .to_json_line();
        assert_eq!(
            crate::json::top_level_keys(&line),
            vec![
                "kind",
                "mode",
                "dataset",
                "ordering",
                "algo",
                "checksum",
                "iterations",
                "edges_relaxed",
                "refs",
                "level_misses",
                "mem_accesses",
                "ops",
                "reuse_total",
                "reuse_sum",
                "reuse_counts",
                "pairs",
                "speedup",
                "sign_p",
                "ci_lo",
                "ci_hi",
            ]
        );
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["kind"], "\"gate\"");
        assert_eq!(obj["level_misses"], "[128,64,32]");
        // The unused wall half serialises as zeros, never null — sim
        // byte-identity must be a pure function of the counters.
        assert_eq!(obj["speedup"], "0");
        assert_eq!(obj["pairs"], "0");
    }

    #[test]
    fn serve_event_pins_key_order() {
        let line = TraceEvent::Serve(ServeEvent {
            op: "run".into(),
            dataset: Some("epinion".into()),
            ordering: Some("Gorder".into()),
            algo: Some("BFS".into()),
            status: "ok".into(),
            tier: Some("cache".into()),
            degraded_serial: false,
            queue_secs: 0.001,
            seconds: 0.25,
            checksum: 7,
        })
        .to_json_line();
        assert_eq!(
            crate::json::top_level_keys(&line),
            vec![
                "kind",
                "op",
                "dataset",
                "ordering",
                "algo",
                "status",
                "tier",
                "degraded_serial",
                "queue_secs",
                "seconds",
                "checksum",
            ]
        );
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["kind"], "\"serve\"");
        assert_eq!(obj["tier"], "\"cache\"");
        // A shed response carries no tier: it must serialise as null,
        // still parseable by the strict grammar.
        let busy = TraceEvent::Serve(ServeEvent {
            op: "run".into(),
            dataset: Some("epinion".into()),
            ordering: None,
            algo: None,
            status: "busy".into(),
            tier: None,
            degraded_serial: false,
            queue_secs: 0.0,
            seconds: 0.0,
            checksum: 0,
        })
        .to_json_line();
        let obj = parse_object(&busy).unwrap();
        assert_eq!(obj["tier"], "null");
        assert_eq!(obj["status"], "\"busy\"");
    }

    #[test]
    fn row_event_roundtrips_cells_verbatim() {
        let cells = vec!["epinion".to_string(), "BFS".to_string(), "0.000124".into()];
        let line = TraceEvent::Row(RowEvent {
            table: "fig5.csv".into(),
            key: "epinion|BFS|Gorder".into(),
            cells: cells.clone(),
        })
        .to_json_line();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj["kind"], "\"row\"");
        assert_eq!(
            crate::json::parse_string_array(&obj["cells"]).unwrap(),
            cells
        );
        assert_eq!(
            crate::json::top_level_keys(&line),
            vec!["kind", "table", "key", "cells"]
        );
    }

    #[test]
    fn errors_name_line_and_byte_offset() {
        let good = demo_manifest().to_json_line();
        let text = format!("{good}\n{{\"kind\":\"cell\"\n");
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(
            err.contains(&format!("byte offset {}", good.len() + 1)),
            "{err}"
        );
    }

    #[test]
    fn lenient_accepts_exactly_one_torn_final_line() {
        let good = demo_manifest().to_json_line();
        let ev = TraceEvent::Phase(PhaseEvent {
            name: "x".into(),
            seconds: 1.0,
        })
        .to_json_line();
        // Torn final line without its newline: strict rejects, lenient
        // accepts and reports the truncation.
        let torn = format!("{good}\n{ev}\n{{\"kind\":\"ce");
        assert!(validate_jsonl(&torn).is_err());
        let summary = validate_jsonl_lenient(&torn).unwrap();
        assert!(summary.truncated_final_line);
        assert_eq!(summary.lines, 2, "the torn line is not counted");
        // A clean trace reports no truncation.
        let clean = format!("{good}\n{ev}\n");
        assert!(!validate_jsonl_lenient(&clean).unwrap().truncated_final_line);
        // A torn line that is NOT final stays an error (it was flushed
        // with a newline, so it cannot be a crash artifact).
        let mid = format!("{good}\n{{\"kind\":\"ce\n{ev}\n");
        assert!(validate_jsonl_lenient(&mid).is_err());
        // A torn manifest is never acceptable.
        let manifest_prefix = &good[..good.len() / 2];
        assert!(validate_jsonl_lenient(manifest_prefix).is_err());
    }
}
