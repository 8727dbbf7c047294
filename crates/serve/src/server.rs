//! The daemon: two bounded worker lanes, each behind its own admission
//! queue, serving ordering/kernel requests over pre-loaded datasets with
//! explicit degradation.
//!
//! A work request is routed to one lane at admission. The **build lane**
//! takes every request that may compute a permutation or relabel a
//! layout: `order`, and `run`/`simulate` whose ordering identity has no
//! resident layout. The **run lane** takes kernels over the original
//! graph or a resident layout, so a cached run (a few milliseconds) never
//! queues behind a reorder (tens to hundreds). Each lane has
//! `workers` threads and a `queue_cap` bound of its own. Routing only
//! peeks at the layout LRU; a layout evicted between routing and
//! processing is rebuilt on the run lane, so the lane never changes an
//! answer, only where it waits.
//!
//! Every work request is answered from exactly one **tier** of the
//! degradation ladder, named in the response:
//!
//! 1. `cache` — the relabelled layout came from the in-memory
//!    [`LayoutCache`], or the permutation came from the on-disk
//!    [`OrderCache`] or was shared from a concurrent caller's in-flight
//!    computation ([`SingleFlight`]);
//! 2. `full` — computed to completion within the request budget;
//! 3. `degraded` — the anytime ordering ran out of budget and returned
//!    its valid partial result;
//! 4. `original` — the ordering produced nothing usable (empty-handed
//!    timeout or failure), so the request was served over the identity
//!    ordering rather than failed.
//!
//! The request path copies no graph: each dataset is held as an
//! `Arc<Graph>` beside its content digest (computed once, at bind), runs
//! over the original labels borrow it, and relabelled layouts of
//! completed permutations are kept in a byte-bounded LRU, so only the
//! first `run`/`simulate` of an ordering identity relabels.
//!
//! Independently, each request runs under a per-request panic ladder
//! (mirroring the engine's): a panicking handler is retried once
//! serially and the response flagged `degraded_serial`; a second panic
//! becomes a structured `error` response. A request is therefore never
//! answered with a closed socket.
//!
//! Drain (SIGTERM or a `shutdown` request) stops the listener and the
//! admission queue immediately, lets workers run the accepted backlog
//! down (cancelling still-running budgets when the grace period
//! expires), flushes the trace, and only then returns — zero accepted
//! requests are dropped.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gorder_cli::{
    resolve_ordering_with_budget, run_algorithm_budgeted, simulate_algorithm_budgeted, CliError,
    ResolvedOrdering,
};
use gorder_core::budget::Budget;
use gorder_engine::parallel::{panic_message, run_tasks_outcomes};
use gorder_graph::datasets;
use gorder_graph::{Graph, Permutation};
use gorder_obs::{faults, ServeEvent, TraceEvent, TraceSink};
use gorder_orders::{
    graph_digest, Admission, CacheKey, LayoutCache, OrderCache, OrderingAlgorithm, SingleFlight,
};

use crate::admission::{Queue, Refused};
use crate::protocol::{
    busy_response, error_response, ok_response, parse_request, FrameError, FrameReader, Request,
    WorkSpec,
};

/// Latency histogram bucket bounds (seconds) — fixed, part of the
/// metric's identity.
pub const LATENCY_BOUNDS: [f64; 5] = [0.001, 0.01, 0.1, 1.0, 10.0];

/// Everything that shapes a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads per lane (bounded concurrency).
    pub workers: usize,
    /// Admission queue depth cap per lane; beyond it requests are shed.
    pub queue_cap: usize,
    /// Dataset scale factor for the pre-loaded graphs.
    pub scale: f64,
    /// Dataset names to pre-load; empty loads the full zoo.
    pub datasets: Vec<String>,
    /// Default per-request deadline when the request names none.
    pub default_timeout: Option<Duration>,
    /// How long in-flight work may keep running after drain starts
    /// before its budgets are cancelled.
    pub drain_grace: Duration,
    /// The `retry_after_ms` hint sent with `busy` responses.
    pub retry_after_ms: u64,
    /// Trace file path (JSONL, schema v5); `None` disables tracing.
    pub trace_path: Option<PathBuf>,
    /// On-disk permutation cache directory; `None` disables the cache
    /// tier's persistence (single-flight sharing still applies).
    pub cache_dir: Option<PathBuf>,
    /// Byte bound of the in-memory LRU of relabelled layouts; `None`
    /// means the sum of the loaded datasets' `memory_bytes`, and 0
    /// disables it.
    pub layout_cache_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            scale: 0.05,
            datasets: Vec::new(),
            default_timeout: Some(Duration::from_secs(30)),
            drain_grace: Duration::from_secs(5),
            retry_after_ms: 50,
            trace_path: None,
            cache_dir: None,
            layout_cache_bytes: None,
        }
    }
}

/// Totals the drain returns — the accounting the zero-loss test checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Work requests admitted to the queue.
    pub accepted: u64,
    /// Responses sent for admitted requests.
    pub answered: u64,
    /// Requests shed with `busy`.
    pub shed: u64,
    /// Structured `error` responses (parse failures, unknown names,
    /// draining refusals, double panics).
    pub errors: u64,
}

/// Registry counters of the layout LRU, shown by the `stats` op.
const LAYOUT_HITS: &str = "serve.layout.hits";
const LAYOUT_MISSES: &str = "serve.layout.misses";
const LAYOUT_EVICTIONS: &str = "serve.layout.evictions";
/// Registry gauge of the layout LRU's resident bytes.
const LAYOUT_RESIDENT: &str = "serve.layout.resident_bytes";

/// One admission queue and the worker threads that drain it, with the
/// registry names under which `stats` shows it.
struct Lane {
    queue: Queue<Job>,
    /// Gauge of the queue's backlog.
    depth_gauge: &'static str,
    /// Counter of the jobs the lane admitted.
    jobs_counter: &'static str,
}

impl Lane {
    fn new(cap: usize, depth_gauge: &'static str, jobs_counter: &'static str) -> Lane {
        // Registered at zero so `stats` lists them before the first request.
        gorder_obs::global().counter_add(jobs_counter, 0);
        gorder_obs::global().gauge_set(depth_gauge, 0.0);
        Lane {
            queue: Queue::new(cap),
            depth_gauge,
            jobs_counter,
        }
    }

    fn publish_depth(&self, depth: usize) {
        gorder_obs::global().gauge_set(self.depth_gauge, depth as f64);
    }
}

/// A pre-loaded dataset: the graph, shared by every request over its
/// original labels, and its [`graph_digest`], computed once at bind so
/// no request hashes the graph.
struct Dataset {
    graph: Arc<Graph>,
    digest: u64,
}

/// Outcome of one ordering resolution, shareable across a single-flight
/// group (hence `Clone`, and failure carried as data, not `CliError`).
#[derive(Clone)]
enum OrderOutcome {
    Ready {
        perm: Permutation,
        degraded: bool,
        cache_hit: bool,
        /// The relabelled layout, when the leader needed one and its
        /// permutation was complete.
        layout: Option<Arc<Graph>>,
    },
    TimedOut,
    Failed(String),
}

struct Job {
    spec: WorkSpec,
    op: &'static str,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

/// A bound, loaded, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    datasets: HashMap<String, Dataset>,
    cache: Option<OrderCache>,
    layouts: LayoutCache,
    flights: SingleFlight<OrderOutcome>,
    /// Kernels over the original graph or a resident layout.
    run_lane: Lane,
    /// Everything that may compute a permutation or relabel a layout.
    build_lane: Lane,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    active: Mutex<Vec<(u64, Budget)>>,
    next_budget_id: AtomicU64,
    trace: Mutex<Option<TraceSink<BufWriter<std::fs::File>>>>,
    accepted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

impl Server {
    /// Binds the listener, pre-loads the datasets, opens cache and trace.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let names: Vec<String> = if cfg.datasets.is_empty() {
            datasets::all().iter().map(|d| d.name.to_string()).collect()
        } else {
            cfg.datasets.clone()
        };
        let mut loaded = HashMap::new();
        for name in &names {
            let d = datasets::by_name(name).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "unknown dataset {name:?}; known: {:?}",
                        datasets::all().iter().map(|d| d.name).collect::<Vec<_>>()
                    ),
                )
            })?;
            let graph = d.build(cfg.scale);
            let digest = graph_digest(&graph);
            loaded.insert(
                name.clone(),
                Dataset {
                    graph: Arc::new(graph),
                    digest,
                },
            );
        }
        let layout_bound = cfg
            .layout_cache_bytes
            .unwrap_or_else(|| loaded.values().map(|d| d.graph.memory_bytes() as u64).sum());
        // Registered at zero so `stats` lists them before the first request.
        for counter in [LAYOUT_HITS, LAYOUT_MISSES, LAYOUT_EVICTIONS] {
            gorder_obs::global().counter_add(counter, 0);
        }
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(OrderCache::new(dir)?),
            None => None,
        };
        let trace = match &cfg.trace_path {
            Some(path) => {
                let mut sink = TraceSink::create(path)?;
                let mut manifest = gorder_obs::RunManifest::new(
                    "gorder-serve",
                    &format!(
                        "workers={},queue_cap={},scale={},datasets={}",
                        cfg.workers,
                        cfg.queue_cap,
                        cfg.scale,
                        names.join("+")
                    ),
                );
                manifest.threads = 2 * cfg.workers as u64;
                sink.manifest(&manifest)?;
                Some(sink)
            }
            None => None,
        };
        let queue_cap = cfg.queue_cap;
        Ok(Server {
            listener,
            cfg,
            datasets: loaded,
            cache,
            layouts: LayoutCache::new(layout_bound),
            flights: SingleFlight::new(),
            run_lane: Lane::new(queue_cap, "serve.queue_depth", "serve.jobs.run"),
            build_lane: Lane::new(queue_cap, "serve.build_queue_depth", "serve.jobs.build"),
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            active: Mutex::new(Vec::new()),
            next_budget_id: AtomicU64::new(0),
            trace: Mutex::new(trace),
            accepted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` is set (SIGTERM handler) or a `shutdown`
    /// request arrives, then drains and returns the accounting.
    pub fn run(&self, shutdown: &AtomicBool) -> std::io::Result<DrainSummary> {
        let workers_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Accept loop: non-blocking listener polled against drain.
            s.spawn(|| loop {
                if self.draining() || shutdown.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(e) = faults::io_read_error("serve.accept") {
                    gorder_obs::global().counter_add("serve.accept_errors", 1);
                    eprintln!("warning: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        s.spawn(move || self.connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => {
                        gorder_obs::global().counter_add("serve.accept_errors", 1);
                        eprintln!("warning: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            });

            // Drain coordinator: notices the shutdown flag, closes
            // admission, and cancels overstaying budgets at the grace
            // deadline.
            s.spawn(|| {
                while !(self.draining() || shutdown.load(Ordering::Relaxed)) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                self.begin_drain();
                let deadline = self
                    .drain_deadline
                    .lock()
                    .expect("drain deadline lock")
                    .expect("set by begin_drain");
                while !workers_done.load(Ordering::Acquire) {
                    if Instant::now() >= deadline {
                        for (_, b) in self.active.lock().expect("active budgets lock").iter() {
                            b.cancel();
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });

            // Both lanes' workers: bounded concurrency on the engine's
            // panic-isolated task runner.
            let workers = self.cfg.workers.max(1);
            let outcomes = run_tasks_outcomes(
                [&self.run_lane, &self.build_lane]
                    .into_iter()
                    .flat_map(|lane| std::iter::repeat_n(lane, workers))
                    .map(|lane| {
                        move || {
                            while let Some(job) = lane.queue.pop() {
                                let resp = self.handle_job(lane, &job);
                                self.answered.fetch_add(1, Ordering::Relaxed);
                                let _ = job.reply.send(resp);
                            }
                        }
                    })
                    .collect(),
            );
            workers_done.store(true, Ordering::Release);
            for o in outcomes {
                if let gorder_engine::parallel::TaskOutcome::Panicked(msg) = o {
                    // Can only happen if the per-request ladder itself
                    // panicked — count it; connections see a dropped
                    // sender and answer with a structured error.
                    gorder_obs::global().counter_add("serve.worker_pool_panics", 1);
                    eprintln!("warning: worker loop panicked: {msg}");
                }
            }
        });
        self.flush_trace();
        Ok(self.summary())
    }

    /// The accounting so far (final once `run` returned).
    pub fn summary(&self) -> DrainSummary {
        DrainSummary {
            accepted: self.accepted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Idempotently flips into drain mode: no new connections, no new
    /// admissions, grace clock started.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.drain_deadline.lock().expect("drain deadline lock") =
            Some(Instant::now() + self.cfg.drain_grace);
        self.run_lane.queue.close();
        self.build_lane.queue.close();
    }

    /// One connection: read frames until EOF or drain, answer each with
    /// exactly one line.
    fn connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut reader = FrameReader::new(BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        }));
        let mut writer = BufWriter::new(stream);
        loop {
            let line = match reader.next_frame() {
                Ok(line) => line,
                Err(FrameError::Eof) => return,
                Err(FrameError::TooLong) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    gorder_obs::global().counter_add("serve.errors", 1);
                    let resp = error_response(
                        "unknown",
                        &format!("request exceeds {} bytes", crate::protocol::MAX_FRAME_BYTES),
                    );
                    if write_line(&mut writer, &resp).is_err() {
                        return;
                    }
                    continue;
                }
                Err(FrameError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.draining() {
                        return; // idle connection at drain: close
                    }
                    continue;
                }
                Err(FrameError::Io(_)) => return,
            };
            if let Some(e) = faults::io_read_error("serve.request") {
                self.errors.fetch_add(1, Ordering::Relaxed);
                gorder_obs::global().counter_add("serve.errors", 1);
                let resp = error_response("unknown", &format!("read failed: {e}"));
                if write_line(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            let resp = self.dispatch(&line);
            if write_line(&mut writer, &resp).is_err() {
                return;
            }
        }
    }

    /// Parses one frame and produces its one response line, queueing
    /// work ops and answering control ops inline (so `health` keeps
    /// working under full load).
    fn dispatch(&self, line: &str) -> String {
        gorder_obs::global().counter_add("serve.requests", 1);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                gorder_obs::global().counter_add("serve.errors", 1);
                self.trace_serve(control_event("unknown", "error", 0.0));
                return error_response("unknown", &e);
            }
        };
        let op = req.op();
        match req {
            Request::Health => {
                let report = format!(
                    "ok: {} datasets, run queue {}/{}, build queue {}/{}, draining={}",
                    self.datasets.len(),
                    self.run_lane.queue.depth(),
                    self.cfg.queue_cap,
                    self.build_lane.queue.depth(),
                    self.cfg.queue_cap,
                    self.draining()
                );
                self.trace_serve(control_event(op, "ok", 0.0));
                ok_response(op, None, false, None, &report, 0.0)
            }
            Request::Stats => {
                self.publish_layout_gauge();
                let snap = gorder_obs::global().snapshot();
                let counters = snap
                    .counters
                    .iter()
                    .filter(|(name, _)| {
                        name.starts_with("serve.") || name.starts_with("faults.fired.serve")
                    })
                    .map(|(name, v)| format!("{name}={v}"));
                let gauges = snap
                    .gauges
                    .iter()
                    .filter(|(name, _)| name.starts_with("serve."))
                    .map(|(name, v)| format!("{name}={v}"));
                let mut parts: Vec<String> = counters.chain(gauges).collect();
                parts.sort();
                self.trace_serve(control_event(op, "ok", 0.0));
                ok_response(op, None, false, None, &parts.join(" "), 0.0)
            }
            Request::Shutdown => {
                self.trace_serve(control_event(op, "ok", 0.0));
                let resp = ok_response(op, None, false, None, "draining", 0.0);
                self.begin_drain();
                resp
            }
            Request::Order(spec) | Request::Run(spec) | Request::Simulate(spec) => {
                if self.draining() {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    gorder_obs::global().counter_add("serve.errors", 1);
                    self.trace_serve(control_event(op, "error", 0.0));
                    return error_response(op, "server is draining");
                }
                let lane = self.lane_for(op, &spec);
                let (tx, rx) = mpsc::channel();
                let job = Job {
                    spec,
                    op,
                    enqueued: Instant::now(),
                    reply: tx,
                };
                match lane.queue.try_enqueue(job) {
                    Ok(depth) => {
                        self.accepted.fetch_add(1, Ordering::Relaxed);
                        gorder_obs::global().counter_add(lane.jobs_counter, 1);
                        lane.publish_depth(depth);
                        match rx.recv() {
                            Ok(resp) => resp,
                            Err(_) => {
                                // Worker pool died mid-request — still
                                // answer structurally.
                                self.errors.fetch_add(1, Ordering::Relaxed);
                                error_response(op, "internal: worker pool unavailable")
                            }
                        }
                    }
                    Err(Refused::Full) => {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        gorder_obs::global().counter_add("serve.shed", 1);
                        self.trace_serve(control_event(op, "busy", 0.0));
                        busy_response(op, self.cfg.retry_after_ms)
                    }
                    Err(Refused::Closed) => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        gorder_obs::global().counter_add("serve.errors", 1);
                        self.trace_serve(control_event(op, "error", 0.0));
                        error_response(op, "server is draining")
                    }
                }
            }
        }
    }

    /// The lane a work request waits in: the build lane for `order` and
    /// for runs whose ordering identity has no resident layout, the run
    /// lane otherwise. Unknown names go to the run lane, which rejects
    /// them at once, and so does a request whose ordering panics on
    /// construction (e.g. Gorder with window 0), which the run lane's
    /// panic ladder answers. The layout peek counts no hit or miss;
    /// `process` makes the one counted lookup.
    fn lane_for(&self, op: &str, spec: &WorkSpec) -> &Lane {
        if op == "order" {
            return &self.build_lane;
        }
        let resident = catch_unwind(AssertUnwindSafe(|| {
            match self.dataset(spec).and_then(|ds| ordering_key(ds, spec)) {
                Ok(Some((_, key))) => self.layouts.contains(&key.identity()),
                Ok(None) | Err(_) => true,
            }
        }))
        .unwrap_or(true);
        if resident {
            &self.run_lane
        } else {
            &self.build_lane
        }
    }

    /// The per-request panic ladder: normal attempt → serial retry
    /// flagged `degraded_serial` → structured error.
    fn handle_job(&self, lane: &Lane, job: &Job) -> String {
        let queue_secs = job.enqueued.elapsed().as_secs_f64();
        lane.publish_depth(lane.queue.depth());
        let t = Instant::now();
        // Inside the timed span: an injected slow handler is service time.
        faults::slow_cell("serve.slow");
        let first = catch_unwind(AssertUnwindSafe(|| {
            faults::worker_panic("serve.worker");
            self.process(job.op, &job.spec, job.spec.threads, false)
        }));
        let (outcome, degraded_serial) = match first {
            Ok(r) => (r, false),
            Err(payload) => {
                gorder_obs::global().counter_add("serve.request_panics", 1);
                let msg = panic_message(payload.as_ref());
                eprintln!("warning: request handler panicked ({msg}); retrying serially");
                let second = catch_unwind(AssertUnwindSafe(|| {
                    faults::worker_panic("serve.worker");
                    self.process(job.op, &job.spec, 1, true)
                }));
                match second {
                    Ok(r) => (r, true),
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        (Err(format!("request panicked twice: {msg}")), true)
                    }
                }
            }
        };
        let seconds = t.elapsed().as_secs_f64();
        gorder_obs::global().observe("serve.latency_secs", &LATENCY_BOUNDS, seconds);
        let (status, tier, report, checksum) = match &outcome {
            Ok(done) => ("ok", Some(done.tier), done.report.clone(), done.checksum),
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                gorder_obs::global().counter_add("serve.errors", 1);
                ("error", None, e.clone(), 0)
            }
        };
        if let Some(tier) = tier {
            gorder_obs::global().counter_add(&format!("serve.tier.{tier}"), 1);
        }
        self.trace_serve(ServeEvent {
            op: job.op.to_string(),
            dataset: Some(job.spec.dataset.clone()),
            ordering: job.spec.ordering.clone(),
            algo: job.spec.algo.clone(),
            status: status.to_string(),
            tier: tier.map(str::to_string),
            degraded_serial,
            queue_secs,
            seconds,
            checksum,
        });
        match outcome {
            Ok(done) => ok_response(
                job.op,
                Some(done.tier),
                degraded_serial,
                Some(done.checksum),
                &report,
                seconds,
            ),
            Err(e) => error_response(job.op, &e),
        }
    }

    /// Executes one work op at a given thread count; `Err` is the
    /// structured-error text.
    fn process(
        &self,
        op: &str,
        spec: &WorkSpec,
        threads: u32,
        serial_retry: bool,
    ) -> Result<Processed, String> {
        let ds = self.dataset(spec)?;
        let threads = if serial_retry { 1 } else { threads };
        let (Some(name), Some((o, key))) = (&spec.ordering, ordering_key(ds, spec)?) else {
            return self.execute(op, spec, &ds.graph, "full", threads);
        };
        let identity = key.identity();
        let wants_layout = op != "order";
        if wants_layout {
            if let Some(layout) = self.cached_layout(&identity) {
                return self.execute(op, spec, &layout, "cache", threads);
            }
        }

        // Walk the tier ladder for the permutation.
        let (outcome, shared) =
            self.resolve_order(ds, o.as_ref(), &key, &identity, spec, wants_layout)?;
        match outcome {
            OrderOutcome::Ready {
                perm,
                degraded,
                cache_hit,
                layout,
            } => {
                let tier = if shared || cache_hit {
                    "cache"
                } else if degraded {
                    "degraded"
                } else {
                    "full"
                };
                if !wants_layout {
                    return Ok(Processed {
                        tier,
                        checksum: perm_checksum(&perm),
                        report: format!(
                            "ordered {} with {}: {} nodes (tier {tier})",
                            spec.dataset,
                            name,
                            perm.len()
                        ),
                    });
                }
                let layout = layout
                    .unwrap_or_else(|| self.build_layout(&ds.graph, &perm, &identity, !degraded));
                self.execute(op, spec, &layout, tier, threads)
            }
            OrderOutcome::TimedOut | OrderOutcome::Failed(_) => {
                // Bottom of the ladder: serve over the original order
                // rather than failing the request.
                if let OrderOutcome::Failed(msg) = &outcome {
                    eprintln!("warning: ordering {name} failed ({msg}); serving original");
                }
                if !wants_layout {
                    let perm = Permutation::identity(ds.graph.n());
                    return Ok(Processed {
                        tier: "original",
                        checksum: perm_checksum(&perm),
                        report: format!(
                            "ordering {} exhausted its budget; identity permutation \
                             for {} (tier original)",
                            name, spec.dataset
                        ),
                    });
                }
                self.execute(op, spec, &ds.graph, "original", threads)
            }
        }
    }

    /// Runs the `run`/`simulate` kernel over `g`, already in the layout
    /// that `tier` of the ladder produced.
    fn execute(
        &self,
        op: &str,
        spec: &WorkSpec,
        g: &Graph,
        tier: &'static str,
        threads: u32,
    ) -> Result<Processed, String> {
        let algo = spec.algo.as_deref().expect("work ops validated algo");
        let out = match op {
            "run" => run_algorithm_budgeted(g, algo, None, spec.window, spec.seed, None, threads),
            "simulate" => simulate_algorithm_budgeted(g, algo, None, spec.window, spec.seed, None),
            other => unreachable!("op {other} dispatched as work"),
        }
        .map_err(|e| match e {
            CliError::Usage(msg) => msg,
            other => other.to_string(),
        })?;
        // The inner runner saw an already-relabelled graph (ordering was
        // resolved through the tier ladder), so its note claims
        // "original order"; name the ordering that actually produced the
        // labels instead.
        let report = match &spec.ordering {
            Some(name) if tier != "original" => {
                out.report
                    .replacen("over original order", &format!("over {name} order"), 1)
            }
            _ => out.report,
        };
        for ev in &out.trace_events {
            self.trace_event(ev.clone());
        }
        Ok(Processed {
            tier,
            checksum: out.checksum,
            report,
        })
    }

    /// The LRU's layout for `identity`, counting the lookup.
    fn cached_layout(&self, identity: &str) -> Option<Arc<Graph>> {
        let hit = self.layouts.get(identity);
        let counter = if hit.is_some() {
            LAYOUT_HITS
        } else {
            LAYOUT_MISSES
        };
        gorder_obs::global().counter_add(counter, 1);
        hit
    }

    /// Relabels `g` under `perm`. With `admit` — the permutation is
    /// complete, not a degraded partial result — the layout is offered
    /// to the LRU.
    fn build_layout(
        &self,
        g: &Graph,
        perm: &Permutation,
        identity: &str,
        admit: bool,
    ) -> Arc<Graph> {
        let layout = Arc::new(g.relabel(perm));
        if admit {
            if let Admission::Admitted { evicted } =
                self.layouts.insert(identity, Arc::clone(&layout))
            {
                gorder_obs::global().counter_add(LAYOUT_EVICTIONS, evicted);
            }
        }
        layout
    }

    /// Refreshes the resident-bytes gauge; the registry's readers (the
    /// `stats` op and the trace flush) call this first.
    fn publish_layout_gauge(&self) {
        let resident = self.layouts.stats().resident_bytes;
        gorder_obs::global().gauge_set(LAYOUT_RESIDENT, resident as f64);
    }

    /// Resolves ordering `o` of dataset `ds` (keyed `key`) through the
    /// full tier ladder under a cancellable budget, with single-flight
    /// sharing of concurrent identical resolutions. With `wants_layout`
    /// the leader also builds (and offers) the relabelled layout inside
    /// the flight, so concurrent runs of one identity relabel once.
    /// Returns the outcome plus whether it was shared from another
    /// caller's flight.
    fn resolve_order(
        &self,
        ds: &Dataset,
        o: &dyn OrderingAlgorithm,
        key: &CacheKey,
        identity: &str,
        spec: &WorkSpec,
        wants_layout: bool,
    ) -> Result<(OrderOutcome, bool), String> {
        let budget = self.request_budget(spec);
        let budget_id = self.next_budget_id.fetch_add(1, Ordering::Relaxed);
        self.active
            .lock()
            .expect("active budgets lock")
            .push((budget_id, budget.clone()));
        let result = self.flights.run(identity, || {
            match resolve_ordering_with_budget(
                &ds.graph,
                o,
                key,
                &budget,
                self.cache.as_ref(),
                Some(&spec.dataset),
            ) {
                Ok(ResolvedOrdering {
                    perm,
                    degraded,
                    event,
                }) => {
                    let cache_hit = event.cache_hit;
                    self.trace_event(TraceEvent::Order(event));
                    let degraded = degraded.is_some();
                    let layout = (wants_layout && !degraded)
                        .then(|| self.build_layout(&ds.graph, &perm, identity, true));
                    OrderOutcome::Ready {
                        perm,
                        degraded,
                        cache_hit,
                        layout,
                    }
                }
                Err(CliError::TimedOut) => OrderOutcome::TimedOut,
                Err(e) => OrderOutcome::Failed(e.to_string()),
            }
        });
        self.active
            .lock()
            .expect("active budgets lock")
            .retain(|(id, _)| *id != budget_id);
        match result {
            gorder_orders::FlightResult::Led(outcome) => Ok((outcome, false)),
            gorder_orders::FlightResult::Shared(outcome) => Ok((outcome, true)),
            gorder_orders::FlightResult::LeaderPanicked => {
                Err("concurrent ordering computation panicked".to_string())
            }
        }
    }

    /// The request's budget: its own `timeout_ms` (or the server
    /// default), tightened by the drain deadline when draining.
    fn request_budget(&self, spec: &WorkSpec) -> Budget {
        let mut b = Budget::unlimited();
        let timeout = spec
            .timeout_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_timeout);
        if let Some(t) = timeout {
            b = b.with_timeout(t);
        }
        if let Some(deadline) = *self.drain_deadline.lock().expect("drain deadline lock") {
            b = b.with_earlier_deadline(deadline);
        }
        b
    }

    /// The loaded dataset `spec` names.
    fn dataset(&self, spec: &WorkSpec) -> Result<&Dataset, String> {
        self.datasets.get(&spec.dataset).ok_or_else(|| {
            let mut names: Vec<&str> = self.datasets.keys().map(String::as_str).collect();
            names.sort_unstable();
            format!("unknown dataset {:?}; loaded: {names:?}", spec.dataset)
        })
    }

    fn trace_serve(&self, event: ServeEvent) {
        self.trace_event(TraceEvent::Serve(event));
    }

    fn trace_event(&self, event: TraceEvent) {
        if let Some(sink) = self.trace.lock().expect("trace lock").as_mut() {
            if let Err(e) = sink.event(&event) {
                eprintln!("warning: trace write failed: {e}");
            }
        }
    }

    fn flush_trace(&self) {
        self.publish_layout_gauge();
        if let Some(sink) = self.trace.lock().expect("trace lock").as_mut() {
            if let Err(e) = sink.metrics(&gorder_obs::global().snapshot()) {
                eprintln!("warning: trace metrics flush failed: {e}");
            }
        }
    }
}

/// An ordering a request names, with its cache key over the dataset.
type KeyedOrdering = (Box<dyn OrderingAlgorithm>, CacheKey);

/// The ordering `spec` names over `ds`, and its cache key; `None` when
/// it names no ordering.
fn ordering_key(ds: &Dataset, spec: &WorkSpec) -> Result<Option<KeyedOrdering>, String> {
    let Some(name) = &spec.ordering else {
        return Ok(None);
    };
    let o = gorder_cli::ordering_by_name(name, spec.window, spec.seed).ok_or_else(|| {
        format!(
            "unknown ordering {name:?}; known: {:?}",
            gorder_cli::ordering_names()
        )
    })?;
    let key = CacheKey::with_digest(ds.digest, o.as_ref(), spec.seed);
    Ok(Some((o, key)))
}

struct Processed {
    tier: &'static str,
    checksum: u64,
    report: String,
}

/// A `serve` trace record for a request that never reached a worker
/// (control op, parse failure, shed, drain refusal).
fn control_event(op: &str, status: &str, seconds: f64) -> ServeEvent {
    ServeEvent {
        op: op.to_string(),
        dataset: None,
        ordering: None,
        algo: None,
        status: status.to_string(),
        tier: None,
        degraded_serial: false,
        queue_secs: 0.0,
        seconds,
        checksum: 0,
    }
}

fn perm_checksum(perm: &Permutation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in perm.as_slice() {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn write_line<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}
