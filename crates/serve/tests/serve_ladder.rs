//! End-to-end ladder tests: a real `Server` on an ephemeral port, driven
//! by raw sockets and by the retrying `gorder-cli remote` client.
//!
//! The fault plan is process-global (`gorder_obs::faults`), so every
//! test takes [`fault_lock`] — including the ones that arm nothing —
//! and disarms on drop.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gorder_cli::remote::{call, RemoteError, RemoteRequest, RetryPolicy};
use gorder_serve::server::{DrainSummary, Server, ServerConfig};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests (shared global fault plan + registry) and guarantees
/// a clean plan on entry and exit.
fn fault_lock() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gorder_obs::faults::disarm();
    guard
}

struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        gorder_obs::faults::disarm();
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small, fast server config: one dataset at a tiny scale.
fn test_config() -> ServerConfig {
    ServerConfig {
        datasets: vec!["wiki".to_string()],
        scale: 0.02,
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

struct Running {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<DrainSummary>>,
}

impl Running {
    fn start(cfg: ServerConfig) -> Running {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&flag));
        Running {
            addr,
            shutdown,
            handle,
        }
    }

    fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// SIGTERM-equivalent: flip the flag the signal handler would set.
    fn sigterm(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn join(self) -> DrainSummary {
        self.handle.join().expect("server thread").expect("run")
    }
}

/// One raw request/response exchange, no retries: returns the response
/// line (empty string if the server closed without replying).
fn raw_request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut w = &stream;
    w.write_all(line.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    let mut reply = String::new();
    let _ = BufReader::new(&stream).read_line(&mut reply);
    reply.trim_end().to_string()
}

fn work_request(op: &str, ordering: Option<&str>, algo: Option<&str>) -> RemoteRequest {
    RemoteRequest {
        op: op.to_string(),
        dataset: Some("wiki".to_string()),
        ordering: ordering.map(str::to_string),
        algo: algo.map(str::to_string),
        window: 5,
        seed: 0,
        timeout_ms: None,
        threads: 1,
    }
}

#[test]
fn ladder_serves_tiers_and_drains_into_a_valid_trace() {
    let _guard = fault_lock();
    let dir = tmpdir("ladder");
    let trace = dir.join("trace.jsonl");
    let mut cfg = test_config();
    cfg.trace_path = Some(trace.clone());
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();

    // Control tier: health answers inline even before any work.
    let health = call(&addr, &RemoteRequest::control("health"), &policy).unwrap();
    assert_eq!(health.status, "ok");
    assert!(health.report.contains("1 datasets"), "{}", health.report);

    // Full tier: first computation of this identity.
    let first = call(&addr, &work_request("order", Some("Gorder"), None), &policy).unwrap();
    assert_eq!(first.tier.as_deref(), Some("full"));
    assert!(!first.degraded_serial);

    // Cache tier: the same identity again hits the on-disk cache.
    let second = call(&addr, &work_request("order", Some("Gorder"), None), &policy).unwrap();
    assert_eq!(second.tier.as_deref(), Some("cache"));
    let body = |r: &str| r.split(" (tier").next().unwrap().to_string();
    assert_eq!(
        body(&second.report),
        body(&first.report),
        "same permutation either way"
    );

    // Kernels run over the relabeled graph; the Gorder permutation is
    // already warm from the order requests above, so its tier is cache.
    let run = call(
        &addr,
        &work_request("run", Some("Gorder"), Some("PR")),
        &policy,
    )
    .unwrap();
    assert_eq!(run.tier.as_deref(), Some("cache"));
    assert!(run.report.contains("checksum"), "{}", run.report);
    let sim = call(&addr, &work_request("simulate", None, Some("BFS")), &policy).unwrap();
    assert_eq!(sim.tier.as_deref(), Some("full"));

    // Deterministic server error, never retried by the client.
    match call(&addr, &work_request("run", None, Some("NopeAlgo")), &policy) {
        Err(RemoteError::Server(msg)) => assert!(msg.contains("NopeAlgo"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }

    // Shutdown request: ok reply, then a zero-loss drain.
    let bye = call(&addr, &RemoteRequest::control("shutdown"), &policy).unwrap();
    assert_eq!(bye.status, "ok");
    let summary = server.join();
    assert_eq!(
        summary.accepted, summary.answered,
        "every accepted request was answered: {summary:?}"
    );

    // The flushed trace passes strict validation...
    let verdict = gorder_cli::validate_trace_file(&trace, false).expect("trace validates");
    assert!(
        verdict.contains("serve"),
        "serve records present: {verdict}"
    );

    // ...and serve records keep the golden key order.
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_keys.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let serve_keys: Vec<String> = golden
        .lines()
        .find_map(|l| l.strip_prefix("serve: "))
        .expect("golden file pins the serve record")
        .split(',')
        .map(str::to_string)
        .collect();
    let body = std::fs::read_to_string(&trace).unwrap();
    let mut seen = 0;
    for line in body.lines().filter(|l| l.contains("\"kind\":\"serve\"")) {
        assert_eq!(
            gorder_obs::json::top_level_keys(line),
            serve_keys,
            "serve record key order matches the golden schema"
        );
        seen += 1;
    }
    assert!(seen >= 5, "all serve ops traced, saw {seen}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_sheds_with_retry_hint_and_retrying_client_wins() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // One slow worker, queue depth one: concurrent requests must shed.
    gorder_obs::faults::arm_from_spec("serve.slow=1+,slow_ms=200").unwrap();
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.queue_cap = 1;
    cfg.retry_after_ms = 25;
    let server = Running::start(cfg);
    let addr = server.addr();

    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Original\"}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"busy\""))
        .count();
    let ok = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .count();
    assert!(busy > 0, "saturation sheds: {replies:?}");
    assert!(ok > 0, "but admitted work completes: {replies:?}");
    assert!(
        replies
            .iter()
            .filter(|r| r.contains("busy"))
            .all(|r| r.contains("\"retry_after_ms\":25")),
        "busy carries the configured hint: {replies:?}"
    );

    // The retrying client rides out the same saturation.
    let patient = RetryPolicy {
        attempts: 20,
        base_ms: 40,
        budget_ms: 20_000,
        seed: 1,
    };
    let won = call(
        &addr,
        &work_request("order", Some("Original"), None),
        &patient,
    )
    .unwrap();
    assert_eq!(won.status, "ok");

    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
    assert_eq!(summary.shed, busy as u64, "shed accounting matches");
}

#[test]
fn worker_panic_falls_back_to_serial_then_to_structured_error() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // Fire on the first attempt only: the serial retry must succeed.
    gorder_obs::faults::arm_from_spec("serve.worker=1").unwrap();
    let server = Running::start(test_config());
    let addr = server.addr();
    let policy = RetryPolicy::default();

    let degraded = call(&addr, &work_request("order", Some("RCM"), None), &policy).unwrap();
    assert_eq!(degraded.status, "ok");
    assert!(
        degraded.degraded_serial,
        "first attempt panicked, serial retry answered: {degraded:?}"
    );

    // Same request again: the plan is spent, both attempts are clean.
    let clean = call(&addr, &work_request("order", Some("RCM"), None), &policy).unwrap();
    assert!(!clean.degraded_serial, "{clean:?}");

    // Now panic on every attempt: the ladder ends in a structured error.
    gorder_obs::faults::disarm();
    gorder_obs::faults::arm_from_spec("serve.worker=1+").unwrap();
    match call(&addr, &work_request("order", Some("RCM"), None), &policy) {
        Err(RemoteError::Server(msg)) => {
            assert!(msg.contains("panicked twice"), "{msg}");
        }
        other => panic!("expected structured panic error, got {other:?}"),
    }

    gorder_obs::faults::disarm();
    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
}

#[test]
fn sigterm_mid_flight_drains_without_losing_accepted_requests() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    // Slow the handler so requests are still in flight at SIGTERM.
    gorder_obs::faults::arm_from_spec("serve.slow=1+,slow_ms=150").unwrap();
    let mut cfg = test_config();
    cfg.workers = 2;
    cfg.queue_cap = 8;
    let server = Running::start(cfg);
    let addr = server.addr();

    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Original\"}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..5)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        // Let the requests land, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(60));
        server.sigterm();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(
            r.contains("\"status\":"),
            "every in-flight client still got a structured reply: {r:?}"
        );
    }
    let summary = server.join();
    assert_eq!(
        summary.accepted, summary.answered,
        "drain answered everything it accepted: {summary:?}"
    );
}

/// Waits until the registry counter `name` exceeds `base`.
fn await_counter(name: &str, base: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while gorder_obs::global().counter(name) <= base {
        assert!(Instant::now() < deadline, "{name} stayed at {base}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `(op, queue_secs, seconds)` of every work record in a serve trace.
fn work_records(trace: &std::path::Path) -> Vec<(String, f64, f64)> {
    use gorder_obs::json::{parse_object, parse_string};
    std::fs::read_to_string(trace)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"kind\":\"serve\""))
        .filter_map(|l| {
            let obj = parse_object(l).unwrap();
            let num = |k: &str| obj[k].parse::<f64>().unwrap();
            let op = parse_string(&obj["op"]).unwrap();
            matches!(op.as_str(), "order" | "run").then(|| (op, num("queue_secs"), num("seconds")))
        })
        .collect()
}

#[test]
fn a_plain_run_never_queues_behind_a_build() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    let dir = tmpdir("lanes");
    let trace = dir.join("trace.jsonl");
    // The first job handled, the build, holds its worker 1.5 s.
    gorder_obs::faults::arm_from_spec("serve.slow=1,slow_ms=1500").unwrap();
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.trace_path = Some(trace.clone());
    let server = Running::start(cfg);
    let addr = server.addr();

    let build = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"RCM\"}";
    let run = "{\"op\":\"run\",\"dataset\":\"wiki\",\"algo\":\"BFS\"}";
    let answered = |line: &'static str| {
        let addr = addr.clone();
        move || (raw_request(&addr, line), Instant::now())
    };
    let slowed = gorder_obs::global().counter("faults.fired.serve.slow");
    let ((build_reply, build_done), (run_reply, run_done)) = std::thread::scope(|s| {
        let b = s.spawn(answered(build));
        // The run is sent once the build holds the build lane's worker.
        await_counter("faults.fired.serve.slow", slowed);
        let r = s.spawn(answered(run));
        (b.join().unwrap(), r.join().unwrap())
    });
    assert!(build_reply.contains("\"status\":\"ok\""), "{build_reply}");
    assert!(run_reply.contains("\"status\":\"ok\""), "{run_reply}");
    assert!(
        run_done < build_done,
        "the run was answered before the build"
    );

    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
    let records = work_records(&trace);
    let find = |op: &str| records.iter().find(|r| r.0 == op).unwrap().clone();
    let ((_, _, build_secs), (_, run_queue, _)) = (find("order"), find("run"));
    assert!(
        build_secs >= 1.5,
        "the slow build is service time: {records:?}"
    );
    assert!(
        run_queue < build_secs / 10.0,
        "the run waited {run_queue} s behind a {build_secs} s build"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_with_both_lanes_busy_answers_every_accepted_request() {
    let _guard = fault_lock();
    let _disarm = Disarm;
    gorder_obs::faults::arm_from_spec("serve.slow=1+,slow_ms=150").unwrap();
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.queue_cap = 4;
    let server = Running::start(cfg);
    let addr = server.addr();
    let reg = gorder_obs::global();
    let jobs = |lane: &str| reg.counter(&format!("serve.jobs.{lane}"));
    let (runs, builds) = (jobs("run"), jobs("build"));

    let order = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Original\"}";
    let run = "{\"op\":\"run\",\"dataset\":\"wiki\",\"algo\":\"NQ\"}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = [order, run, order, run, order, run]
            .into_iter()
            .map(|line| s.spawn(|| raw_request(&addr, line)))
            .collect();
        // Pull the plug once each lane has admitted work.
        await_counter("serve.jobs.run", runs);
        await_counter("serve.jobs.build", builds);
        server.sigterm();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(r.contains("\"status\":"), "structured reply: {r:?}");
    }
    let summary = server.join();
    assert_eq!(
        summary.accepted, summary.answered,
        "drain answered everything it accepted: {summary:?}"
    );
}

#[test]
fn an_ordering_that_panics_while_routing_is_still_answered() {
    let _guard = fault_lock();
    let server = Running::start(test_config());
    let addr = server.addr();
    // Gorder rejects window 0 with a panic, wherever it is constructed.
    let line = "{\"op\":\"run\",\"dataset\":\"wiki\",\"ordering\":\"Gorder\",\
                \"algo\":\"BFS\",\"window\":0}";
    let reply = raw_request(&addr, line);
    assert!(reply.contains("\"status\":\"error\""), "{reply}");
    assert!(reply.contains("panicked twice"), "{reply}");
    let health = call(
        &addr,
        &RemoteRequest::control("health"),
        &RetryPolicy::default(),
    );
    assert_eq!(health.unwrap().status, "ok", "the server lives on");
    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
}

#[test]
fn single_flight_shares_concurrent_identical_orderings() {
    let _guard = fault_lock();
    let mut cfg = test_config();
    cfg.workers = 4;
    cfg.queue_cap = 8;
    let server = Running::start(cfg);
    let addr = server.addr();

    // Same identity raced from four clients: the followers are served
    // from the leader's flight (tier "cache") without recomputing.
    let line = "{\"op\":\"order\",\"dataset\":\"wiki\",\"ordering\":\"Gorder\",\"window\":5}";
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| raw_request(&addr, line)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        replies.iter().all(|r| r.contains("\"status\":\"ok\"")),
        "{replies:?}"
    );
    let shared = replies
        .iter()
        .filter(|r| r.contains("\"tier\":\"cache\""))
        .count();
    let full = replies
        .iter()
        .filter(|r| r.contains("\"tier\":\"full\""))
        .count();
    assert_eq!(full + shared, 4, "{replies:?}");
    assert!(full >= 1, "someone led the flight: {replies:?}");

    server.sigterm();
    let summary = server.join();
    assert_eq!(summary.accepted, summary.answered, "{summary:?}");
}

/// `serve.<name>=<value>` from a `stats` report.
fn stat(report: &str, name: &str) -> f64 {
    report
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("{name} missing from stats: {report}"))
        .parse()
        .unwrap()
}

fn run_request(ordering: Option<&str>, algo: &str) -> RemoteRequest {
    work_request("run", ordering, Some(algo))
}

#[test]
fn identical_runs_share_a_checksum_and_the_second_hits_the_layout_lru() {
    let _guard = fault_lock();
    let dir = tmpdir("layout-hit");
    let mut cfg = test_config();
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();

    let first = call(&addr, &run_request(Some("Gorder"), "BFS"), &policy).unwrap();
    let second = call(&addr, &run_request(Some("Gorder"), "BFS"), &policy).unwrap();
    assert_eq!(first.tier.as_deref(), Some("full"));
    assert_eq!(second.tier.as_deref(), Some("cache"));
    assert!(first.checksum.is_some(), "work replies carry a checksum");
    assert_eq!(first.checksum, second.checksum, "identical requests agree");
    // The reply field is the kernel's own checksum, the same one the
    // report prints.
    let shown = format!("checksum {:#x}", first.checksum.unwrap());
    assert!(second.report.contains(&shown), "{}", second.report);

    let stats = call(&addr, &RemoteRequest::control("stats"), &policy).unwrap();
    assert!(
        stat(&stats.report, "serve.layout.hits") >= 1.0,
        "{}",
        stats.report
    );
    let bound = gorder_graph::datasets::by_name("wiki")
        .unwrap()
        .build(0.02)
        .memory_bytes() as f64;
    let resident = stat(&stats.report, "serve.layout.resident_bytes");
    assert!(resident > 0.0 && resident <= bound, "{}", stats.report);

    server.sigterm();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relabel_invariant_kernel_checksum_survives_every_ordering() {
    let _guard = fault_lock();
    let server = Running::start(test_config());
    let addr = server.addr();
    let policy = RetryPolicy::default();
    let checksum = |ordering: Option<&str>| {
        call(&addr, &run_request(ordering, "NQ"), &policy)
            .unwrap()
            .checksum
            .expect("run replies carry a checksum")
    };
    let original = checksum(Some("Original"));
    assert_eq!(
        checksum(Some("Gorder")),
        original,
        "NQ is relabel-invariant"
    );
    assert_eq!(checksum(None), original);
    server.sigterm();
    server.join();
}

#[test]
fn degraded_layouts_are_never_admitted() {
    let _guard = fault_lock();
    let dir = tmpdir("layout-degraded");
    let mut cfg = test_config();
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();

    let rushed = RemoteRequest {
        timeout_ms: Some(0),
        ..run_request(Some("Gorder"), "BFS")
    };
    let degraded = call(&addr, &rushed, &policy).unwrap();
    assert_eq!(degraded.tier.as_deref(), Some("degraded"));

    // The full ordering, run in-process on the same graph.
    let g = gorder_graph::datasets::by_name("wiki").unwrap().build(0.02);
    let fresh = gorder_cli::run_algorithm_budgeted(&g, "BFS", Some("Gorder"), 5, 0, None, 1)
        .unwrap()
        .checksum;
    let full = call(&addr, &run_request(Some("Gorder"), "BFS"), &policy).unwrap();
    assert_eq!(
        full.tier.as_deref(),
        Some("full"),
        "the degraded layout was not served from memory"
    );
    assert_eq!(full.checksum, Some(fresh));
    let again = call(&addr, &run_request(Some("Gorder"), "BFS"), &policy).unwrap();
    assert_eq!(
        (again.tier.as_deref(), again.checksum),
        (Some("cache"), Some(fresh))
    );

    server.sigterm();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_layout_bound_serves_the_same_checksums_and_tiers() {
    let _guard = fault_lock();
    let requests = [
        run_request(Some("Gorder"), "BFS"),
        run_request(Some("Gorder"), "BFS"),
        run_request(None, "BFS"),
        work_request("simulate", Some("Gorder"), Some("PR")),
        work_request("order", Some("Gorder"), None),
        run_request(Some("RCM"), "SCC"),
        run_request(Some("RCM"), "SCC"),
    ];
    let served = |tag: &str, layout_cache_bytes: Option<u64>| {
        let dir = tmpdir(tag);
        let mut cfg = test_config();
        cfg.cache_dir = Some(dir.join("cache"));
        cfg.layout_cache_bytes = layout_cache_bytes;
        let server = Running::start(cfg);
        let addr = server.addr();
        let replies: Vec<(Option<String>, Option<u64>)> = requests
            .iter()
            .map(|r| {
                let reply = call(&addr, r, &RetryPolicy::default()).unwrap();
                (reply.tier, reply.checksum)
            })
            .collect();
        server.sigterm();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
        replies
    };
    let default = served("layout-default", None);
    let off = served("layout-off", Some(0));
    assert_eq!(default, off);
    let tiers: Vec<&str> = default.iter().map(|r| r.0.as_deref().unwrap()).collect();
    assert_eq!(
        tiers,
        ["full", "cache", "full", "cache", "cache", "full", "cache"]
    );
}

#[test]
fn request_path_never_digests_and_relabels_once_per_identity() {
    let _guard = fault_lock();
    let dir = tmpdir("digest-once");
    let mut cfg = test_config();
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Running::start(cfg);
    let addr = server.addr();
    let policy = RetryPolicy::default();
    let reg = gorder_obs::global();
    let (digests, misses, hits) = (
        reg.counter("order.graph_digests"),
        reg.counter("serve.layout.misses"),
        reg.counter("serve.layout.hits"),
    );

    for r in [
        work_request("order", Some("Gorder"), None),
        run_request(Some("Gorder"), "BFS"),
        run_request(Some("Gorder"), "NQ"),
        work_request("simulate", Some("Gorder"), Some("BFS")),
        run_request(None, "BFS"),
        run_request(Some("RCM"), "BFS"),
        run_request(Some("RCM"), "BFS"),
    ] {
        assert_eq!(call(&addr, &r, &policy).unwrap().status, "ok");
    }
    assert_eq!(
        reg.counter("order.graph_digests"),
        digests,
        "the dataset was digested at bind, never per request"
    );
    // One miss (and so one relabel) per identity; every repeat hits.
    assert_eq!(reg.counter("serve.layout.misses") - misses, 2);
    assert_eq!(reg.counter("serve.layout.hits") - hits, 3);

    server.sigterm();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
