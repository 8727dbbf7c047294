//! `gorder-serve` — bind, pre-load datasets, serve until SIGTERM (or a
//! `shutdown` request), then drain gracefully.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use gorder_serve::{Server, ServerConfig};

const USAGE: &str = "\
gorder-serve [options]

Serves `order`, `run`, `simulate`, `health`, `stats`, and `shutdown`
requests (one JSON object per line) over TCP. See DESIGN.md §13.

options:
  --addr HOST:PORT       bind address (default 127.0.0.1:7171; port 0 = ephemeral)
  --addr-file PATH       write the bound address to PATH (for ephemeral ports)
  --workers N            worker threads per lane (default 2); the build lane
                         computes orderings and relabels layouts, the run
                         lane serves kernels over resident layouts
  --queue-cap N          admission queue depth per lane before shedding
                         (default 8)
  --scale F              dataset scale factor (default 0.05)
  --datasets A,B,...     datasets to pre-load (default: all)
  --timeout-ms N         default per-request budget (default 30000; 0 = none)
  --drain-grace-ms N     budget grace after drain starts (default 5000)
  --retry-after-ms N     busy-response retry hint (default 50)
  --trace-out PATH       write a schema-versioned JSONL trace
  --cache-dir PATH       on-disk permutation cache directory
  --layout-cache-mb N    byte bound of the in-memory LRU of relabelled
                         layouts, in MB of 10^6 bytes (default: the loaded
                         datasets' total CSR size; 0 = off)
  --faults SPEC          arm deterministic fault injection (GORDER_FAULTS grammar)
";

/// Set by the SIGTERM/SIGINT handler; polled by the server's drain
/// coordinator.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Keeps every thread on glibc's main malloc arena. Each lane's workers
/// would otherwise get arenas of their own. Measured with the perfbench
/// serve-mixed workload (five 3-s runs each, 2-vCPU x86-64 Linux host),
/// the daemon's peak RSS read 37.3–37.9 MB with a single worker lane,
/// 41.5–42.3 MB with two lanes and the default arenas, and 37.0–37.3 MB
/// with two lanes and one arena; request latency was the same within
/// its run-to-run spread.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` from glibc's `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator tunables; it is called
    // first thing in `main`, before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    one_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    let mut addr_file: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.get(i + 1) else {
            return usage_err(&format!("flag {flag} needs a value"));
        };
        let parse_u64 = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a non-negative integer, got {value:?}"))
        };
        match flag {
            "--addr" => cfg.addr = value.clone(),
            "--addr-file" => addr_file = Some(PathBuf::from(value)),
            "--workers" => match parse_u64("--workers") {
                Ok(n) => cfg.workers = (n as usize).max(1),
                Err(e) => return usage_err(&e),
            },
            "--queue-cap" => match parse_u64("--queue-cap") {
                Ok(n) => cfg.queue_cap = (n as usize).max(1),
                Err(e) => return usage_err(&e),
            },
            "--scale" => match value.parse::<f64>() {
                Ok(f) if f > 0.0 => cfg.scale = f,
                _ => {
                    return usage_err(&format!("--scale must be a positive number, got {value:?}"))
                }
            },
            "--datasets" => {
                cfg.datasets = value.split(',').map(str::to_string).collect();
            }
            "--timeout-ms" => match parse_u64("--timeout-ms") {
                Ok(0) => cfg.default_timeout = None,
                Ok(n) => cfg.default_timeout = Some(Duration::from_millis(n)),
                Err(e) => return usage_err(&e),
            },
            "--drain-grace-ms" => match parse_u64("--drain-grace-ms") {
                Ok(n) => cfg.drain_grace = Duration::from_millis(n),
                Err(e) => return usage_err(&e),
            },
            "--retry-after-ms" => match parse_u64("--retry-after-ms") {
                Ok(n) => cfg.retry_after_ms = n,
                Err(e) => return usage_err(&e),
            },
            "--trace-out" => cfg.trace_path = Some(PathBuf::from(value)),
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value)),
            "--layout-cache-mb" => match parse_u64("--layout-cache-mb") {
                Ok(mb) => cfg.layout_cache_bytes = Some(mb.saturating_mul(1_000_000)),
                Err(e) => return usage_err(&e),
            },
            "--faults" => {
                if let Err(e) = gorder_obs::faults::arm_from_spec(value) {
                    return usage_err(&e);
                }
            }
            other => return usage_err(&format!("unknown flag {other}")),
        }
        i += 2;
    }

    install_signal_handlers();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(6);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(6);
        }
    };
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(6);
        }
    }
    println!("gorder-serve listening on {addr}");
    match server.run(&SHUTDOWN) {
        Ok(summary) => {
            println!(
                "drained: accepted={} answered={} shed={} errors={}",
                summary.accepted, summary.answered, summary.shed, summary.errors
            );
            if summary.answered < summary.accepted {
                eprintln!("error: drain lost accepted requests");
                return ExitCode::from(5);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(6)
        }
    }
}
