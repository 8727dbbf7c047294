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
  --workers N            worker pool size (default 2)
  --queue-cap N          admission queue depth before shedding (default 8)
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

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
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
