//! The `gorder-serve` daemon as the serve-mixed workload drives it: a
//! child process on an ephemeral port, spoken to over TCP with the
//! daemon's newline-delimited JSON protocol.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gorder_obs::json::{parse_object, parse_string, JsonObject};

/// How long the daemon may take to load its datasets and bind.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a drain may take before the daemon is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// Finds the daemon binary: `--serve-bin`, else beside this executable
/// (both are built into the same target directory).
pub fn locate_bin(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return Ok(p.to_path_buf());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    // Test binaries live one level down, in `deps/`.
    for d in [Some(dir), dir.parent()].into_iter().flatten() {
        let candidate = d.join("gorder-serve");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "gorder-serve not found beside {}; build it (cargo build --release -p gorder-serve) \
         or pass --serve-bin",
        exe.display()
    ))
}

/// A running daemon. Dropping it drains and reaps the process.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    pub cache_dir: PathBuf,
    pub trace_path: Option<PathBuf>,
}

pub struct DaemonConfig<'a> {
    pub bin: &'a Path,
    pub dir: &'a Path,
    pub scale: f64,
    pub datasets: &'a [&'a str],
    pub trace: bool,
}

impl Daemon {
    /// Starts the daemon (one worker, datasets pre-loaded, order cache and
    /// optional trace under `dir`) and waits until it listens.
    pub fn start(cfg: &DaemonConfig) -> Result<Daemon, String> {
        std::fs::create_dir_all(cfg.dir).map_err(|e| format!("{}: {e}", cfg.dir.display()))?;
        let addr_file = cfg.dir.join("addr");
        let cache_dir = cfg.dir.join("cache");
        let trace_path = cfg.trace.then(|| cfg.dir.join("trace.jsonl"));
        let mut cmd = Command::new(cfg.bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--workers", "1", "--datasets"])
            .arg(cfg.datasets.join(","))
            .arg("--scale")
            .arg(cfg.scale.to_string())
            .arg("--cache-dir")
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(t) = &trace_path {
            cmd.arg("--trace-out").arg(t);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", cfg.bin.display()))?;
        let mut d = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            cache_dir,
            trace_path,
        };
        let t0 = Instant::now();
        loop {
            // The address file is written after bind; a partial write
            // simply fails to parse and is read again.
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                d.addr = addr;
                return Ok(d);
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("gorder-serve exited during start-up: {status}"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("gorder-serve did not start listening in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    /// Peak resident set of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::measure::peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the daemon and checks that it exited cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.drain()
    }

    fn drain(&mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!("gorder-serve had already exited: {status}"));
        }
        let asked = self
            .connect()
            .and_then(|mut c| c.call(&JsonObject::new().str("op", "shutdown").finish()));
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("gorder-serve drain failed ({asked:?}): {status}"))
                }
                Ok(None) if t0.elapsed() < STOP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("gorder-serve did not drain in time; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            if let Err(e) = self.drain() {
                eprintln!("perfbench: {e}");
            }
        }
    }
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and reads its one reply line.
    pub fn call(&mut self, request: &str) -> Result<Reply, String> {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed before a reply".into()),
            Ok(_) => Reply::parse(line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The parts of a reply the oracle reads.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: String,
    pub tier: Option<String>,
    /// Candidate kernel checksums: the reply's `checksum` field and the
    /// `checksum 0x…` token of its report, whichever are present. Today the
    /// field hashes the report text, which embeds a timing, so the oracle
    /// accepts a match on either.
    pub checksums: Vec<u64>,
    pub text: String,
}

impl Reply {
    fn parse(line: &str) -> Result<Reply, String> {
        let obj: BTreeMap<String, String> =
            parse_object(line).map_err(|e| format!("bad reply {line:?}: {e}"))?;
        let string = |k: &str| obj.get(k).and_then(|raw| parse_string(raw).ok());
        let text = string("report")
            .or_else(|| string("error"))
            .unwrap_or_default();
        let checksums = [
            obj.get("checksum").and_then(|raw| raw.parse::<u64>().ok()),
            report_checksum(&text),
        ]
        .into_iter()
        .flatten()
        .collect();
        Ok(Reply {
            status: string("status").ok_or_else(|| format!("reply without status: {line}"))?,
            tier: string("tier"),
            checksums,
            text,
        })
    }
}

/// The `checksum 0x…` token of a `run` report.
fn report_checksum(report: &str) -> Option<u64> {
    let mut words = report.split_whitespace();
    words.find(|w| *w == "checksum")?;
    let hex = words.next()?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

/// A work request in the daemon's protocol.
pub fn request(
    op: &str,
    dataset: &str,
    ordering: Option<&str>,
    algo: Option<&str>,
    seed: u64,
) -> String {
    let mut o = JsonObject::new().str("op", op).str("dataset", dataset);
    if let Some(ord) = ordering {
        o = o.str("ordering", ord);
    }
    if let Some(a) = algo {
        o = o.str("algo", a);
    }
    o.u64("window", 5)
        .u64("seed", seed)
        .u64("threads", 1)
        .finish()
}

/// `(queue_secs, seconds)` of every `run`/`order` record in a daemon
/// trace.
pub fn trace_stage_secs(path: &Path) -> Result<Vec<(f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let obj = parse_object(line).map_err(|e| format!("daemon trace: {e}"))?;
        let field = |k: &str| obj.get(k).map(String::as_str);
        let is_work = matches!(field("op"), Some("\"run\"" | "\"order\""));
        if field("kind") == Some("\"serve\"") && is_work {
            let num = |k: &str| {
                field(k)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(f64::NAN)
            };
            out.push((num("queue_secs"), num("seconds")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_checksum_from_field_or_report() {
        let with_field = Reply::parse(
            "{\"status\":\"ok\",\"op\":\"run\",\"tier\":\"cache\",\"checksum\":255,\
             \"report\":\"BFS over Gorder order: checksum 0x10 in 0.004s\"}",
        )
        .expect("parses");
        assert_eq!(with_field.checksums, [255, 16]);
        assert_eq!(with_field.tier.as_deref(), Some("cache"));
        let from_report = Reply::parse(
            "{\"status\":\"ok\",\"op\":\"run\",\"tier\":\"full\",\"degraded_serial\":false,\
             \"report\":\"BFS over original order: checksum 0xff in 0.004s\",\"seconds\":0.004}",
        )
        .expect("parses");
        assert_eq!(from_report.checksums, [255]);
        let busy = Reply::parse("{\"status\":\"busy\",\"op\":\"run\",\"retry_after_ms\":50}")
            .expect("parses");
        assert_eq!(busy.status, "busy");
        assert!(busy.checksums.is_empty());
    }
}
