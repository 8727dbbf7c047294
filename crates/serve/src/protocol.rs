//! The wire protocol: newline-delimited JSON, one request line in, one
//! response line out, over the same strict no-whitespace grammar as the
//! trace files ([`gorder_obs::json`]) — so every frame the server emits
//! parses with the repo's one JSON parser, and everything the parser
//! rejects is answered with a structured `error` frame, never a panic or
//! a hang.
//!
//! Request shape (unknown keys are rejected — a typoed knob must fail
//! loudly, not silently run with defaults):
//!
//! ```json
//! {"op":"run","dataset":"epinion","ordering":"Gorder","algo":"BFS","window":5,"seed":0,"timeout_ms":200,"threads":1}
//! ```
//!
//! `op` is one of `health`, `stats`, `shutdown`, `order`, `run`,
//! `simulate`. Responses carry `status` `ok`, `busy` (shed — retry after
//! `retry_after_ms`), or `error`; `ok` responses name the degradation
//! `tier` that actually served the request (`cache`, `full`, `degraded`,
//! `original`; `null` for control ops), and work responses carry the
//! result's `checksum` (the kernel's for `run`, the cache replay's for
//! `simulate`, the permutation's for `order`).

use std::collections::BTreeMap;
use std::io::{BufRead, Read};

use gorder_obs::json::{self, JsonObject};

/// Hard cap on one request frame, newline included. Anything longer is
/// rejected before parsing — a client streaming garbage must not grow
/// server memory without bound.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued or shed.
    Health,
    /// Registry counter snapshot; answered inline.
    Stats,
    /// Begin graceful drain; answered inline, then the listener closes.
    Shutdown,
    /// Compute (or cache-hit) an ordering's permutation.
    Order(WorkSpec),
    /// Execute a kernel over an ordered dataset.
    Run(WorkSpec),
    /// Cache-profile a kernel over an ordered dataset.
    Simulate(WorkSpec),
}

/// The knobs shared by the three work-carrying ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSpec {
    /// Pre-loaded dataset name (`epinion`, `pokec`, …).
    pub dataset: String,
    /// Ordering name; `None` on `run`/`simulate` means original order.
    pub ordering: Option<String>,
    /// Kernel name; required for `run`/`simulate`, absent for `order`.
    pub algo: Option<String>,
    /// Gorder window `w`.
    pub window: u32,
    /// Seed for randomised orderings.
    pub seed: u64,
    /// Per-request deadline; `None` falls back to the server default.
    pub timeout_ms: Option<u64>,
    /// Engine threads for the kernel's parallel sections.
    pub threads: u32,
}

impl Request {
    /// The op label echoed in responses and trace records.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Order(_) => "order",
            Request::Run(_) => "run",
            Request::Simulate(_) => "simulate",
        }
    }

    /// Whether a retrying client may safely re-send this request after a
    /// transport failure with no response. Everything here is a read or
    /// an idempotent computation except `shutdown`, which transitions
    /// server state.
    pub fn idempotent(&self) -> bool {
        !matches!(self, Request::Shutdown)
    }
}

fn field_str(obj: &BTreeMap<String, String>, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(raw) => json::parse_string(raw).map(Some),
    }
}

fn field_u64(obj: &BTreeMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("field {key:?} must be a non-negative integer, got {raw}")),
    }
}

/// Parses one request line. Strict: the line must be one JSON object in
/// the writer's grammar, `op` must be known, every other key must belong
/// to that op, and numeric fields must be bare non-negative integers.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let obj = json::parse_object(line)?;
    let op = field_str(&obj, "op")?.ok_or("missing \"op\" field")?;
    let work_keys = [
        "op",
        "dataset",
        "ordering",
        "algo",
        "window",
        "seed",
        "timeout_ms",
        "threads",
    ];
    let allowed: &[&str] = match op.as_str() {
        "health" | "stats" | "shutdown" => &["op"],
        "order" | "run" | "simulate" => &work_keys,
        other => return Err(format!("unknown op {other:?}")),
    };
    if let Some(bad) = obj.keys().find(|k| !allowed.contains(&k.as_str())) {
        return Err(format!("unknown field {bad:?} for op {op:?}"));
    }
    match op.as_str() {
        "health" => return Ok(Request::Health),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        _ => {}
    }
    let spec = WorkSpec {
        dataset: field_str(&obj, "dataset")?.ok_or("missing \"dataset\" field")?,
        ordering: field_str(&obj, "ordering")?,
        algo: field_str(&obj, "algo")?,
        window: u32::try_from(field_u64(&obj, "window")?.unwrap_or(5))
            .map_err(|_| "field \"window\" out of range".to_string())?,
        seed: field_u64(&obj, "seed")?.unwrap_or(0),
        timeout_ms: field_u64(&obj, "timeout_ms")?,
        threads: u32::try_from(field_u64(&obj, "threads")?.unwrap_or(1))
            .map_err(|_| "field \"threads\" out of range".to_string())?
            .max(1),
    };
    match op.as_str() {
        "order" => {
            if spec.ordering.is_none() {
                return Err("op \"order\" requires an \"ordering\" field".to_string());
            }
            if spec.algo.is_some() {
                return Err("op \"order\" takes no \"algo\" field".to_string());
            }
            Ok(Request::Order(spec))
        }
        "run" | "simulate" => {
            if spec.algo.is_none() {
                return Err(format!("op {op:?} requires an \"algo\" field"));
            }
            if op == "run" {
                Ok(Request::Run(spec))
            } else {
                Ok(Request::Simulate(spec))
            }
        }
        _ => unreachable!("op validated above"),
    }
}

/// Renders a request — the client half of the protocol. Optional fields
/// are omitted, not nulled, so defaulting stays server-side.
pub fn render_request(req: &Request) -> String {
    let base = JsonObject::new().str("op", req.op());
    match req {
        Request::Health | Request::Stats | Request::Shutdown => base.finish(),
        Request::Order(s) | Request::Run(s) | Request::Simulate(s) => {
            let mut o = base.str("dataset", &s.dataset);
            if let Some(ord) = &s.ordering {
                o = o.str("ordering", ord);
            }
            if let Some(algo) = &s.algo {
                o = o.str("algo", algo);
            }
            o = o.u64("window", u64::from(s.window)).u64("seed", s.seed);
            if let Some(t) = s.timeout_ms {
                o = o.u64("timeout_ms", t);
            }
            o.u64("threads", u64::from(s.threads)).finish()
        }
    }
}

/// An `ok` response: the served tier and the result checksum (both
/// `None` for control ops), whether the panic ladder fell back to a
/// serial retry, the human-readable report, and processing seconds.
pub fn ok_response(
    op: &str,
    tier: Option<&str>,
    degraded_serial: bool,
    checksum: Option<u64>,
    report: &str,
    seconds: f64,
) -> String {
    let mut o = JsonObject::new()
        .str("status", "ok")
        .str("op", op)
        .opt_str("tier", tier)
        .bool("degraded_serial", degraded_serial);
    if let Some(c) = checksum {
        o = o.u64("checksum", c);
    }
    o.str("report", report).f64("seconds", seconds).finish()
}

/// A `busy` (load-shed) response: the admission queue was full; the
/// client should wait `retry_after_ms` before retrying.
pub fn busy_response(op: &str, retry_after_ms: u64) -> String {
    JsonObject::new()
        .str("status", "busy")
        .str("op", op)
        .u64("retry_after_ms", retry_after_ms)
        .finish()
}

/// An `error` response. `op` is `"unknown"` when the frame never parsed
/// far enough to name one.
pub fn error_response(op: &str, error: &str) -> String {
    JsonObject::new()
        .str("status", "error")
        .str("op", op)
        .str("error", error)
        .finish()
}

/// A parsed response, as the retrying client sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// `ok`, `busy`, or `error`.
    pub status: String,
    /// Echoed op label.
    pub op: String,
    /// Served tier on `ok` work responses.
    pub tier: Option<String>,
    /// Panic-ladder marker on `ok` responses.
    pub degraded_serial: bool,
    /// Result checksum on `ok` work responses: the kernel's for `run`,
    /// the cache replay's for `simulate`, the permutation's for `order`.
    pub checksum: Option<u64>,
    /// Report text on `ok`, error text on `error`.
    pub report: String,
    /// Processing seconds on `ok`.
    pub seconds: f64,
    /// Backoff floor on `busy`.
    pub retry_after_ms: Option<u64>,
}

/// Parses one response line (client side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = json::parse_object(line)?;
    let status = field_str(&obj, "status")?.ok_or("missing \"status\" field")?;
    let op = field_str(&obj, "op")?.ok_or("missing \"op\" field")?;
    let tier = match obj.get("tier").map(String::as_str) {
        None | Some("null") => None,
        Some(raw) => Some(json::parse_string(raw)?),
    };
    let report = match status.as_str() {
        "error" => field_str(&obj, "error")?.ok_or("error response missing \"error\"")?,
        _ => field_str(&obj, "report")?.unwrap_or_default(),
    };
    let seconds = obj
        .get("seconds")
        .map(|raw| {
            raw.parse::<f64>()
                .map_err(|_| format!("bad \"seconds\": {raw}"))
        })
        .transpose()?
        .unwrap_or(0.0);
    Ok(Response {
        status,
        op,
        tier,
        degraded_serial: obj.get("degraded_serial").map(String::as_str) == Some("true"),
        checksum: field_u64(&obj, "checksum")?,
        report,
        seconds,
        retry_after_ms: field_u64(&obj, "retry_after_ms")?,
    })
}

/// What reading one frame can yield.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// A frame exceeded [`MAX_FRAME_BYTES`] before its newline; the
    /// oversized line has been discarded, and the stream is re-framed
    /// at the next line.
    TooLong,
    /// Transport error. Timeouts (`WouldBlock`/`TimedOut`) are
    /// resumable: the reader keeps any partial line and continues it on
    /// the next call — a slow client never corrupts framing.
    Io(std::io::Error),
}

/// Incremental newline framing over a possibly-timing-out transport.
///
/// The server reads with a short socket timeout so idle connections can
/// notice a drain; that means a read can return `WouldBlock` halfway
/// through a frame. This reader owns the partial-line state, so a
/// timeout mid-frame keeps the bytes already read and the next call
/// resumes exactly where it stopped. It also enforces
/// [`MAX_FRAME_BYTES`]: an oversized line is discarded (resumably, if
/// the discard itself hits timeouts) and reported as
/// [`FrameError::TooLong`] once.
pub struct FrameReader<R: BufRead> {
    r: R,
    partial: Vec<u8>,
    discarding: bool,
}

impl<R: BufRead> FrameReader<R> {
    pub fn new(r: R) -> Self {
        FrameReader {
            r,
            partial: Vec::new(),
            discarding: false,
        }
    }

    /// Reads the next frame. `Err(Io)` with a timeout kind is resumable;
    /// `Err(TooLong)` reports one discarded oversized frame (the stream
    /// stays usable); `Err(Eof)` is the clean end.
    pub fn next_frame(&mut self) -> Result<String, FrameError> {
        if self.discarding {
            self.skip_to_newline()?;
            self.discarding = false;
            return Err(FrameError::TooLong);
        }
        let cap = MAX_FRAME_BYTES - self.partial.len();
        let n = (&mut self.r)
            .take(cap as u64)
            .read_until(b'\n', &mut self.partial)
            .map_err(FrameError::Io)?; // timeout: partial is preserved
        if n == 0 && self.partial.is_empty() {
            return Err(FrameError::Eof);
        }
        if self.partial.last() == Some(&b'\n') {
            self.partial.pop();
            if self.partial.last() == Some(&b'\r') {
                self.partial.pop();
            }
        } else if self.partial.len() >= MAX_FRAME_BYTES {
            // Cap hit with no newline: discard the rest of the line.
            self.partial.clear();
            self.skip_to_newline()?;
            return Err(FrameError::TooLong);
        }
        // Complete frame — or EOF mid-line (n == 0 with leftovers),
        // which treats the unterminated tail as a final frame so
        // `printf '{...}' | nc`-style clients still work. Non-UTF-8
        // bytes decode lossily: the frame boundary is intact, so the
        // garbage flows into the parser and earns a structured error
        // instead of killing the connection.
        let bytes = std::mem::take(&mut self.partial);
        Ok(String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
    }

    /// Consumes through the next newline (or EOF) using the reader's
    /// own buffer, so no byte of the following frame is lost. Resumable
    /// across timeouts via `self.discarding`.
    fn skip_to_newline(&mut self) -> Result<(), FrameError> {
        loop {
            let available = match self.r.fill_buf() {
                Err(e) => {
                    self.discarding = true;
                    return Err(FrameError::Io(e));
                }
                Ok(b) => b,
            };
            if available.is_empty() {
                return Ok(()); // EOF ends the oversized line
            }
            if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                self.r.consume(pos + 1);
                return Ok(());
            }
            let len = available.len();
            self.r.consume(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_ops_round_trip() {
        for (req, op) in [
            (Request::Health, "health"),
            (Request::Stats, "stats"),
            (Request::Shutdown, "shutdown"),
        ] {
            let line = render_request(&req);
            assert_eq!(line, format!("{{\"op\":\"{op}\"}}"));
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn work_ops_round_trip() {
        let spec = WorkSpec {
            dataset: "epinion".into(),
            ordering: Some("Gorder".into()),
            algo: Some("BFS".into()),
            window: 5,
            seed: 3,
            timeout_ms: Some(250),
            threads: 2,
        };
        for req in [
            Request::Run(spec.clone()),
            Request::Simulate(spec.clone()),
            Request::Order(WorkSpec {
                algo: None,
                ..spec.clone()
            }),
        ] {
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn defaults_apply_when_fields_omitted() {
        let req = parse_request(r#"{"op":"run","dataset":"epinion","algo":"BFS"}"#).unwrap();
        match req {
            Request::Run(s) => {
                assert_eq!(s.window, 5);
                assert_eq!(s.seed, 0);
                assert_eq!(s.threads, 1);
                assert_eq!(s.timeout_ms, None);
                assert_eq!(s.ordering, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_ops_and_fields_are_rejected() {
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(parse_request(r#"{"op":"health","extra":1}"#).is_err());
        assert!(parse_request(r#"{"op":"run","dataset":"d","algo":"BFS","wimdow":9}"#).is_err());
        assert!(
            parse_request(r#"{"op":"order","dataset":"d"}"#).is_err(),
            "order needs ordering"
        );
        assert!(
            parse_request(r#"{"op":"order","dataset":"d","ordering":"Gorder","algo":"BFS"}"#)
                .is_err(),
            "order takes no algo"
        );
        assert!(
            parse_request(r#"{"op":"run","dataset":"d"}"#).is_err(),
            "run needs algo"
        );
        assert!(parse_request(r#"{"op":"run","dataset":"d","algo":"BFS","seed":"x"}"#).is_err());
    }

    #[test]
    fn response_shapes_parse_back() {
        let ok = ok_response("run", Some("full"), false, Some(7), "BFS done", 0.25);
        let r = parse_response(&ok).unwrap();
        assert_eq!(
            (r.status.as_str(), r.op.as_str(), r.tier.as_deref()),
            ("ok", "run", Some("full"))
        );
        assert!(!r.degraded_serial);
        assert_eq!(r.checksum, Some(7));
        assert_eq!(r.report, "BFS done");

        let health = parse_response(&ok_response("health", None, false, None, "ok", 0.0)).unwrap();
        assert_eq!((health.tier, health.checksum), (None, None));

        let busy = parse_response(&busy_response("run", 40)).unwrap();
        assert_eq!(
            (busy.status.as_str(), busy.retry_after_ms),
            ("busy", Some(40))
        );

        let err = parse_response(&error_response("unknown", "bad frame")).unwrap();
        assert_eq!(
            (err.status.as_str(), err.report.as_str()),
            ("error", "bad frame")
        );
    }

    #[test]
    fn frames_read_with_and_without_trailing_newline() {
        let mut r = FrameReader::new(std::io::BufReader::new(
            &b"{\"op\":\"health\"}\n{\"op\":\"stats\"}"[..],
        ));
        assert_eq!(r.next_frame().unwrap(), "{\"op\":\"health\"}");
        assert_eq!(r.next_frame().unwrap(), "{\"op\":\"stats\"}");
        assert!(matches!(r.next_frame(), Err(FrameError::Eof)));
    }

    #[test]
    fn crlf_is_stripped() {
        let mut r = FrameReader::new(std::io::BufReader::new(&b"{\"op\":\"health\"}\r\n"[..]));
        assert_eq!(r.next_frame().unwrap(), "{\"op\":\"health\"}");
    }

    #[test]
    fn oversized_frames_are_capped_and_the_stream_recovers() {
        let mut big = vec![b'x'; MAX_FRAME_BYTES + 500];
        big.push(b'\n');
        big.extend_from_slice(b"{\"op\":\"health\"}\n");
        let mut r = FrameReader::new(std::io::BufReader::new(&big[..]));
        assert!(matches!(r.next_frame(), Err(FrameError::TooLong)));
        assert_eq!(r.next_frame().unwrap(), "{\"op\":\"health\"}");
    }

    /// A transport that yields `WouldBlock` between scripted chunks —
    /// the shape a short socket read timeout produces.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
        blocked: bool,
    }

    impl std::io::Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.blocked && !self.chunks.is_empty() {
                self.blocked = false;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.blocked = true;
            match self.chunks.first_mut() {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.remove(0);
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn timeouts_mid_frame_resume_without_losing_bytes() {
        let r = Chunked {
            chunks: vec![b"{\"op\":\"he".to_vec(), b"alth\"}\n".to_vec()],
            blocked: false,
        };
        let mut fr = FrameReader::new(std::io::BufReader::new(r));
        let mut frames = Vec::new();
        loop {
            match fr.next_frame() {
                Ok(f) => frames.push(f),
                Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(FrameError::Eof) => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert_eq!(frames, vec!["{\"op\":\"health\"}"]);
    }
}
