//! The retrying client of the daemon, behind `gorder-cli remote`.
//!
//! One request per TCP connection: render a single request line with
//! [`render_request`], read a single response line with
//! [`parse_response`], classify. The retry loop is where the robustness
//! contract lives:
//!
//! * `busy` responses (load shed) are **always** retryable — the server
//!   told us to come back — and the backoff floor honours the server's
//!   `retry_after_ms` hint;
//! * `error` responses are **never** retried: the server answered
//!   deterministically, so the same request would fail the same way;
//! * transport failures (connect refused, reset mid-read) are retried
//!   only for idempotent requests ([`Request::idempotent`]) — a
//!   `shutdown` whose reply was lost may already be draining the server,
//!   so blindly resending it is wrong.
//!
//! Backoff is exponential with deterministic seeded jitter (splitmix64,
//! the repo has no RNG dependency here) and a total sleep budget, so a
//! saturated server sheds a polite, bounded amount of retry traffic and
//! tests replay the exact same schedule.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{parse_response, render_request, Request, Response};

/// Why [`call`] gave up.
#[derive(Debug)]
pub enum RemoteError {
    /// Connect/read/write failed and the request was not safely
    /// retryable (or retries ran out on transport errors) — exit 6.
    Transport(String),
    /// Every attempt was load-shed and the retry budget ran out —
    /// exit 4 (the service equivalent of a timeout).
    BusyExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The server answered `error` — deterministic, not retried; exit 5.
    Server(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Transport(e) => write!(f, "transport: {e}"),
            RemoteError::BusyExhausted { attempts } => {
                write!(
                    f,
                    "server busy after {attempts} attempts, retry budget spent"
                )
            }
            RemoteError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

/// Deterministic retry schedule: exponential backoff with seeded
/// splitmix64 jitter and a total sleep budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts (≥ 1).
    pub attempts: u32,
    /// First backoff, milliseconds; doubles per attempt.
    pub base_ms: u64,
    /// Total milliseconds the client may spend sleeping between
    /// attempts before giving up.
    pub budget_ms: u64,
    /// Jitter seed — same seed, same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_ms: 50,
            budget_ms: 2_000,
            seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the wait after
    /// the first failure is `backoff_ms(1, ..)`). Jittered over the
    /// upper half of the exponential step so herds decorrelate, and
    /// floored at the server's `retry_after_ms` hint when it gave one.
    pub fn backoff_ms(&self, attempt: u32, retry_after_ms: Option<u64>) -> u64 {
        let expo = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let half = expo / 2;
        let jitter = half + splitmix64(self.seed ^ u64::from(attempt)) % (half.max(1) + 1);
        jitter.max(retry_after_ms.unwrap_or(0))
    }
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: &str, line: &str, io_timeout: Duration) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
        .map_err(|e| format!("socket setup: {e}"))?;
    let mut w = &stream;
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection without replying".to_string());
    }
    parse_response(reply.trim_end_matches(['\r', '\n']))
}

/// Sends `req`, retrying per `policy`. Returns the `ok` response and
/// the attempts it took (1 = first try); `error` responses and
/// non-retryable transport failures surface immediately.
pub fn call(
    addr: &str,
    req: &Request,
    policy: &RetryPolicy,
) -> Result<(Response, u32), RemoteError> {
    let line = render_request(req);
    let timeout_ms = match req {
        Request::Order(s) | Request::Run(s) | Request::Simulate(s) => s.timeout_ms,
        Request::Health | Request::Stats | Request::Shutdown => None,
    };
    let io_timeout = Duration::from_millis(timeout_ms.unwrap_or(60_000).max(1_000) * 2);
    let mut slept_ms = 0u64;
    let mut attempt = 1u32;
    loop {
        let verdict = exchange(addr, &line, io_timeout);
        let retry_hint = match verdict {
            Ok(reply) => match reply.status.as_str() {
                "ok" => return Ok((reply, attempt)),
                "busy" => reply.retry_after_ms,
                "error" => return Err(RemoteError::Server(reply.report)),
                other => {
                    return Err(RemoteError::Transport(format!(
                        "unknown response status {other:?}"
                    )));
                }
            },
            Err(e) => {
                if !req.idempotent() {
                    return Err(RemoteError::Transport(format!(
                        "{e} (not retried: {:?} is not idempotent)",
                        req.op()
                    )));
                }
                if attempt >= policy.attempts {
                    return Err(RemoteError::Transport(format!(
                        "{e} (after {attempt} attempts)"
                    )));
                }
                None
            }
        };
        // A busy verdict that exhausts attempts or budget gives up here;
        // transport errors already returned above when out of attempts.
        if attempt >= policy.attempts {
            return Err(RemoteError::BusyExhausted { attempts: attempt });
        }
        let wait = policy.backoff_ms(attempt, retry_hint);
        if slept_ms.saturating_add(wait) > policy.budget_ms {
            return Err(RemoteError::BusyExhausted { attempts: attempt });
        }
        std::thread::sleep(Duration::from_millis(wait));
        slept_ms += wait;
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WorkSpec;

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let p = RetryPolicy::default();
        let a: Vec<u64> = (1..=4).map(|i| p.backoff_ms(i, None)).collect();
        let b: Vec<u64> = (1..=4).map(|i| p.backoff_ms(i, None)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // Each step's jitter window is [half, expo], so consecutive
        // steps at least double in floor: 25..=50, 50..=100, 100..=200.
        assert!(a[0] >= 25 && a[0] <= 50, "step 1 in window: {}", a[0]);
        assert!(a[1] >= 50 && a[1] <= 100, "step 2 in window: {}", a[1]);
        assert!(a[2] >= 100 && a[2] <= 200, "step 3 in window: {}", a[2]);
        let q = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        assert_ne!(
            (1..=4).map(|i| q.backoff_ms(i, None)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn backoff_honours_server_hint() {
        let p = RetryPolicy::default();
        assert!(p.backoff_ms(1, Some(500)) >= 500);
        // A tiny hint never lowers the computed backoff.
        assert!(p.backoff_ms(3, Some(1)) >= 100);
    }

    #[test]
    fn render_shapes_match_protocol() {
        assert_eq!(render_request(&Request::Health), "{\"op\":\"health\"}");
        let req = Request::Run(WorkSpec {
            dataset: "wiki".into(),
            ordering: Some("Gorder".into()),
            algo: Some("PR".into()),
            window: 5,
            seed: 42,
            timeout_ms: Some(250),
            threads: 2,
        });
        assert_eq!(
            render_request(&req),
            "{\"op\":\"run\",\"dataset\":\"wiki\",\"ordering\":\"Gorder\",\"algo\":\"PR\",\
             \"window\":5,\"seed\":42,\"timeout_ms\":250,\"threads\":2}"
        );
    }

    #[test]
    fn parse_reply_classifies_statuses() {
        let ok = parse_response(
            "{\"status\":\"ok\",\"op\":\"run\",\"tier\":\"degraded\",\"degraded_serial\":true,\
             \"checksum\":255,\"report\":\"r\",\"seconds\":0.5}",
        )
        .unwrap();
        assert_eq!(ok.status, "ok");
        assert_eq!(ok.checksum, Some(255));
        assert_eq!(ok.tier.as_deref(), Some("degraded"));
        assert!(ok.degraded_serial);
        let busy =
            parse_response("{\"status\":\"busy\",\"op\":\"run\",\"retry_after_ms\":75}").unwrap();
        assert_eq!(busy.retry_after_ms, Some(75));
        assert_eq!(busy.checksum, None);
        let err =
            parse_response("{\"status\":\"error\",\"op\":\"run\",\"error\":\"boom\"}").unwrap();
        assert_eq!(err.report, "boom");
        assert!(parse_response("not json").is_err());
    }

    #[test]
    fn transport_error_fails_fast_for_non_idempotent_ops() {
        // Port 1 on localhost: connection refused, immediately.
        let req = Request::Shutdown;
        let policy = RetryPolicy {
            attempts: 3,
            base_ms: 1,
            budget_ms: 50,
            seed: 0,
        };
        match call("127.0.0.1:1", &req, &policy) {
            Err(RemoteError::Transport(msg)) => {
                assert!(msg.contains("not idempotent"), "fails without retry: {msg}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }
}
