//! A resilient socket client for the plan service.
//!
//! The failure modes a serve client actually sees are transient: the
//! daemon sheds under load (`ALP0012`), refuses while draining
//! (`ALP0015`), restarts (connection refused / reset), or stalls past
//! an attempt timeout.  [`Client`] turns one logical request into a
//! bounded retry loop over those failures — capped exponential backoff
//! with *decorrelated jitter* (seeded, so the schedule is deterministic
//! under test), per-attempt socket timeouts, and an overall deadline
//! that is also **propagated to the server** in the request frame so a
//! dead-on-arrival job is shed from the queue instead of executed for
//! nobody.
//!
//! ## One retry rule
//!
//! A transient failure is retried within the attempt budget and the
//! deadline, whatever the op — with one exception: a `run` whose frame
//! may already have reached the daemon (bytes went out, no answer came
//! back) is not resent, and the call ends in
//! [`ClientError::NotRetryable`].  Runs are not coalesced, so a resend
//! after a timeout would execute the nest a second time.  A `run` that
//! provably never reached the daemon (connect refused, nothing written)
//! is retried like any other request.
//!
//! A server *response* is never retried blindly: any answer other than
//! the shed/drain codes is the answer, errors included.

use crate::protocol::{Request, RequestOp, Response};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total tries for one logical request (first attempt included).
    pub max_attempts: u32,
    /// Floor of every backoff sleep, in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling of every backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-attempt socket read/write timeout; `None` blocks.
    pub attempt_timeout_ms: Option<u64>,
    /// Overall wall-clock budget for the logical request, also
    /// propagated to the server as `deadline_ms` (shrinking with each
    /// attempt) so queued work the client has abandoned is shed.
    pub deadline_ms: Option<u64>,
    /// Seed of the jitter stream — same seed, same backoff schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 4,
            base_backoff_ms: 10,
            backoff_cap_ms: 2_000,
            attempt_timeout_ms: Some(10_000),
            deadline_ms: None,
            seed: 0,
        }
    }
}

/// Why a logical request gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every attempt in the budget failed transiently; `last` renders
    /// the final failure.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// The last transient failure, rendered.
        last: String,
    },
    /// A `run` failed after its frame may have reached the daemon, so
    /// resending it could execute it twice.
    NotRetryable {
        /// What failed, rendered.
        reason: String,
    },
    /// The overall deadline expired before an answer arrived.
    DeadlineExceeded,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            ClientError::NotRetryable { reason } => {
                write!(f, "not retried (request may have executed): {reason}")
            }
            ClientError::DeadlineExceeded => write!(f, "client deadline exceeded"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Where in the attempt a transport failure happened — the fact the
/// retry rule turns on for a `run`.
enum Transport {
    /// The server provably never saw the frame.
    BeforeSend(String),
    /// Bytes went out; the request may have executed.
    AfterSend(String),
}

impl Transport {
    fn render(&self) -> &str {
        match self {
            Transport::BeforeSend(s) | Transport::AfterSend(s) => s,
        }
    }
}

/// The splitmix64 stream behind the jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of decorrelated jitter: the next sleep, in
/// `[base, base + max(3·prev, base))` capped.  The *previous* sleep (not
/// the attempt index) scales the window, which decorrelates clients
/// that started in sync.
fn next_backoff(rng: &mut u64, prev_ms: u64, base_ms: u64, cap_ms: u64) -> u64 {
    let span = prev_ms.max(1).saturating_mul(3).max(base_ms.max(1));
    (base_ms + splitmix64(rng) % span).min(cap_ms.max(base_ms))
}

/// The pure backoff schedule: `n` decorrelated-jitter sleeps for a
/// seed.  Exposed so tests can assert the client's recorded sleeps
/// against the closed form (determinism is part of the contract).
pub fn backoff_schedule(seed: u64, base_ms: u64, cap_ms: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    let mut prev = base_ms;
    (0..n)
        .map(|_| {
            prev = next_backoff(&mut state, prev, base_ms, cap_ms);
            prev
        })
        .collect()
}

/// A reconnecting, retrying client for one serve socket.  One instance
/// is a single logical caller: calls are sequential, each opening a
/// fresh connection per attempt (a daemon restart invalidates old
/// connections anyway, and a fresh connect is what detects it).
pub struct Client {
    path: PathBuf,
    cfg: ClientConfig,
    rng: u64,
    prev_sleep: u64,
    sleeps: Vec<u64>,
}

impl Client {
    /// A client for the daemon at `path`.
    pub fn new(path: &Path, cfg: ClientConfig) -> Client {
        let rng = cfg.seed;
        let prev_sleep = cfg.base_backoff_ms;
        Client {
            path: path.to_path_buf(),
            cfg,
            rng,
            prev_sleep,
            sleeps: Vec::new(),
        }
    }

    /// Every backoff sleep performed so far, in milliseconds — the
    /// observable half of the determinism contract.
    pub fn sleeps(&self) -> &[u64] {
        &self.sleeps
    }

    /// Issue one logical request under the module's retry rule.
    /// Returns the server's answer (including non-transient server
    /// errors — those are answers, not failures) or why the budget ran
    /// out.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let start = Instant::now();
        let overall = self.cfg.deadline_ms.map(Duration::from_millis);
        let mut last = String::new();
        let mut attempts = 0u32;
        while attempts < self.cfg.max_attempts.max(1) {
            let remaining = match overall {
                Some(d) => match d.checked_sub(start.elapsed()) {
                    Some(r) if !r.is_zero() => Some(r),
                    _ => return Err(ClientError::DeadlineExceeded),
                },
                None => None,
            };
            attempts += 1;
            match self.attempt(req, remaining) {
                Ok(resp) => {
                    let transient = resp
                        .code
                        .as_deref()
                        .is_some_and(|c| c == "ALP0012" || c == "ALP0015");
                    if !transient {
                        return Ok(resp);
                    }
                    last = format!(
                        "{}: {}",
                        resp.code.as_deref().unwrap_or(""),
                        resp.error.as_deref().unwrap_or("shed")
                    );
                }
                Err(t) => {
                    if req.op == RequestOp::Run && matches!(t, Transport::AfterSend(_)) {
                        return Err(ClientError::NotRetryable {
                            reason: t.render().to_string(),
                        });
                    }
                    last = t.render().to_string();
                }
            }
            if attempts < self.cfg.max_attempts.max(1) {
                self.backoff(start, overall)?;
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One wire attempt: fresh connection, shrunken deadline stamped
    /// into the frame, one response line back.
    fn attempt(&self, req: &Request, remaining: Option<Duration>) -> Result<Response, Transport> {
        let stream = UnixStream::connect(&self.path)
            .map_err(|e| Transport::BeforeSend(format!("connect {}: {e}", self.path.display())))?;
        let timeout = match (self.cfg.attempt_timeout_ms, remaining) {
            (Some(a), Some(r)) => Some(Duration::from_millis(a).min(r)),
            (Some(a), None) => Some(Duration::from_millis(a)),
            (None, r) => r,
        };
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| Transport::BeforeSend(format!("set timeout: {e}")))?;
        let mut wire = req.clone();
        // Propagate what is left of the client budget, not the original
        // figure: the server sheds queued work whose client has already
        // given up.
        if let Some(r) = remaining {
            wire.deadline_ms = Some(r.as_millis().min(u128::from(u64::MAX)) as u64);
        }
        let mut line = wire.encode();
        line.push('\n');
        let mut w = stream
            .try_clone()
            .map_err(|e| Transport::BeforeSend(format!("clone stream: {e}")))?;
        w.write_all(line.as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| Transport::AfterSend(format!("write request: {e}")))?;
        let mut resp_line = String::new();
        BufReader::new(stream)
            .read_line(&mut resp_line)
            .map_err(|e| Transport::AfterSend(format!("read response: {e}")))?;
        if resp_line.trim().is_empty() {
            return Err(Transport::AfterSend("connection closed mid-call".into()));
        }
        Response::decode(&resp_line).map_err(|e| Transport::AfterSend(format!("decode: {e}")))
    }

    /// Sleep the next decorrelated-jitter step, recorded, clipped to
    /// the overall deadline.
    fn backoff(&mut self, start: Instant, overall: Option<Duration>) -> Result<(), ClientError> {
        let (base, cap) = (self.cfg.base_backoff_ms, self.cfg.backoff_cap_ms);
        let sleep_ms = next_backoff(&mut self.rng, self.prev_sleep, base, cap);
        self.prev_sleep = sleep_ms;
        self.sleeps.push(sleep_ms);
        let mut sleep = Duration::from_millis(sleep_ms);
        if let Some(d) = overall {
            let left = d
                .checked_sub(start.elapsed())
                .ok_or(ClientError::DeadlineExceeded)?;
            if left <= sleep {
                return Err(ClientError::DeadlineExceeded);
            }
            sleep = sleep.min(left);
        }
        std::thread::sleep(sleep);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_capped() {
        let a = backoff_schedule(42, 10, 200, 8);
        let b = backoff_schedule(42, 10, 200, 8);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().all(|&s| (10..=200).contains(&s)), "{a:?}");
        let c = backoff_schedule(43, 10, 200, 8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn client_sleeps_match_the_closed_form() {
        // No server at this path: every attempt fails before send, so a
        // plan request burns the whole budget and sleeps between tries.
        let dir = std::env::temp_dir().join(format!("alp-client-gone-{}", std::process::id()));
        let mut client = Client::new(
            &dir.join("missing.sock"),
            ClientConfig {
                max_attempts: 4,
                base_backoff_ms: 1,
                backoff_cap_ms: 4,
                seed: 7,
                ..ClientConfig::default()
            },
        );
        let req = Request::plan(1, "doall (i, 0, 15) { A[i] = A[i]; }");
        let err = client.call(&req).unwrap_err();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 4, .. }),
            "{err:?}"
        );
        assert_eq!(client.sleeps(), backoff_schedule(7, 1, 4, 3).as_slice());
    }

    #[test]
    fn a_run_that_never_reached_the_server_is_retried() {
        // BeforeSend (connect refused) is retried even for a run.
        let dir = std::env::temp_dir().join(format!("alp-client-none-{}", std::process::id()));
        let mut client = Client::new(
            &dir.join("missing.sock"),
            ClientConfig {
                max_attempts: 3,
                base_backoff_ms: 1,
                backoff_cap_ms: 2,
                ..ClientConfig::default()
            },
        );
        let req = Request::run(1, "doall (i, 0, 15) { A[i] = A[i]; }");
        let err = client.call(&req).unwrap_err();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 3, .. }),
            "connect refusal never reached the server, so even a run \
             retries: {err:?}"
        );
    }
}
