//! Resilient-client tests against a deliberately flaky transport.
//!
//! A proxy socket sits between the client and a real server and
//! misbehaves on a deterministic schedule — dropping connections
//! before relaying, or reading the request and dying without a reply
//! (the ambiguous "did it execute?" case).  The contract under test:
//!
//! * retries converge **bitwise** to the fault-free answer;
//! * a `run` is never resent once bytes may have reached the server,
//!   whatever its plan's certificate would say — runs are not
//!   coalesced, so a resend would execute the nest twice;
//! * exhaustion and deadline produce typed errors, not hangs.

use alp_serve::{Client, ClientConfig, ClientError, Request, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn sock_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "alp-client-{}-{tag}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// How the proxy treats one accepted connection.
#[derive(Clone, Copy)]
enum ProxyMode {
    /// Close immediately: the client's write (or read) fails fast.
    Drop,
    /// Read the full request — bytes provably reached "the server" —
    /// then die without replying.
    ReadThenDrop,
    /// Relay the request to the real server and the response back.
    Forward,
}

/// A single-threaded proxy: connection `n` behaves per `schedule[n]`
/// (sticking to `Forward` past the end).  Returns the proxy path.
fn flaky_proxy(upstream: PathBuf, schedule: Vec<ProxyMode>, tag: &str) -> PathBuf {
    let path = sock_path(tag);
    let listener = UnixListener::bind(&path).expect("bind proxy");
    std::thread::spawn(move || {
        let served = AtomicUsize::new(0);
        for stream in listener.incoming() {
            let Ok(client) = stream else { break };
            let n = served.fetch_add(1, Ordering::SeqCst);
            let mode = schedule.get(n).copied().unwrap_or(ProxyMode::Forward);
            match mode {
                ProxyMode::Drop => drop(client),
                ProxyMode::ReadThenDrop => {
                    let mut line = String::new();
                    let mut r = BufReader::new(client);
                    let _ = r.read_line(&mut line);
                    // Connection dropped with the request consumed and
                    // no response: the ambiguous failure.
                }
                ProxyMode::Forward => {
                    let Ok(server) = UnixStream::connect(&upstream) else {
                        continue;
                    };
                    let mut line = String::new();
                    let mut cr = BufReader::new(client.try_clone().expect("clone"));
                    if cr.read_line(&mut line).is_err() || line.is_empty() {
                        continue;
                    }
                    let mut sw = server.try_clone().expect("clone");
                    if sw.write_all(line.as_bytes()).is_err() {
                        continue;
                    }
                    let mut resp = String::new();
                    if BufReader::new(server).read_line(&mut resp).is_ok() {
                        let mut cw = client;
                        let _ = cw.write_all(resp.as_bytes());
                    }
                }
            }
        }
    });
    path
}

fn fast_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        max_attempts: 5,
        base_backoff_ms: 1,
        backoff_cap_ms: 5,
        seed,
        ..ClientConfig::default()
    }
}

const SRC: &str = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";

#[test]
fn retries_converge_bitwise_to_the_fault_free_answer() {
    let real = sock_path("upstream-bitwise");
    let handle = Server::new(ServeConfig::default())
        .serve(&real)
        .expect("serve");
    let proxy = flaky_proxy(
        real.clone(),
        vec![ProxyMode::Drop, ProxyMode::ReadThenDrop],
        "bitwise",
    );

    let mut want_plan = Request::plan(7, SRC);
    want_plan.want_plan = true;

    // Fault-free answer straight from the server.
    let mut direct = Client::new(&real, fast_cfg(1));
    let clean = direct.call(&want_plan).expect("direct call");
    assert!(clean.ok, "{clean:?}");

    // Two bad connections, then success: the answer is byte-identical.
    let mut client = Client::new(&proxy, fast_cfg(2));
    let resp = client.call(&want_plan).expect("retries converge");
    assert!(resp.ok);
    assert_eq!(client.sleeps().len(), 2, "two backoffs before success");
    assert_eq!(resp.fingerprint, clean.fingerprint);
    assert_eq!(
        resp.plan, clean.plan,
        "retried plan artifact is bitwise equal to the fault-free one"
    );
    handle.shutdown();
}

#[test]
fn exhaustion_surfaces_a_typed_error_not_a_hang() {
    let real = sock_path("upstream-exhaust");
    let handle = Server::new(ServeConfig::default())
        .serve(&real)
        .expect("serve");
    let proxy = flaky_proxy(real.clone(), vec![ProxyMode::Drop; 32], "exhaust");
    let mut client = Client::new(&proxy, fast_cfg(3));
    let err = client.call(&Request::plan(1, SRC)).unwrap_err();
    assert!(
        matches!(err, ClientError::Exhausted { attempts: 5, .. }),
        "{err:?}"
    );
    handle.shutdown();
}

#[test]
fn a_certified_run_aborts_on_ambiguous_failure() {
    let real = sock_path("upstream-gate");
    let handle = Server::new(ServeConfig::default())
        .serve(&real)
        .expect("serve");

    // The request is consumed, then the connection dies: the client
    // cannot know whether the run executed.  Asking for a certificate
    // changes nothing — the daemon's `run` reads none.
    let ambiguous = flaky_proxy(real.clone(), vec![ProxyMode::ReadThenDrop], "gate");
    let mut run = Request::run(1, SRC);
    run.plan.certify = true;
    let mut client = Client::new(&ambiguous, fast_cfg(4));
    let err = client.call(&run).unwrap_err();
    assert!(
        matches!(err, ClientError::NotRetryable { .. }),
        "a run must not be resent after bytes left: {err:?}"
    );
    assert!(client.sleeps().is_empty(), "no retry, no backoff");
    handle.shutdown();
}

#[test]
fn transient_server_refusals_are_retried() {
    // ALP0015 (draining) is transient: a client pointed at a draining
    // instance keeps retrying (in production it would flip to a
    // replacement; here the budget simply exhausts).
    let real = sock_path("upstream-draining");
    let handle = Server::new(ServeConfig::default())
        .serve(&real)
        .expect("serve");
    handle.begin_drain();
    let mut client = Client::new(&real, fast_cfg(6));
    let err = client.call(&Request::plan(1, SRC)).unwrap_err();
    match err {
        ClientError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 5);
            assert!(last.contains("ALP0015"), "{last}");
        }
        other => panic!("expected exhaustion on ALP0015, got {other:?}"),
    }
    handle.finish(std::time::Duration::from_secs(5));
}
