//! A repeat of a request is known by its text: the cache records the
//! key each source text parsed to, and a text it has recorded finds its
//! plan with no parse.  These tests hold that index to the answers the
//! parse path gives: a text never stands for another request's
//! parameters, a text the index does not know still finds its plan by
//! fingerprint, an evicted plan is computed again, and the socket and
//! `handle_now` say the same bytes.

use alp_plan::shard::MAX_TEXT_BYTES;
use alp_serve::{Request, RequestOp, Response, ServeConfig, Server, ServerStats};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

const SRC: &str = "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i,j] + B[i+1,j]; } }";

/// The same nest with other index names and other spacing: structurally
/// equal, so the same fingerprint, but another text.
const RENAMED: &str =
    "doall (x, 0, 63) {\n  doall (y, 0, 63) {\n    A[x,y] = B[x,y] + B[x+1,y];\n  }\n}";

fn server(cache_capacity: usize) -> Server {
    Server::new(ServeConfig {
        shards: 1,
        cache_capacity,
        ..ServeConfig::default()
    })
}

fn plan(server: &Server, source: &str, edit: impl FnOnce(&mut Request)) -> Response {
    let mut req = Request::plan(1, source);
    edit(&mut req);
    let resp = server.handle_now(&req);
    assert!(resp.ok, "{source}: {resp:?}");
    resp
}

fn label(resp: &Response) -> &str {
    resp.cache.as_deref().expect("a cache label")
}

#[test]
fn the_same_text_with_other_parameters_never_shares_an_entry() {
    let server = server(64);
    type Edit = fn(&mut Request);
    let variants: [(&str, Edit, i128); 4] = [
        ("default", |_| {}, 16),
        ("processors", |r| r.plan.processors = 8, 8),
        ("no_check", |r| r.plan.check = false, 16),
        ("certify", |r| r.plan.certify = true, 16),
    ];
    for (round, expected) in [(0, "computed"), (1, "hit"), (2, "hit")] {
        for (name, edit, tiles) in variants {
            let resp = plan(&server, SRC, edit);
            assert_eq!(label(&resp), expected, "{name}, round {round}");
            assert_eq!(resp.tiles, Some(tiles), "{name}, round {round}");
        }
    }
    let stats = server.stats();
    assert_eq!((stats.misses, stats.hits), (4, 8), "{stats:?}");
}

#[test]
fn a_renamed_text_is_a_hit_through_the_parse_path() {
    let server = server(64);
    let first = plan(&server, SRC, |_| {});
    assert_eq!(label(&first), "computed");
    // The index does not know the renamed text; its parse finds the plan
    // by fingerprint, and the new text is recorded beside the old one.
    // Going back and forth, each text is a hit every time.
    for source in [RENAMED, RENAMED, SRC, RENAMED, SRC, SRC] {
        let resp = plan(&server, source, |_| {});
        assert_eq!(label(&resp), "hit", "{source}");
        assert_eq!(resp.fingerprint, first.fingerprint, "{source}");
    }
    let stats = server.stats();
    assert_eq!((stats.misses, stats.hits), (1, 6), "{stats:?}");
}

/// A source past the index's length limit is never recorded, so every
/// repeat parses — and still hits, through its fingerprint.
#[test]
fn a_text_over_the_length_limit_hits_through_the_parse_path() {
    let server = server(64);
    let padded = format!("{SRC}{}", " ".repeat(MAX_TEXT_BYTES));
    let first = plan(&server, &padded, |_| {});
    assert_eq!(label(&first), "computed");
    for source in [padded.as_str(), padded.as_str(), SRC] {
        let resp = plan(&server, source, |_| {});
        assert_eq!(label(&resp), "hit");
        assert_eq!(resp.fingerprint, first.fingerprint);
    }
}

#[test]
fn a_text_whose_plan_was_evicted_is_computed_again() {
    // One shard holding one plan: each new nest evicts the last.
    let server = server(1);
    let other = "doall (i, 0, 31) { C[i] = D[i]; }";
    assert_eq!(label(&plan(&server, SRC, |_| {})), "computed");
    assert_eq!(label(&plan(&server, SRC, |_| {})), "hit");
    assert_eq!(label(&plan(&server, other, |_| {})), "computed");
    assert_eq!(label(&plan(&server, SRC, |_| {})), "computed");
    assert_eq!(label(&plan(&server, RENAMED, |_| {})), "hit");
    assert_eq!(label(&plan(&server, other, |_| {})), "computed");
    assert_eq!(label(&plan(&server, other, |_| {})), "hit");
    let stats = server.stats();
    assert_eq!((stats.misses, stats.evictions), (4, 3), "{stats:?}");
}

/// A conversation over the socket and the same one through
/// `handle_now`, each on a server of its own: every reply is the same
/// line — hits by text, hits through a parse, compiles, a run, a parse
/// error, an infeasible request and an eviction.
#[test]
fn handle_now_and_the_socket_give_byte_identical_replies() {
    let mut requests = Vec::new();
    let mut push = |source: &str, edit: &dyn Fn(&mut Request)| {
        let mut req = Request::plan(requests.len() as i128, source);
        edit(&mut req);
        requests.push(req);
    };
    let other = "doall (i, 0, 31) { C[i] = D[i]; }";
    push(SRC, &|_| {});
    push(SRC, &|_| {});
    push(SRC, &|r| r.want_plan = true);
    push(RENAMED, &|_| {});
    push(SRC, &|r| r.plan.processors = 8);
    push(SRC, &|r| r.plan.certify = true);
    push(SRC, &|r| {
        r.op = RequestOp::Run;
        r.run.threads = 2;
    });
    // The cache holds three plans: this one evicts the 8-processor plan,
    // which then comes back as a compile.
    push(other, &|_| {});
    push(other, &|_| {});
    push(SRC, &|r| r.plan.processors = 8);
    push("doall (i, 0", &|_| {});
    push("doall (i, 0, 2) { A[i] = B[i]; }", &|r| {
        r.plan.processors = 4
    });
    push(RENAMED, &|r| r.op = RequestOp::Run);

    let config = || ServeConfig {
        shards: 1,
        cache_capacity: 3,
        ..ServeConfig::default()
    };
    let in_process = Server::new(config());
    let expected: Vec<String> = (requests.iter())
        .map(|req| in_process.handle_now(req).encode())
        .collect();

    let path = std::env::temp_dir().join(format!("alp-text-index-{}.sock", std::process::id()));
    let handle = Server::new(config()).serve(&path).expect("binds");
    let stream = UnixStream::connect(&path).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;
    let got: Vec<String> = (requests.iter())
        .map(|req| {
            writeln!(writer, "{}", req.encode()).expect("sends");
            let mut line = String::new();
            reader.read_line(&mut line).expect("reads");
            line.trim_end_matches('\n').to_string()
        })
        .collect();
    drop((reader, writer));
    let socket_stats = handle.shutdown();

    assert_eq!(got, expected);
    let labels: Vec<Option<String>> = (expected.iter())
        .map(|line| Response::decode(line).expect("decodes").cache)
        .collect();
    let [computed, hit] = ["computed", "hit"].map(|s| Some(s.to_string()));
    assert_eq!(
        labels,
        [
            computed.clone(),
            hit.clone(),
            hit.clone(),
            hit.clone(),
            computed.clone(),
            computed.clone(),
            hit.clone(),
            computed.clone(),
            hit.clone(),
            computed.clone(),
            None,
            None,
            hit,
        ]
    );
    let counts = |s: ServerStats| (s.hits, s.misses, s.evictions, s.failures);
    assert_eq!(counts(in_process.stats()), counts(socket_stats));
}
