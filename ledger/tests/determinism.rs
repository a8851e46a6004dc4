//! The generator is a pure function of the seed, and the compiler it
//! feeds is deterministic: without both, no count in the ledger can be
//! compared across runs.

use alp_ledger::compile_cold;
use alp_ledger::gen::{self, Schedule, Scheduled};
use alp_ledger::pass::Pieces;
use alp_ledger::trace::Tracer;
use std::sync::Arc;

fn corpus_text(seed: u64, shape: &gen::Shape) -> String {
    gen::corpus(seed, 128, shape)
        .iter()
        .map(|s| format!("{} P={}\n", s.source, s.processors))
        .collect()
}

fn schedule(seed: u64, client: usize) -> Vec<Scheduled> {
    Schedule::new(seed, client, Arc::new(gen::zipf_cdf(2048)))
        .take(5000)
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_corpus_and_schedule() {
    for shape in [&gen::COMPILE_SHAPE, &gen::SERVE_SHAPE] {
        assert_eq!(corpus_text(7, shape), corpus_text(7, shape));
        assert_ne!(corpus_text(7, shape), corpus_text(8, shape));
    }
    assert_eq!(schedule(7, 0), schedule(7, 0));
    assert_ne!(schedule(7, 0), schedule(8, 0));
    // Clients of one seed draw from different streams.
    assert_ne!(
        schedule(7, 0).iter().map(|s| s.rank).collect::<Vec<_>>(),
        schedule(7, 1).iter().map(|s| s.rank).collect::<Vec<_>>()
    );
    // A longer schedule extends a shorter one: the closed loop may stop
    // anywhere without changing what came before.
    let long: Vec<Scheduled> = Schedule::new(7, 0, Arc::new(gen::zipf_cdf(2048)))
        .take(6000)
        .collect();
    assert_eq!(&long[..5000], &schedule(7, 0)[..]);
}

#[test]
fn compile_cold_plan_json_is_byte_identical_across_passes() {
    let first = compile_cold::setup(3, 36, &mut Pieces::default()).expect("set-up checks pass");
    let second = compile_cold::setup(3, 36, &mut Pieces::default()).expect("set-up checks pass");
    assert_eq!(first.expected, second.expected);
    assert!(first.expected.iter().all(|json| !json.is_empty()));
    let other = compile_cold::setup(4, 36, &mut Pieces::default()).expect("set-up checks pass");
    assert_ne!(first.expected, other.expected);
}

#[test]
fn the_traced_decomposition_is_the_facade_pipeline() {
    // The spans are read as a breakdown of `Compiler::plan`; that only
    // holds if the layer-by-layer path produces the facade's bytes.
    let ready = compile_cold::setup(5, 36, &mut Pieces::default()).expect("set-up checks pass");
    let mut tracer = Tracer::new(true);
    for (op, expected) in ready.ops.iter().zip(&ready.expected) {
        let json = compile_cold::compile_once_layers(op, &mut tracer).expect("compiles");
        assert_eq!(&json, expected, "{}", op.spec.source);
    }
    let spans = tracer.finish();
    assert_eq!(
        spans.iter().filter(|s| s.name == "compile.op").count(),
        ready.ops.len()
    );
    assert!(ready.ops.iter().any(|op| op.skewed));
}
