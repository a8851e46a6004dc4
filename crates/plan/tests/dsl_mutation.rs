//! Seeded mutation harness for the DSL front end: the nests the tree
//! ships (the shared table of the parser differential, which holds the
//! examples', the paper's, the ledger generator's and the rest of the
//! grammar's, and the golden `.alp` files), mutated by the shared
//! seeded mutators of `mutation/mod.rs`.  Whatever comes out,
//! `parse` and `parse_program` must return without unwinding — `Ok`, or
//! a `ParseError` at a character boundary of the input — and a nest that
//! parses must read back from its own `display()` as the same IR with
//! the same `fingerprint_hex`.
//!
//! Seeds `0..2000` by default; `DSL_MUTATION_SEEDS=lo..hi` picks the
//! range (CI runs a wider one on the release build).  A failure names
//! the seed and the mutant.

mod mutation;
#[path = "../../loopir/tests/nests/mod.rs"]
mod nests;

use alp_loopir::{parse, parse_program_with_params, parse_with_params, ParseError};
use alp_plan::fingerprint_hex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const GOLDENS: &[&str] = &[
    include_str!("../../../tests/golden/example2.alp"),
    include_str!("../../../tests/golden/example8.alp"),
];

/// Bytes an insert draws from: the grammar's, a digit, letters that
/// start a keyword or the `l$` sigil, a comment, and bytes outside it.
const INSERTS: &[u8] = b"(){}[],;=+-*$/ \n0179ilds_AB#\xc3\xa9";

fn inputs() -> Vec<&'static str> {
    nests::NESTS.iter().chain(GOLDENS).copied().collect()
}

/// A parse error must point into the input, at a character boundary.
fn check_error(e: &ParseError, src: &str) -> Result<(), String> {
    if e.offset <= src.len() && src.is_char_boundary(e.offset) && e.line >= 1 {
        Ok(())
    } else {
        Err(format!("error outside the input: {e:?}"))
    }
}

fn check(src: &str, params: &HashMap<String, i128>) -> Result<(), String> {
    let parsed =
        catch_unwind(|| parse_with_params(src, params)).map_err(|_| "parse unwound".to_string())?;
    let program = catch_unwind(|| parse_program_with_params(src, params))
        .map_err(|_| "parse_program unwound".to_string())?;
    if let Err(e) = &program {
        check_error(e, src)?;
    }
    let nest = match parsed {
        Err(e) => return check_error(&e, src),
        Ok(nest) => nest,
    };
    let (text, hex) = catch_unwind(AssertUnwindSafe(|| {
        (nest.display(), fingerprint_hex(&nest))
    }))
    .map_err(|_| "display or fingerprint unwound".to_string())?;
    let again = parse_with_params(&text, params)
        .map_err(|e| format!("display does not parse back: {e}\n{text}"))?;
    if again != nest {
        return Err(format!("display parses back to another nest:\n{text}"));
    }
    if fingerprint_hex(&again) != hex {
        return Err(format!(
            "display parses back to another fingerprint:\n{text}"
        ));
    }
    Ok(())
}

#[test]
fn mutated_nests_parse_or_fail_cleanly_and_read_back_from_their_display() {
    let (inputs, params) = (inputs(), nests::params());
    // The unmutated inputs hold the round trip too.
    for src in &inputs {
        check(src, &params).unwrap_or_else(|e| panic!("{e}\n  input: {src:?}"));
    }
    for seed in mutation::seeds("DSL_MUTATION_SEEDS", 2000) {
        let src = mutation::mutant(seed, &inputs, INSERTS);
        check(&src, &params).unwrap_or_else(|e| panic!("seed {seed}: {e}\n  mutant: {src:?}"));
    }
}

/// A nest whose IR reaches `i128::MIN` (here through a sum) displays
/// that value as a negated 2¹²⁷, which reads back, as a constant and as
/// a coefficient; 2¹²⁷ unnegated is still out of range.
#[test]
fn an_i128_min_value_reads_back() {
    for src in [
        "doall (i, 0, 1) { A[i - 170141183460469231731687303715884105727 - 1] = B[i]; }",
        "doall (i, 0, 1) { A[-170141183460469231731687303715884105727*i - i] = B[i]; }",
        "doall (i, -170141183460469231731687303715884105728, -170141183460469231731687303715884105727) { A[i] = B[i]; }",
    ] {
        let nest = parse(src).unwrap();
        let text = nest.display();
        assert!(text.contains("-170141183460469231731687303715884105728"), "{text}");
        assert_eq!(parse(&text).unwrap(), nest, "{text}");
    }
    for src in [
        "doall (i, 0, 1) { A[170141183460469231731687303715884105728 + i] = B[i]; }",
        "doall (i, 0, 1) { A[i - -170141183460469231731687303715884105728] = B[i]; }",
        "doall (i, 170141183460469231731687303715884105728, 1) { A[i] = B[i]; }",
    ] {
        let e = parse(src).unwrap_err();
        assert_eq!(e.message, "integer literal out of range", "{src}");
    }
}

/// An accumulate with nothing on its right-hand side (`l$C[i] = 0`) is
/// a synchronized store: it displays with `=`, which reads back as
/// itself and keeps its fingerprint, where a `+=` would read back with
/// the self-read it implies.
#[test]
fn an_accumulate_of_nothing_reads_back() {
    let nest = parse("doall (i, 0, 3) { l$C[i] = 0; }").unwrap();
    assert!(nest.body[0].rhs.is_empty());
    let text = nest.display();
    assert_eq!(text, "doall (i, 0, 3) {\n  l$C[i] = 0;\n}\n");
    let again = parse(&text).unwrap();
    assert_eq!(again, nest);
    assert_eq!(fingerprint_hex(&again), fingerprint_hex(&nest));
}
