//! Seeded mutation harness for the DSL front end: the nests the tree
//! ships (the shared table of the parser differential, which holds the
//! examples', the paper's, the ledger generator's and the rest of the
//! grammar's, and the golden `.alp` files), mutated by bit flips, byte
//! inserts and deletes, splices of two inputs and integer literals
//! inflated to the `i64`, `u64` and `i128` edges.  Whatever comes out,
//! `parse` and `parse_program` must return without unwinding — `Ok`, or
//! a `ParseError` at a character boundary of the input — and a nest that
//! parses must read back from its own `display()` as the same IR with
//! the same `fingerprint_hex`, but for two known gaps, each pinned by a
//! test of its own below (CHANGES.md records both as FOUND).
//!
//! Seeds `0..2000` by default; `DSL_MUTATION_SEEDS=lo..hi` picks the
//! range (CI runs a wider one on the release build).  A failure names
//! the seed and the mutant.

#[path = "../../loopir/tests/nests/mod.rs"]
mod nests;

use alp_loopir::{
    parse, parse_program_with_params, parse_with_params, AccessKind, LoopNest, ParseError,
};
use alp_plan::fingerprint_hex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const GOLDENS: &[&str] = &[
    include_str!("../../../tests/golden/example2.alp"),
    include_str!("../../../tests/golden/example8.alp"),
];

/// Literals an integer is inflated to: `i64::MAX`, `u64::MAX` and
/// `i128::MAX` and one past each, `2¹²⁸`, and zero.
const EDGES: &[&str] = &[
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728",
    "340282366920938463463374607431768211456",
    "0",
];

/// Bytes an insert draws from: the grammar's, a digit, letters that
/// start a keyword or the `l$` sigil, a comment, and bytes outside it.
const INSERTS: &[u8] = b"(){}[],;=+-*$/ \n0179ilds_AB#\xc3\xa9";

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn inputs() -> Vec<&'static str> {
    nests::NESTS.iter().chain(GOLDENS).copied().collect()
}

/// One mutation of `bytes`; `other` is the second input of a splice.
fn mutate(bytes: &mut Vec<u8>, other: &[u8], rng: &mut Rng) {
    let at = |rng: &mut Rng, len: usize| rng.below(len + 1);
    match rng.below(5) {
        0 if !bytes.is_empty() => {
            let k = rng.below(bytes.len());
            bytes[k] ^= 1 << rng.below(8);
        }
        1 => {
            let k = at(rng, bytes.len());
            bytes.insert(k, INSERTS[rng.below(INSERTS.len())]);
        }
        2 if !bytes.is_empty() => {
            let k = rng.below(bytes.len());
            let n = (1 + rng.below(4)).min(bytes.len() - k);
            bytes.drain(k..k + n);
        }
        3 => {
            let (k, j) = (at(rng, bytes.len()), at(rng, other.len()));
            bytes.truncate(k);
            bytes.extend_from_slice(&other[j..]);
        }
        _ => {
            // The k-th run of digits, if there is one, becomes an edge.
            let runs: Vec<(usize, usize)> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .map(|i| {
                    let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                    (i, i + len)
                })
                .collect();
            if !runs.is_empty() {
                let (i, end) = runs[rng.below(runs.len())];
                let edge = EDGES[rng.below(EDGES.len())];
                bytes.splice(i..end, edge.bytes());
            }
        }
    }
}

/// The mutant of seed `seed`: one to three mutations of one input.
fn mutant(seed: u64, inputs: &[&str]) -> String {
    let mut rng = Rng(seed);
    let mut bytes = inputs[rng.below(inputs.len())].as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let other = inputs[rng.below(inputs.len())].as_bytes();
        mutate(&mut bytes, other, &mut rng);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A parse error must point into the input, at a character boundary.
fn check_error(e: &ParseError, src: &str) -> Result<(), String> {
    if e.offset <= src.len() && src.is_char_boundary(e.offset) && e.line >= 1 {
        Ok(())
    } else {
        Err(format!("error outside the input: {e:?}"))
    }
}

/// The digits of `i128::MIN`, which the lexer refuses as a literal.
const I128_MIN_DIGITS: &str = "170141183460469231731687303715884105728";

/// Whether `display()` of `nest` (`text`) is known not to read back as
/// `nest`: when it writes `i128::MIN` (refused as `integer literal out
/// of range`), or when a statement accumulates nothing (its `+= 0`
/// reads back with a self-read).
fn known_gap(nest: &LoopNest, text: &str) -> bool {
    text.contains(I128_MIN_DIGITS)
        || nest
            .body
            .iter()
            .any(|st| st.lhs.kind == AccessKind::Accumulate && st.rhs.is_empty())
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
    if known_gap(&nest, &text) {
        // Reading back must still return, `Ok` or an error inside it.
        return match catch_unwind(|| parse_with_params(&text, params)) {
            Err(_) => Err(format!("display unwound when read back:\n{text}")),
            Ok(Err(e)) => check_error(&e, &text),
            Ok(Ok(_)) => Ok(()),
        };
    }
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

fn seeds() -> std::ops::Range<u64> {
    let Ok(range) = std::env::var("DSL_MUTATION_SEEDS") else {
        return 0..2000;
    };
    let (lo, hi) = range
        .split_once("..")
        .expect("DSL_MUTATION_SEEDS is lo..hi");
    lo.parse().expect("lo")..hi.parse().expect("hi")
}

#[test]
fn mutated_nests_parse_or_fail_cleanly_and_read_back_from_their_display() {
    let (inputs, params) = (inputs(), nests::params());
    // The unmutated inputs hold the round trip too.
    for src in &inputs {
        check(src, &params).unwrap_or_else(|e| panic!("{e}\n  input: {src:?}"));
    }
    for seed in seeds() {
        let src = mutant(seed, &inputs);
        check(&src, &params).unwrap_or_else(|e| panic!("seed {seed}: {e}\n  mutant: {src:?}"));
    }
}

/// Known gap: a nest whose IR reaches `i128::MIN` (here through a sum)
/// displays that value as a literal the lexer refuses.
#[test]
fn an_i128_min_value_does_not_read_back() {
    let src = "doall (i, 0, 1) { A[i - 170141183460469231731687303715884105727 - 1] = B[i]; }";
    let nest = parse(src).unwrap();
    let text = nest.display();
    assert!(text.contains(&format!("-{I128_MIN_DIGITS}")), "{text}");
    let e = parse(&text).unwrap_err();
    assert_eq!(e.message, "integer literal out of range");
}

/// Known gap: an accumulate with nothing on its right-hand side (`l$C[i]
/// = 0`) displays as the `+= 0` of its pinned fingerprint, which reads
/// back with the self-read `+=` implies.
#[test]
fn an_accumulate_of_nothing_reads_back_with_a_self_read() {
    let nest = parse("doall (i, 0, 3) { l$C[i] = 0; }").unwrap();
    let text = nest.display();
    assert_eq!(text, "doall (i, 0, 3) {\n  l$C[i] += 0;\n}\n");
    let again = parse(&text).unwrap();
    assert_eq!(again.body[0].rhs, [nest.body[0].lhs.clone()]);
}
