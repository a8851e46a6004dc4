//! Seeded mutation harness for the plan codec: the plan files the tree
//! ships (`tests/golden/*.plan.json` and the malformed corpus
//! `tests/corpus/*.plan.json`), mutated by the mutators the DSL harness
//! uses.  Whatever comes out, `PartitionPlan::from_json_str` must return
//! without unwinding — a plan, or a `PlanError` with its `ALP` code —
//! and a plan it returns must re-encode to a fixed point:
//! `to_json_string` decodes to the same plan, which encodes to the same
//! bytes.
//!
//! Seeds `0..2000` by default; `PLAN_MUTATION_SEEDS=lo..hi` picks the
//! range (CI runs a wider one on the release build).  A failure names
//! the seed and the mutant.

mod mutation;

use alp_plan::PartitionPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Bytes an insert draws from: JSON's punctuation, a digit, the letters
/// that start a literal or an exponent, an escape, and bytes outside it.
const INSERTS: &[u8] = b"{}[],:\"-.0179eEtfnu\\ \n#\xc3\xa9";

/// Every `.plan.json` file of the golden and the corpus directories.
fn inputs() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests");
    let mut files: Vec<_> = ["golden", "corpus"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(root.join(dir)).unwrap())
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".plan.json"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "the goldens and the corpus: {files:?}");
    files
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect()
}

fn check(src: &str) -> Result<(), String> {
    let decoded = catch_unwind(|| PartitionPlan::from_json_str(src));
    let plan = match decoded.map_err(|_| "decode unwound".to_string())? {
        Ok(plan) => plan,
        Err(e) => {
            let shown = catch_unwind(|| (e.code(), e.to_string()));
            return match shown {
                Ok((code, _)) if code.starts_with("ALP") => Ok(()),
                Ok((code, text)) => Err(format!("error without an ALP code: {code} {text}")),
                Err(_) => Err("the error unwound when shown".to_string()),
            };
        }
    };
    let text = catch_unwind(AssertUnwindSafe(|| plan.to_json_string()))
        .map_err(|_| "encode unwound".to_string())?;
    let again = PartitionPlan::from_json_str(&text)
        .map_err(|e| format!("the re-encoding does not decode: {e}\n{text}"))?;
    if again != plan {
        return Err(format!("the re-encoding decodes to another plan:\n{text}"));
    }
    if again.to_json_string() != text {
        return Err(format!("the re-encoding is not a fixed point:\n{text}"));
    }
    Ok(())
}

#[test]
fn mutated_plans_decode_or_fail_cleanly_and_re_encode_to_a_fixed_point() {
    let inputs = inputs();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    // The unmutated files hold it too.
    for src in &inputs {
        check(src).unwrap_or_else(|e| panic!("{e}\n  input: {src:?}"));
    }
    for seed in mutation::seeds("PLAN_MUTATION_SEEDS", 2000) {
        let src = mutation::mutant(seed, &inputs, INSERTS);
        check(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n  mutant: {src:?}"));
    }
}
