//! Runs the `ledger` binary in `--quick` mode and holds its output to
//! `BENCHMARK.json`: every metric printed exactly once per pass, by the
//! declared name, finite, and with no failed operation.

use alp_ledger::json::{self, Value};
use alp_ledger::spec::{self, MetricSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, table: &str) -> Vec<(String, String, String)> {
    doc.get(table)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{table}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn compiled(table: &[MetricSpec]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
        .collect()
}

/// A fresh working directory for one invocation; the binary keeps its
/// scratch files under `target/ledger` of wherever it runs.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn ledger(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("ledger runs");
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn benchmark_json_restates_the_compiled_tables() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), compiled(spec::END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), compiled(spec::PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);
    let mut names: Vec<&str> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .map(|m| m.name)
        .chain(spec::WORKLOADS)
        .collect();
    assert!(names.iter().all(|n| is_name(n)), "a name breaks the syntax");
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "a name is used twice"
    );
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for m in doc.get("end_to_end").and_then(Value::as_arr).expect("list") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!((0.0..=0.25).contains(&bound));
    }
}

#[test]
fn quick_run_prints_every_metric_once_and_fails_nothing() {
    let dir = workdir("smoke-full");
    let (ok, text) = ledger(&dir, &["--seed", "1", "--quick", "--out", "result.json"]);
    assert!(ok, "ledger --quick failed:\n{text}");

    // Split the report into passes at the `== workload … ==` headers.
    let mut passes: Vec<(String, bool, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("== ") {
            let workload = head
                .split_whitespace()
                .next()
                .expect("workload")
                .to_string();
            passes.push((workload, head.contains("traced=1"), Vec::new()));
        } else if let Some((_, _, lines)) = passes.last_mut() {
            lines.push(line);
        }
    }
    let expected: Vec<(String, bool)> = spec::WORKLOADS
        .iter()
        .flat_map(|w| [(w.to_string(), false), (w.to_string(), true)])
        .collect();
    let seen: Vec<(String, bool)> = passes.iter().map(|(w, t, _)| (w.clone(), *t)).collect();
    assert_eq!(seen, expected);

    for (workload, traced, lines) in &passes {
        let table = if *traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let mut printed: Vec<&str> = Vec::new();
        for line in lines.iter().filter(|l| l.starts_with("metric ")) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert!(is_name(f[1]), "{workload}: bad metric name in `{line}`");
            let value: f64 = f[2]
                .parse()
                .unwrap_or_else(|_| panic!("{workload}: `{line}`"));
            assert!(value.is_finite(), "{workload}: `{line}`");
            let spec = table.iter().find(|m| m.name == f[1]);
            assert_eq!(spec.map(|m| m.unit), Some(f[3]), "{workload}: `{line}`");
            if !*traced {
                assert!(value > 0.0, "{workload}: end-to-end metric is 0: `{line}`");
            }
            printed.push(f[1]);
        }
        let names: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(printed, names, "{workload} traced={traced}");
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("ops ") && l.ends_with("failed_share=0")),
            "{workload} traced={traced}: {lines:?}"
        );
    }

    // The result file says the same and compares clean against itself.
    let result = std::fs::read_to_string(dir.join("result.json")).expect("result file");
    let doc = json::parse(&result).expect("result file parses");
    let recorded = doc.get("passes").and_then(Value::as_arr).expect("passes");
    assert_eq!(recorded.len(), 8);
    assert!(recorded
        .iter()
        .all(|p| p.get("correct").and_then(Value::as_bool) == Some(true)));
    assert!(doc.get("host").and_then(|h| h.get("nproc")).is_some());
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (ok, table) = ledger(
        &dir,
        &[
            "--compare",
            "result.json",
            "result.json",
            "--spec",
            spec_path.to_str().expect("utf-8 path"),
        ],
    );
    assert!(
        ok,
        "a file compared against itself has a worse row:\n{table}"
    );
    assert_eq!(
        table.matches(" same").count(),
        4 * (spec::END_TO_END.len() + 1),
        "{table}"
    );
    // Scratch files are gone; only reports remain.
    let left: Vec<String> = std::fs::read_dir(dir.join("target/ledger"))
        .expect("report dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert!(left.is_empty(), "scratch left behind: {left:?}");
}

#[test]
fn one_named_pass_ends_with_the_contract_line() {
    let dir = workdir("smoke-contract");
    for (trace, table) in [("0", spec::END_TO_END), ("1", spec::PER_LAYER)] {
        let (ok, text) = ledger(
            &dir,
            &[
                "--workload",
                "serve-zipf",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(ok, "{text}");
        let last = text.lines().last().expect("output");
        let doc = json::parse(last).unwrap_or_else(|e| panic!("{e}: `{last}`"));
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(
            doc.get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = doc.get("metrics").and_then(Value::as_obj).expect("metrics");
        let mut names: Vec<&str> = table.iter().map(|m| m.name).collect();
        names.sort_unstable();
        assert_eq!(
            metrics.keys().map(String::as_str).collect::<Vec<_>>(),
            names
        );
        for (m, spec) in metrics.values().zip(&names) {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{spec}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{spec}");
        }
    }
}

#[test]
fn bad_arguments_and_missing_files_exit_non_zero_without_a_result() {
    let dir = workdir("smoke-errors");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "x"],
        &["--trace", "2", "--seed", "1"],
        &[],
        &["--compare", "absent-a.json", "absent-b.json"],
    ] {
        let (ok, text) = ledger(&dir, args);
        assert!(!ok, "{args:?} succeeded:\n{text}");
        assert!(!text.contains("\"correct\""), "{args:?} printed a result");
    }
}
