//! Cross-crate tests for the `PartitionPlan` artifact: golden snapshot
//! stability, round-trip fidelity, decode diagnostics, fingerprint
//! invariance, and plan-cache equivalence.

use alp::prelude::*;
use alp::Compiler;

const GOLDEN_SOURCE: &str = include_str!("golden/example8.alp");
const GOLDEN_PLAN: &str = include_str!("golden/example8.plan.json");
/// The exact bytes a pre-calibration (schema-1) build emitted for the
/// same nest — frozen forever to pin backward compatibility.
const GOLDEN_PLAN_V1: &str = include_str!("golden/example8.v1.plan.json");
/// The exact bytes a pre-certificate (schema-2) build emitted — frozen
/// forever, like the v1 snapshot.
const GOLDEN_PLAN_V2: &str = include_str!("golden/example8.v2.plan.json");
/// A skewed (schema-4) Example-2 plan: the first artifact generation to
/// carry a `transform` block.
const GOLDEN_SOURCE_EX2: &str = include_str!("golden/example2.alp");
const GOLDEN_PLAN_V4: &str = include_str!("golden/example2.v4.plan.json");

fn golden_compiler() -> Compiler {
    Compiler::new(64).with_mesh(8, 8)
}

fn golden_nest() -> LoopNest {
    parse(GOLDEN_SOURCE).expect("golden source parses")
}

#[test]
fn golden_snapshot_is_byte_identical() {
    let plan = golden_compiler().plan(&golden_nest()).expect("plan builds");
    let report = certify(&plan).expect("golden plan certifies");
    let certified = plan.with_certificate(report.certificate);
    assert_eq!(
        certified.to_json_string(),
        GOLDEN_PLAN,
        "plan encoding drifted from tests/golden/example8.plan.json; \
         if the change is intentional, re-emit the snapshot with \
         `alp-cli plan -p 64 -m 8x8 --certify --emit tests/golden/example8.plan.json - \
         < tests/golden/example8.alp`"
    );
}

#[test]
fn golden_certificate_proves_all_four_facts() {
    // The shipped golden carries a certificate; re-checking it must
    // succeed and agree that every fact is proven (the example-8 stencil
    // under a [4,4,4] grid is exactly coverage-, disjointness-, bounds-,
    // and idempotence-clean).
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN).expect("golden plan decodes");
    let cert = recheck(&plan).expect("golden certificate re-verifies");
    assert!(cert.coverage && cert.write_disjoint && cert.in_bounds && cert.idempotent);
}

#[test]
fn decode_then_encode_round_trips_bytes() {
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN).expect("golden plan decodes");
    assert_eq!(plan.to_json_string(), GOLDEN_PLAN);
    assert_eq!(plan.processors, 64);
    assert_eq!(plan.mesh, Some((8, 8)));
    assert_eq!(plan.proc_grid, vec![4, 4, 4]);
}

#[test]
fn version_1_golden_decodes_and_reencodes_byte_stably() {
    // Old plan files keep working after the schema-2 calibration
    // extension: the recorded version is preserved, the new fields
    // default, and re-encoding reproduces the v1 bytes exactly.
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN_V1).expect("v1 plan decodes");
    assert_eq!(plan.schema_version, 1);
    assert_eq!(plan.chosen_by, ChosenBy::Analytic);
    assert_eq!(plan.calibration, None);
    assert_eq!(plan.to_json_string(), GOLDEN_PLAN_V1);
    // And every snapshot generation describes the same decision.
    let v3 = PartitionPlan::from_json_str(GOLDEN_PLAN).expect("v3 plan decodes");
    assert_eq!(plan.proc_grid, v3.proc_grid);
    assert_eq!(plan.fingerprint, v3.fingerprint);
}

#[test]
fn version_2_golden_decodes_and_reencodes_byte_stably() {
    // Pre-certificate plan files keep working after the schema-3
    // certificate extension: no certificate defaults in, the recorded
    // version is preserved, and re-encoding reproduces the v2 bytes.
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN_V2).expect("v2 plan decodes");
    assert_eq!(plan.schema_version, 2);
    assert_eq!(plan.certificate, None);
    assert_eq!(plan.to_json_string(), GOLDEN_PLAN_V2);
    let v3 = PartitionPlan::from_json_str(GOLDEN_PLAN).expect("v3 plan decodes");
    assert_eq!(plan.proc_grid, v3.proc_grid);
    assert_eq!(plan.fingerprint, v3.fingerprint);
    // What a build with the calibrated ranking wrote at version 2: the
    // same plan with a `calibration` block, byte-stable too.
    let block = "  \"calibration\": {\n    \"per_tile_ns\": \"1507/1000\",\n    \
                 \"per_line_ns\": \"0/1\",\n    \"per_span_line_ns\": \"3/1000\",\n    \
                 \"per_iter_ns\": \"911/1000\",\n    \"per_rep_ns\": \"42000/1\",\n    \
                 \"samples\": 36\n  },\n";
    let calibrated = GOLDEN_PLAN_V2
        .replace("\"rect-exhaustive\"", "\"rect-exhaustive+latency\"")
        .replace(
            "\"chosen_by\": \"analytic\"",
            "\"chosen_by\": \"calibrated\"",
        )
        .replace(
            "  \"class_footprints\"",
            &format!("{block}  \"class_footprints\""),
        );
    let plan = PartitionPlan::from_json_str(&calibrated).expect("calibrated v2 plan decodes");
    assert_eq!(plan.chosen_by, ChosenBy::Calibrated);
    assert_eq!(plan.calibration.as_ref().map(|c| c.samples), Some(36));
    assert_eq!(plan.to_json_string(), calibrated);
}

#[test]
fn version_4_skewed_golden_is_byte_identical_and_recompilable() {
    // The skewed Example-2 snapshot: recompiling with skewed tiles and
    // re-certifying must reproduce the file byte for byte.
    let nest = parse(GOLDEN_SOURCE_EX2).expect("example2 parses");
    let plan = Compiler::new(16)
        .with_skewed_tiles()
        .plan(&nest)
        .expect("skewed plan builds");
    let report = certify(&plan).expect("skewed plan certifies");
    let certified = plan.with_certificate(report.certificate);
    assert_eq!(
        certified.to_json_string(),
        GOLDEN_PLAN_V4,
        "skewed plan encoding drifted from tests/golden/example2.v4.plan.json; \
         if the change is intentional, re-emit the snapshot with \
         `alp-cli plan -p 16 --skewed --certify --emit tests/golden/example2.v4.plan.json - \
         < tests/golden/example2.alp`"
    );
}

#[test]
fn version_4_golden_decodes_round_trips_and_carries_the_transform() {
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN_V4).expect("v4 plan decodes");
    assert_eq!(plan.schema_version, 4);
    assert_eq!(plan.to_json_string(), GOLDEN_PLAN_V4);
    let t = plan.transform.as_ref().expect("v4 golden is skewed");
    assert_eq!(t.fingerprint(), plan.fingerprint);
    assert_eq!((t.u()[(0, 0)], t.u()[(0, 1)]), (1, 0));
    assert_eq!((t.u()[(1, 0)], t.u()[(1, 1)]), (1, -1));
    // The certificate re-proves in transformed coordinates.
    let cert = recheck(&plan).expect("v4 certificate re-verifies");
    assert!(cert.coverage && cert.write_disjoint && cert.in_bounds && cert.idempotent);
}

#[test]
fn unknown_version_fails_with_diagnostic() {
    let bumped = GOLDEN_PLAN.replace("\"alp-plan\": 3", "\"alp-plan\": 7");
    let err = PartitionPlan::from_json_str(&bumped).expect_err("must reject");
    let msg = err.to_string();
    assert!(msg.contains("version 7 is not supported"), "{msg}");
    assert!(msg.contains("re-emit"), "{msg}");
}

#[test]
fn truncated_input_fails_with_diagnostic() {
    // Every prefix must fail cleanly — no panic, no partial decode.
    for cut in 0..GOLDEN_PLAN.len() - 1 {
        let err =
            PartitionPlan::from_json_str(&GOLDEN_PLAN[..cut]).expect_err("prefix must not decode");
        assert!(!err.to_string().is_empty());
    }
    let msg = PartitionPlan::from_json_str(&GOLDEN_PLAN[..GOLDEN_PLAN.len() / 2])
        .expect_err("half a document must not decode")
        .to_string();
    assert!(msg.contains("truncated"), "{msg}");
}

#[test]
fn fingerprint_is_invariant_under_index_renaming() {
    let renamed = GOLDEN_SOURCE
        .replace('i', "outer")
        .replace('j', "mid")
        .replace('k', "inner");
    let nest = parse(&renamed).expect("renamed source parses");
    assert_eq!(fingerprint(&nest), fingerprint(&golden_nest()));

    let plan = golden_compiler().plan(&nest).expect("plan builds");
    assert_eq!(plan.fingerprint, fingerprint_hex(&golden_nest()));
}

#[test]
fn tampered_source_is_rejected_on_load() {
    let plan = PartitionPlan::from_json_str(GOLDEN_PLAN).expect("golden plan decodes");
    let tampered = GOLDEN_PLAN.replace("doall (k, 1, 64)", "doall (k, 1, 32)");
    assert_ne!(tampered, GOLDEN_PLAN, "replacement must hit");
    let err = PartitionPlan::from_json_str(&tampered)
        .expect("tampered plan still parses")
        .nest()
        .expect_err("fingerprint check must fail");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    assert!(plan.nest().is_ok());
}

#[test]
fn malformed_corpus_is_rejected_with_stable_codes() {
    // Every file in tests/corpus/ is a deliberately broken artifact
    // named `<ALP code>__<defect>.plan.json`.  Decode, the post-decode
    // fingerprint check in `nest()`, or the certificate re-check must
    // reject each with exactly the code in its filename — never a panic
    // or a silent partial decode.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
        let path = entry.expect("corpus entry").path();
        // Subdirectories hold non-artifact corpora (e.g. store/ for the
        // journal corruption suite in tests/store_recovery.rs).
        if path.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let expected = name.split("__").next().expect("code prefix");
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let err: AlpError =
            match PartitionPlan::from_json_str(&text).and_then(|p| p.nest().map(|_| p)) {
                Err(e) => e.into(),
                // Semantic certificate tampering (a flipped verdict bit)
                // survives decode by design; the re-checker catches it.
                Ok(plan) => recheck(&plan)
                    .map(|_| ())
                    .expect_err(&format!("{name} must be rejected"))
                    .into(),
            };
        assert!(!err.to_string().is_empty(), "{name}: diagnostic is empty");
        assert_eq!(err.code(), expected, "{name}");
        checked += 1;
    }
    assert_eq!(checked, 19, "expected all corpus files to be exercised");
}

#[test]
fn warm_cache_compile_equals_cold_compile() {
    // The memoized compile: plan through the cache, lower what comes
    // out (lowering is too cheap to cache).
    let compiler = golden_compiler();
    let cache: ShardedPlanCache<AlpError> = ShardedPlanCache::new(1, 8);
    let memoized_compile = |nest: LoopNest| {
        let (plan, how) =
            cache.get_or_compute(compiler.plan_key(&nest), || compiler.plan(&nest))?;
        Compiler::lower(plan).map(|compiled| (compiled, how))
    };

    let (cold, how) = memoized_compile(golden_nest()).expect("cold compile");
    assert_eq!(how, Fetched::Computed);
    let (warm, how) = memoized_compile(golden_nest()).expect("warm compile");
    assert_eq!(how, Fetched::Hit);

    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 1);
    assert!(std::sync::Arc::ptr_eq(&cold.plan, &warm.plan));
    assert_eq!(cold.plan.to_json_string(), warm.plan.to_json_string());
    assert_eq!(cold.code.clone(), warm.code.clone());
    assert_eq!(cold.plan.proc_grid, warm.plan.proc_grid);

    // The cached plan and a from-plan compile agree with a fresh one.
    let fresh = compiler.compile(golden_nest()).expect("fresh compile");
    assert_eq!(fresh.plan.to_json_string(), warm.plan.to_json_string());
    let replayed = Compiler::lower(warm.plan).expect("replay from plan");
    assert_eq!(replayed.code.clone(), fresh.code.clone());
}

/// The nests the planner-parity tests plan.
const PARITY_SOURCES: [&str; 5] = [
    GOLDEN_SOURCE,
    GOLDEN_SOURCE_EX2,
    // 1-D accumulate.
    "doall (i, 0, 255) { A[i] = A[i] + B[i]; }",
    // 3-D stencil.
    "doall (i, 1, 24) { doall (j, 1, 24) { doall (k, 1, 24) {
       A[i,j,k] = B[i-1,j,k] + B[i,j+1,k] + B[i,j,k-2];
     } } }",
    // Strided references.
    "doall (i, 0, 63) { doall (j, 0, 63) { A[2*i,j] = B[2*i+1,3*j] + B[2*i,3*j+2]; } }",
];

#[test]
fn lowering_reads_nothing_but_the_plan() {
    // The back half is a function of the plan alone: a fresh plan and
    // its decode(encode()) lower to the same data partitions, placement
    // and code, and `compile` is `plan_with_report` + `lower` — under
    // any request shape, on a mesh or off it, rectangular or skewed.
    let same = |a: &CompileResult, b: &CompileResult, what: &str| {
        assert_eq!(a.nest, b.nest, "{what}");
        assert_eq!(a.plan, b.plan, "{what}");
        assert_eq!(a.code, b.code, "{what}");
        assert_eq!(a.data_partitions, b.data_partitions, "{what}");
        assert_eq!(
            format!("{:?}", a.placement),
            format!("{:?}", b.placement),
            "{what}"
        );
    };
    for source in PARITY_SOURCES {
        let nest = parse(source).expect("source parses");
        for processors in [1, 8, 24] {
            let plain = Compiler::new(processors);
            // (The planner refuses a mesh that does not hold every processor.)
            let mesh_w = if processors > 16 { 8 } else { 4 };
            let mut compilers = vec![plain.clone(), plain.clone().with_mesh(mesh_w, 4)];
            if nest.depth() == 2 {
                compilers.push(plain.with_skewed_tiles());
            }
            for compiler in compilers {
                let what = format!("{compiler:?}: {source}");
                let (plan, report) = compiler.plan_with_report(&nest).expect("plans");
                let fresh = Compiler::lower(plan.clone()).expect("fresh plan lowers");
                let saved = PartitionPlan::from_json_str(&plan.to_json_string()).expect("decodes");
                same(
                    &fresh,
                    &Compiler::lower(saved).expect("saved plan lowers"),
                    &what,
                );
                assert!(fresh.report.diagnostics.is_empty(), "{what}");

                let compiled = compiler.compile(nest.clone()).expect("compiles");
                same(&compiled, &fresh, &what);
                assert_eq!(compiled.nest, nest, "{what}");
                assert_eq!(
                    compiled.report.render(source),
                    report.render(source),
                    "{what}"
                );
                assert_eq!(
                    compiled.placement.is_some(),
                    compiler.mesh.is_some(),
                    "{what}"
                );
                assert_eq!(
                    compiled.data_partitions.is_empty(),
                    compiler.skewed,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn facade_adds_no_decision_to_the_planner() {
    // `Compiler::plan` is analysis + verdict around
    // `PartitionPlan::choose`: whatever the request, the facade emits
    // the planner's bytes (or refuses with the planner's error).
    for source in PARITY_SOURCES {
        let nest = parse(source).expect("source parses");
        let warnings = analyze(&nest).count(alp::analysis::Severity::Warning);
        for processors in [1, 8, 24] {
            // Every request shape `Compiler` has.
            for mode in 0..4 {
                let (skewed, check) = (mode & 1 != 0, mode & 2 == 0);
                // The 3-D parallelepiped search is 10⁴ rectangular
                // plans: one request per 3-D nest covers the path, the
                // 2-D nests cover the matrix.
                if nest.depth() > 2 && skewed && (!check || processors != 8) {
                    continue;
                }
                let mut compiler = Compiler::new(processors);
                if skewed {
                    compiler = compiler.with_skewed_tiles();
                }
                if !check {
                    compiler = compiler.unchecked();
                }
                let verdict = match check {
                    true => LegalityVerdict::Checked { warnings },
                    false => LegalityVerdict::Unchecked,
                };
                let bytes = |r: Result<PartitionPlan, AlpError>| {
                    r.map(|plan| plan.to_json_string())
                        .map_err(|e| (e.code(), e.to_string()))
                };
                assert_eq!(
                    bytes(compiler.plan(&nest)),
                    bytes(
                        PartitionPlan::choose(&nest, processors, None, verdict, skewed)
                            .map_err(AlpError::from)
                    ),
                    "P = {processors}, skewed {skewed}, check {check}: {source}"
                );
            }
        }
    }
}

#[test]
fn daemon_and_facade_plan_the_same_bytes() {
    // `alp_serve::pipeline::build_plan` (the resolve-then-plan a daemon
    // request goes through) and `Compiler::plan` (what `alp-cli plan`
    // calls) are two entry
    // points to one planner: for every parameter the wire protocol can
    // carry they must emit the same artifact, byte for byte.
    use alp::serve::pipeline::{build_plan, PlanSpec};
    for source in PARITY_SOURCES {
        let nest = parse(source).expect("source parses");
        for processors in [1, 8, 24] {
            for check in [true, false] {
                for certified in [true, false] {
                    let spec = PlanSpec {
                        source: source.to_string(),
                        processors,
                        check,
                        certify: certified,
                    };
                    let served = build_plan(&spec).expect("daemon plans");
                    let mut compiler = Compiler::new(processors);
                    if !check {
                        compiler = compiler.unchecked();
                    }
                    let mut local = compiler.plan(&nest).expect("facade plans");
                    if certified {
                        let report = certify(&local).expect("plan certifies");
                        local = local.with_certificate(report.certificate);
                    }
                    assert_eq!(
                        served.to_json_string(),
                        local.to_json_string(),
                        "P = {processors}, check {check}, certify {certified}: {source}"
                    );
                }
            }
        }
    }

    // And they refuse the same nests, under the same stable code.
    let racy = "doall (i, 0, 31) { A[0] = A[i]; }";
    let spec = PlanSpec {
        source: racy.to_string(),
        processors: 8,
        check: true,
        certify: false,
    };
    assert_eq!(
        build_plan(&spec).expect_err("daemon refuses").code,
        "ALP0003"
    );
    let err = Compiler::new(8)
        .plan(&parse(racy).expect("racy source parses"))
        .expect_err("facade refuses");
    assert!(matches!(err, AlpError::Illegal(_)), "{err}");
    assert_eq!(err.code(), "ALP0003");
}

#[test]
fn daemon_and_facade_report_the_same_codes() {
    // One `ALP00xx` table: each error type names its own code, and the
    // facade (`AlpError::code`) and the daemon (`ServeError::from`) both
    // delegate to it — one value of every variant, wrapped every way
    // a layer can wrap it.
    use alp::serve::ServeError;
    use std::time::Duration;
    let json = alp::plan::json::parse("{").expect_err("truncated JSON");
    let (found, supported) = (9, 4);
    let plan_errors = [
        (PlanError::BadGrid("rank".into()), "ALP0006"),
        (PlanError::Json(json), "ALP0006"),
        (
            PlanError::UnsupportedVersion { found, supported },
            "ALP0006",
        ),
        (PlanError::Schema("field".into()), "ALP0006"),
        (
            PlanError::FingerprintMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
            "ALP0006",
        ),
        (PlanError::Infeasible("no grid".into()), "ALP0004"),
        (PlanError::Certificate("block".into()), "ALP0011"),
        (PlanError::Transform("det 2".into()), "ALP0013"),
    ];
    let mut runtime_errors = vec![
        (RuntimeError::UnknownArray("A".into()), "ALP0005"),
        (RuntimeError::UnsupportedStatement("s".into()), "ALP0005"),
        (RuntimeError::Overflow { array: "A".into() }, "ALP0005"),
        (RuntimeError::BadGrid("rank".into()), "ALP0005"),
        (
            RuntimeError::TileFailed {
                tile: 0,
                rep: 0,
                payload: "boom".into(),
            },
            "ALP0008",
        ),
        (
            RuntimeError::DeadlineExceeded {
                deadline: Duration::from_millis(1),
            },
            "ALP0007",
        ),
        (RuntimeError::Cancelled, "ALP0007"),
        (
            RuntimeError::ResourceExceeded {
                required: 2,
                budget: 1,
            },
            "ALP0009",
        ),
    ];
    let mut certify_errors = vec![
        (CertifyError::Missing, "ALP0011"),
        (
            CertifyError::Stale {
                expected: "a".into(),
                found: "b".into(),
            },
            "ALP0011",
        ),
        (
            CertifyError::Mismatch {
                fact: "coverage",
                claimed: true,
                proven: false,
            },
            "ALP0011",
        ),
    ];
    fn agree<E: Clone + std::fmt::Display>(e: &E, leaf: &str, code: &str)
    where
        ServeError: From<E>,
        AlpError: From<E>,
    {
        assert_eq!(leaf, code, "{e}");
        assert_eq!(ServeError::from(e.clone()).code, code, "daemon: {e}");
        assert_eq!(AlpError::from(e.clone()).code(), code, "facade: {e}");
    }
    for (e, code) in plan_errors {
        // A wrapped plan error keeps the plan's code.
        runtime_errors.push((RuntimeError::BadPlan(e.clone()), code));
        certify_errors.push((CertifyError::Plan(e.clone()), code));
        agree(&e, e.code(), code);
    }
    for (e, code) in runtime_errors {
        agree(&e, e.code(), code);
    }
    for (e, code) in certify_errors {
        agree(&e, e.code(), code);
    }
}
