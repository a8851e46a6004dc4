//! Certificate-tampering chaos suite.
//!
//! Every [`CertTamper`] corruption of a certified plan artifact must be
//! rejected with the stable `ALP0011` code — structural damage (a stale
//! or truncated certificate block) dies at decode, semantic damage (a
//! flipped verdict bit in otherwise well-formed JSON) dies at the
//! re-checker's recomputation — and none of them may ever configure the
//! relaxed-store fast path.  Unlike the fault-injection suite this one
//! needs no runtime hooks, so it runs with or without the `chaos`
//! feature.

use alp::prelude::*;
use alp::{AlpError, Compiler};
use alp_chaos::{tamper_certificate, CertTamper};

/// A disjoint stencil whose certificate proves all four facts — the
/// exact situation where a forged certificate would otherwise unlock
/// the non-atomic store path.
fn certified_plan_json() -> String {
    let nest = parse("doall (i, 1, 16) { doall (j, 1, 16) { A[i, j] = B[i, j] + B[i+1, j+3]; } }")
        .expect("stencil parses");
    let plan = Compiler::new(16).plan(&nest).expect("plan builds");
    let report = certify(&plan).expect("stencil certifies");
    assert!(report.unlocks_fastpath(), "fixture must prove disjointness");
    plan.with_certificate(report.certificate).to_json_string()
}

#[test]
fn every_tamper_kind_is_rejected_with_alp0011() {
    let honest = certified_plan_json();
    let plan = PartitionPlan::from_json_str(&honest).expect("honest plan decodes");
    recheck(&plan).expect("honest certificate re-verifies");

    for kind in CertTamper::ALL {
        let bad = tamper_certificate(&honest, kind).expect("certified plan tampers");
        assert_ne!(bad, honest, "{kind:?} must change the document");
        let err: AlpError = match PartitionPlan::from_json_str(&bad) {
            Err(e) => e.into(),
            Ok(p) => recheck(&p)
                .map(|_| ())
                .expect_err(&format!("{kind:?} must be rejected"))
                .into(),
        };
        assert_eq!(err.code(), "ALP0011", "{kind:?}: {err}");
        assert!(!err.to_string().is_empty(), "{kind:?}: empty diagnostic");
    }
}

#[test]
fn flipped_verdict_bit_aborts_compiler_execute() {
    // The full production path: a semantically tampered plan decodes,
    // lowers, and then `Compiler::execute` re-checks the certificate
    // and refuses to run — the forged disjointness bit never reaches
    // `Executor::apply_certificate`.
    let honest = certified_plan_json();
    let bad = tamper_certificate(&honest, CertTamper::FlipDisjoint).expect("tamper applies");
    let plan = PartitionPlan::from_json_str(&bad).expect("semantic tamper survives decode");

    let result = Compiler::lower(plan).expect("tampered plan still lowers");
    let err = Compiler::execute(&result.plan, &alp_runtime::ExecOptions::default(), 1)
        .expect_err("execute must refuse a tampered certificate");
    assert_eq!(err.code(), "ALP0011", "{err}");
    assert!(err.to_string().contains("tampered"), "{err}");
}
