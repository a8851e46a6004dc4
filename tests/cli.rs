//! Smoke tests for the `alp-cli` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: Option<&str>) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_alp-cli"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("binary spawns");
    if let Some(input) = stdin {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin writes");
    }
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn analyzes_example3_from_stdin() {
    let (stdout, stderr, code) = run_cli(
        &["--param", "N=64", "-p", "16", "-"],
        Some("doall (i, 1, N) { doall (j, 1, N) { A[i,j] = B[i,j] + B[i+1,j+3]; } }"),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("communication-free : yes"), "{stdout}");
    assert!(stdout.contains("cache aspect ratio : 1 : 3"), "{stdout}");
    assert!(stdout.contains("grid [8, 2]"), "{stdout}");
}

#[test]
fn simulates_with_mesh() {
    // The stencil races across i; --no-check studies it regardless.
    let (stdout, stderr, code) = run_cli(
        &["-p", "4", "-m", "2x2", "--simulate", "--no-check", "-"],
        Some("doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = A[i+1,j]; } }"),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("== simulation =="), "{stdout}");
    assert!(stdout.contains("aligned memory"), "{stdout}");
}

#[test]
fn simulating_more_tiles_than_the_directory_tracks_is_an_error() {
    // 256 processors, one tile each: the full-map directory holds 128,
    // and the simulator refuses before it builds a trace.
    let (stdout, stderr, code) = run_cli(
        &["-p", "256", "--simulate", "-"],
        Some("doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i-1,j] + B[i+1,j]; } }"),
    );
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("error[ALP0006]"), "{stderr}");
    assert!(
        stderr.contains("holds at most 128 processors; the plan has 256 processors"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_skewed_plan_simulates_and_runs_on_its_processors() {
    // Example 2's skewed plan at P = 4 cuts a [4, 2] grid: 8 tiles, two
    // for each processor of the simulator and thread of `run`.
    let (plan, stderr, code) = run_cli(
        &["plan", "--skewed", "-p", "4", "-"],
        Some("doall (i, 1, 16) { doall (j, 1, 16) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }"),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(plan.contains("\"proc_grid\": [4, 2]"), "{plan}");
    let path = std::env::temp_dir().join(format!("alp-cli-skewed-{}.json", std::process::id()));
    std::fs::write(&path, &plan).expect("plan file writes");
    let path = path.to_str().expect("utf-8 temp path");

    let (stdout, stderr, code) = run_cli(&["--from-plan", path, "--simulate"], None);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("== simulation =="), "{stdout}");
    let (stdout, stderr, code) = run_cli(&["run", "--from-plan", path], None);
    std::fs::remove_file(path).ok();
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("threads 4  tiles 8"), "{stdout}");
    assert!(
        stdout.contains("matches the sequential reference"),
        "{stdout}"
    );
}

#[test]
fn handles_multi_phase_programs() {
    let (stdout, stderr, code) = run_cli(
        &["-p", "16", "--no-check", "-"],
        Some(
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+1]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+1,j]; } }",
        ),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("program with 2 phases"), "{stdout}");
    assert!(stdout.contains("CommonGrid"), "{stdout}");
}

#[test]
fn reports_parse_errors() {
    let (_, stderr, code) = run_cli(&["-"], Some("doall (i, 0, 9) { A[q] = 1; }"));
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown index"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn code_flag_prints_spmd_loop() {
    let (stdout, _, code) = run_cli(
        &["-p", "4", "--code", "--no-check", "-"],
        Some("doall (i, 0, 63) { A[i] = A[i+1]; }"),
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("for i in max(0, 0 + p0*16)"), "{stdout}");
}

#[test]
fn code_repeats_the_scan_once_per_doseq_iteration_with_a_barrier() {
    // The runtime and the simulator run the doall body 4 times; the
    // code says so.
    let (stdout, stderr, code) = run_cli(
        &["-p", "4", "--code", "--no-check", "-"],
        Some(
            "doseq (t, 0, 3) { doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i-1,j] + B[i+1,j]; } } }",
        ),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let emitted = stdout.split("== code ==\n").nth(1).expect("a code block");
    let want = "for t in 0 ..= 3 {\n  for i in max(1, 1 + p0*64) ..= min(64, 64 + p0*64) {\n    \
                for j in max(1, 1 + p1*16) ..= min(64, 16 + p1*16) {\n      \
                A[i, j] = B[i-1, j] + B[i+1, j];\n    }\n  }\n  barrier;\n}\n";
    assert!(emitted.contains(want), "{emitted}");
}

#[test]
fn a_saved_skewed_plan_lowers_to_loops() {
    let (stdout, stderr, code) = run_cli(
        &["--from-plan", "-", "--code"],
        Some(include_str!("golden/example2.v4.plan.json")),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let emitted = stdout.split("== code ==\n").nth(1).expect("a code block");
    assert!(!emitted.contains("// skewed plan:"), "{emitted}");
    assert!(emitted.contains("U = [[1, 0], [1, -1]]"), "{emitted}");
    for index in ["i", "j"] {
        let head = format!("for {index} in max(");
        assert!(emitted.contains(&head), "{emitted}");
    }
}

#[test]
fn racy_nest_is_refused_with_exit_4() {
    let (_, stderr, code) = run_cli(
        &["-p", "4", "-"],
        Some("doall (i, 0, 15) { A[i] = A[i+1]; }"),
    );
    assert_eq!(code, Some(4), "stderr: {stderr}");
    assert!(stderr.contains("error[doall-race]"), "{stderr}");
    assert!(stderr.contains("--no-check"), "{stderr}");
}

#[test]
fn check_reports_race_with_witness_and_exit_4() {
    let (_, stderr, code) = run_cli(
        &["--check", "-"],
        Some("doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = A[i+1,j]; } }"),
    );
    assert_eq!(code, Some(4), "stderr: {stderr}");
    assert!(stderr.contains("error[doall-race]"), "{stderr}");
    // Caret snippet against the source plus a concrete witness pair.
    assert!(stderr.contains("^"), "{stderr}");
    assert!(stderr.contains("i="), "{stderr}");
}

#[test]
fn check_accepts_accumulate_reduction() {
    let (stdout, stderr, code) = run_cli(
        &["--check", "-"],
        Some(
            "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        ),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ok:"), "{stdout}");
}

#[test]
fn check_clean_nest_exits_0() {
    let (stdout, stderr, code) = run_cli(
        &["--check", "-"],
        Some("doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = B[i,j] + B[i+1,j]; } }"),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ok: 1 nest passes"), "{stdout}");
}

#[test]
fn check_warning_only_exits_3() {
    // Rank-deficient read (Example 7's shape): legal but lint-worthy.
    let (_, stderr, code) = run_cli(
        &["--check", "-"],
        Some("doall (i, 0, 15) { doall (j, 0, 15) { B[i,j] = A[i, 2*i, i+j]; } }"),
    );
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("warning[rank-deficient-ref]"), "{stderr}");
}

const STENCIL: &str = "doall (i, 1, 16) { doall (j, 1, 16) { A[i,j] = B[i,j] + B[i+1,j+3]; } }";

#[test]
fn plan_emits_versioned_json_to_stdout() {
    let (stdout, stderr, code) = run_cli(&["plan", "-p", "4", "-"], Some(STENCIL));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.starts_with("{\n  \"alp-plan\": 3,"), "{stdout}");
    assert!(stdout.contains("\"fingerprint\""), "{stdout}");
    assert!(stdout.contains("\"source\""), "{stdout}");
}

#[test]
fn plan_refuses_racy_nest_with_exit_4() {
    let (_, stderr, code) = run_cli(
        &["plan", "-p", "4", "-"],
        Some("doall (i, 0, 15) { A[i] = A[i+1]; }"),
    );
    assert_eq!(code, Some(4), "stderr: {stderr}");
    assert!(stderr.contains("error[doall-race]"), "{stderr}");
}

#[test]
fn plan_emit_then_run_from_plan_matches_source_run() {
    let plan_path =
        std::env::temp_dir().join(format!("alp-cli-test-{}.plan.json", std::process::id()));
    let plan_path = plan_path.to_str().expect("utf-8 temp path").to_string();
    let (_, stderr, code) = run_cli(
        &["plan", "-p", "8", "--emit", &plan_path, "-"],
        Some(STENCIL),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("wrote plan"), "{stderr}");

    let (from_plan, stderr, code) =
        run_cli(&["run", "--from-plan", &plan_path, "--seed", "7"], None);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        from_plan.contains("matches the sequential reference bitwise"),
        "{from_plan}"
    );
    let (from_source, stderr, code) =
        run_cli(&["run", "-p", "8", "--seed", "7", "-"], Some(STENCIL));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    std::fs::remove_file(&plan_path).ok();

    // Identical footprint counters whether the partition came from the
    // plan artifact or was re-derived from source.
    let footprint = |out: &str| {
        out.lines()
            .find(|l| l.contains("max tile footprint"))
            .map(str::to_string)
    };
    assert!(footprint(&from_plan).is_some(), "{from_plan}");
    assert_eq!(footprint(&from_plan), footprint(&from_source));
}

/// A plan embeds its nest's `display()` as its source, so a plan that
/// `plan` writes, `run --from-plan` must read back: here for an
/// accumulate of nothing, whose display must not read back with the
/// self-read a `+=` implies (another fingerprint, `ALP0006`).
#[test]
fn an_accumulate_of_nothing_runs_from_its_own_plan() {
    let nest = "doall (i, 0, 7) { l$C[i] = 0; }";
    let (plan, stderr, code) = run_cli(&["plan", "-p", "4", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (out, stderr, code) = run_cli(&["run", "--from-plan", "-"], Some(&plan));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        out.contains("matches the sequential reference bitwise"),
        "{out}"
    );
}

#[test]
fn truncated_plan_fails_with_code_and_exit_1() {
    let (_, stderr, code) = run_cli(&["run", "--from-plan", "-"], Some("{\"alp-plan\": 1, "));
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("ALP0006"), "{stderr}");
    assert!(stderr.contains("truncated"), "{stderr}");
}

#[test]
fn unsupported_plan_version_is_rejected() {
    let (stdout, _, code) = run_cli(&["plan", "-p", "4", "-"], Some(STENCIL));
    assert_eq!(code, Some(0));
    let bumped = stdout.replace("\"alp-plan\": 3", "\"alp-plan\": 99");
    let (_, stderr, code) = run_cli(&["run", "--from-plan", "-"], Some(&bumped));
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("version 99 is not supported"), "{stderr}");
}

#[test]
fn run_mismatch_exits_5() {
    // One worker thread executes tiles in ascending order, so a race that
    // crosses the j-boundary backwards gives a deterministic mismatch.
    let (_, stderr, code) = run_cli(
        &["run", "-p", "2", "--threads", "1", "--no-check", "-"],
        Some("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i-2,j+1]; } }"),
    );
    assert_eq!(code, Some(5), "stderr: {stderr}");
    assert!(stderr.contains("DIFFERS"), "{stderr}");
}

#[test]
fn run_timeout_exits_6_with_alp0007() {
    // ~200M iterations on one thread cannot finish in 50ms; the
    // cooperative deadline poll must stop the run and exit 6.
    let (_, stderr, code) = run_cli(
        &[
            "run",
            "-p",
            "4",
            "--threads",
            "1",
            "--timeout-ms",
            "50",
            "-",
        ],
        Some("doseq (t, 0, 200000) { doall (i, 0, 1023) { A[i] = B[i] + B[i+1]; } }"),
    );
    assert_eq!(code, Some(6), "stderr: {stderr}");
    assert!(stderr.contains("ALP0007"), "{stderr}");
    assert!(stderr.contains("deadline"), "{stderr}");
}

#[test]
fn run_refuses_nests_beyond_u64_with_alp0005() {
    // 2^32 × 2^32: the first nest's arrays (2^64 elements each) used to
    // wrap to a two-element store, the second's 2^64 points to an empty
    // run — either way past the budget and the deadline into a
    // reference interpreter with neither.  Both are lowering failures,
    // reported before anything is allocated or spawned (a regression
    // here is a hang: the test harness's own timeout is the watchdog).
    for body in ["A[i,j] = B[i,j];", "l$S[0] = l$S[0] + A[0];"] {
        let nest = format!("doall (i, 0, 4294967295) {{ doall (j, 0, 4294967295) {{ {body} }} }}");
        for require_cert in [false, true] {
            let mut args = vec!["run", "-p", "4", "--no-check"];
            args.extend(["--timeout-ms", "2000", "--max-store-bytes", "1000000"]);
            if require_cert {
                // Certifying 2^64 points is closed-form; it must not be
                // what spins either.
                args.push("--require-cert");
            }
            args.push("-");
            let (stdout, stderr, code) = run_cli(&args, Some(&nest));
            assert_eq!(code, Some(1), "{body}: {stderr}");
            assert!(stderr.contains("error[ALP0005]"), "{body}: {stderr}");
            assert!(stdout.contains("partition: grid"), "{body}: {stdout}");
            assert!(!stdout.contains("== run"), "{body}: {stdout}");
        }
    }
}

#[test]
fn extents_beyond_i128_are_refused_like_arrays_beyond_u64() {
    // `coefficient × bound` past i128 (2^126·4, 10^20·10^20): the extent
    // used to panic the debug profile and wrap in release — `A` laid out
    // as one element, `store_bytes` 48, `--simulate` dead on an
    // out-of-extent assert.  Now both are the layout overflow the
    // 2^32 × 2^32 nests already are, in every command.
    for (bounds, coeff, simulate_code) in [
        ("0, 4", "85070591730234615865843651857942052864", "ALP0004"),
        // This one's loop bound alone does not fit `i64`, which lowering
        // reports about the grid before `--simulate` asks for a layout.
        (
            "0, 100000000000000000000",
            "100000000000000000000",
            "ALP0006",
        ),
    ] {
        let nest = format!("doall (i, {bounds}) {{ A[{coeff}*i] = B[i]; }}");
        let (stdout, stderr, code) = run_cli(&["plan", "-p", "4", "-"], Some(&nest));
        assert_eq!(code, Some(0), "{nest}: {stderr}");
        assert!(
            stdout.contains("\"store_bytes\": 18446744073709551615,"),
            "{nest}: {stdout}"
        );
        let budget = ["--timeout-ms", "2000", "--max-store-bytes", "1000000"];
        let run = [&["run", "-p", "4"][..], &budget, &["-"]].concat();
        for (args, want) in [
            (&run[..], "ALP0005"),
            (&["-p", "4", "--simulate", "-"], simulate_code),
        ] {
            let (_, stderr, code) = run_cli(args, Some(&nest));
            assert_eq!(code, Some(1), "{nest} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("error[{want}]")),
                "{nest} {args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{nest} {args:?}: {stderr}");
        }
    }
    // A two-phase program whose phases prefer different grids sizes the
    // shared arrays for the redistribution cost: an array that cannot be
    // sized counts as the largest a layout holds, 2^64 − 1 elements.
    let program = "doall (i, 0, 7) { doall (j, 0, 7) {
           A[85070591730234615865843651857942052864*i, j] = B[i, j]; } }
         doall (i, 0, 7) { doall (j, 0, 7) {
           B[i, j] = A[i, j] + A[i, j+1] + A[i, j+2] + A[i, j+3]; } }";
    let (stdout, stderr, code) = run_cli(&["-p", "4", "-"], Some(program));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stdout.contains("redistribution 36893488147419103230)"),
        "{stdout}"
    );
}

#[test]
fn run_over_budget_exits_8_with_alp0009() {
    let (_, stderr, code) = run_cli(
        &["run", "-p", "4", "--max-store-bytes", "10", "-"],
        Some(STENCIL),
    );
    assert_eq!(code, Some(8), "stderr: {stderr}");
    assert!(stderr.contains("ALP0009"), "{stderr}");
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn run_over_budget_has_no_sequential_degraded_mode() {
    // The sequential fallback is gone (its flag is spelled in two pieces
    // so CI's "One retry rule" grep stays empty): the command line that
    // used to degrade an over-budget run is refused before anything runs.
    let gone = concat!("--fallback", "-seq");
    // A usage error is found before any input is read, so no stdin is
    // piped (a write into a process that has exited is a broken pipe).
    let (stdout, stderr, code) = run_cli(
        &["run", "-p", "4", "--max-store-bytes", "10", gone, "-"],
        None,
    );
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.starts_with("usage:"), "{stderr}");
    assert!(
        stderr.ends_with(&format!("unknown option {gone}\n")),
        "{stderr}"
    );
}

#[test]
fn certify_verifies_honest_plan_and_rejects_tampered_bit_with_exit_9() {
    // An embedded certificate is re-checked against recomputation: the
    // honest plan passes, a single flipped verdict bit fails with the
    // stable ALP0011 code and the dedicated exit status 9.
    let (plan, stderr, code) = run_cli(&["plan", "-p", "4", "--certify", "-"], Some(STENCIL));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(plan.contains("\"certificate\""), "{plan}");

    let (stdout, stderr, code) = run_cli(&["certify", "-"], Some(&plan));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("verified against recomputation"),
        "{stdout}"
    );
    assert!(stdout.contains("write-disjoint true"), "{stdout}");

    let flipped = plan.replace("\"write_disjoint\": true", "\"write_disjoint\": false");
    assert_ne!(flipped, plan, "replacement must hit");
    let (_, stderr, code) = run_cli(&["certify", "-"], Some(&flipped));
    assert_eq!(code, Some(9), "stderr: {stderr}");
    assert!(stderr.contains("error[ALP0011]"), "{stderr}");
    assert!(stderr.contains("certificate tampered"), "{stderr}");
}

#[test]
fn certify_attaches_certificate_to_bare_plan() {
    let (plan, stderr, code) = run_cli(&["plan", "-p", "4", "-"], Some(STENCIL));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(!plan.contains("\"certificate\""), "{plan}");

    let (stdout, stderr, code) = run_cli(&["certify", "-"], Some(&plan));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("coverage       true"), "{stdout}");
    assert!(stdout.contains("in-bounds      true"), "{stdout}");
}

#[test]
fn a_search_that_gave_up_certifies_nothing() {
    // Every j-tile accumulates into S[0].  A loop of 2²⁰ iterations was
    // wider than the old capped integer search looked, and its give-up
    // read "no conflict": `write_disjoint: true, idempotent: true`.  The
    // exact search refutes both facts with a tile pair and iterations.
    let nest = "doall (i, 0, 1048575) { doall (j, 0, 1048575) { l$S[0] = l$S[0] + A[0]; } }";
    let (plan, stderr, code) = run_cli(&["plan", "-p", "4", "--certify", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(plan.contains("\"write_disjoint\": false"), "{plan}");
    assert!(plan.contains("\"idempotent\": false"), "{plan}");
    let note = |prefix: &str| {
        let line = stderr.lines().find(|l| l.starts_with(prefix));
        line.unwrap_or_else(|| panic!("no `{prefix}` note: {stderr}"))
    };
    let tiles = note("alp-cli: certify: write-disjoint: tiles ");
    assert!(tiles.contains(" both write S[0] (iterations ["), "{tiles}");
    let reads = note("alp-cli: certify: idempotence: iteration [");
    assert!(reads.contains("reads S[0], which iteration ["), "{reads}");
    let (stdout, stderr, code) = run_cli(&["certify", "-"], Some(&plan));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("write-disjoint false"), "{stdout}");

    // The certificate a build with the capped search issued for that
    // plan claims both facts; it is refused, not verified.
    let old = include_str!("corpus/ALP0011__cert_gave_up_read_as_proven.plan.json");
    let (stdout, stderr, code) = run_cli(&["certify", "-"], Some(old));
    assert_eq!(code, Some(9), "stdout: {stdout} stderr: {stderr}");
    assert!(stderr.contains("error[ALP0011]"), "{stderr}");
    assert!(!stdout.contains("verified"), "{stdout}");
}

#[test]
fn check_refuses_a_race_in_a_loop_of_2_pow_21() {
    // Every iteration writes A[0].  2²¹ iterations are past the range
    // the old capped search enumerated, and its give-up passed the nest.
    let (_, stderr, code) = run_cli(
        &["--check", "-"],
        Some("doall (i, 0, 2097151) { A[0] = B[i]; }"),
    );
    assert_eq!(code, Some(4), "stderr: {stderr}");
    assert!(stderr.contains("error[doall-race]"), "{stderr}");
    assert!(stderr.contains("i="), "{stderr}");
}

#[test]
fn run_require_cert_takes_certified_fast_path() {
    // A disjoint stencil plan certifies cleanly; --require-cert then
    // runs accumulate-free stores relaxed and still matches bitwise.
    let (stdout, stderr, code) = run_cli(
        &["run", "-p", "4", "--require-cert", "--seed", "3", "-"],
        Some(STENCIL),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("certificate: coverage true"), "{stdout}");
    assert!(
        stdout.contains("matches the sequential reference bitwise"),
        "{stdout}"
    );
}

#[test]
fn run_require_cert_refuses_uncertified_plan_with_exit_9() {
    let (plan, _, code) = run_cli(&["plan", "-p", "4", "-"], Some(STENCIL));
    assert_eq!(code, Some(0));
    let (_, stderr, code) = run_cli(&["run", "--from-plan", "-", "--require-cert"], Some(&plan));
    assert_eq!(code, Some(9), "stderr: {stderr}");
    assert!(stderr.contains("ALP0011"), "{stderr}");
    assert!(stderr.contains("no certificate"), "{stderr}");
}

#[test]
fn check_suggests_reduction_rewrite() {
    let (_, stderr, code) = run_cli(
        &["--check", "-"],
        Some("doall (i, 0, 3) { doall (k, 0, 3) { C[i] = C[i] + A[i,k]; } }"),
    );
    assert_eq!(code, Some(4), "stderr: {stderr}");
    assert!(stderr.contains("doall-reduction"), "{stderr}");
    assert!(stderr.contains("+="), "{stderr}");
}

/// Spawn an `alp-cli serve` daemon on a fresh socket and wait for the
/// socket file to appear.  Returns the child and the socket path.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, std::path::PathBuf) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let sock = std::env::temp_dir().join(format!(
        "alp-cli-test-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_alp-cli"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(&sock)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("daemon spawns");
    for _ in 0..200 {
        if sock.exists() {
            return (child, sock);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("serve daemon never created {}", sock.display());
}

fn serve_client(
    sock: &std::path::Path,
    args: &[&str],
    stdin: Option<&str>,
) -> (String, String, Option<i32>) {
    let mut full = vec!["serve", "--socket", sock.to_str().unwrap(), "--connect"];
    full.extend_from_slice(args);
    run_cli(&full, stdin)
}

#[test]
fn serve_daemon_plans_runs_and_shuts_down() {
    let (mut daemon, sock) = spawn_serve(&["--workers", "2"]);
    let nest = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";

    let (stdout, stderr, code) = serve_client(&sock, &["--op", "plan", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("cache computed"), "{stdout}");
    assert!(stdout.contains("tiles 16"), "{stdout}");

    // The second plan for the same nest is a cache hit; a run reuses it.
    let (stdout, _, code) = serve_client(&sock, &["--op", "plan", "-"], Some(nest));
    assert_eq!(code, Some(0));
    assert!(stdout.contains("cache hit"), "{stdout}");
    let (stdout, stderr, code) =
        serve_client(&sock, &["--op", "run", "--threads", "2", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("matches_reference: true"), "{stdout}");

    let (stdout, _, code) = serve_client(&sock, &["--op", "stats"], None);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"misses\": 1"), "one compile: {stdout}");

    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    assert!(!sock.exists(), "socket removed on shutdown");
}

#[test]
fn serve_client_maps_shed_requests_to_exit_10() {
    // queue_cap 0 sheds everything that is not a cached plan.
    let (mut daemon, sock) = spawn_serve(&["--queue", "0"]);
    let (_, stderr, code) = serve_client(
        &sock,
        &["--op", "run", "-"],
        Some("doall (i, 0, 63) { A[i] = A[i] + B[i]; }"),
    );
    assert_eq!(code, Some(10), "ALP0012 maps to exit 10: {stderr}");
    assert!(stderr.contains("error[ALP0012]"), "{stderr}");
    assert!(stderr.contains("overloaded"), "{stderr}");

    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    daemon.wait().expect("daemon exits");
}

#[test]
fn serve_client_maps_plan_errors_to_standard_exits() {
    let (mut daemon, sock) = spawn_serve(&[]);
    let (_, stderr, code) = serve_client(
        &sock,
        &["--op", "plan", "-"],
        Some("doall (i, 0, 31) { A[0] = A[i]; }"),
    );
    assert_eq!(code, Some(4), "illegal doall keeps its exit: {stderr}");
    assert!(stderr.contains("error[ALP0003]"), "{stderr}");
    let (_, stderr, code) = serve_client(
        &sock,
        &["--op", "plan", "-p", "4", "-"],
        Some("doall (i, 0, 2) { A[i] = B[i]; }"),
    );
    assert_eq!(code, Some(1), "infeasible is exit 1, not a panic: {stderr}");
    assert!(stderr.contains("error[ALP0004]"), "{stderr}");
    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    daemon.wait().expect("daemon exits");
}

#[test]
fn bench_serve_is_not_a_command() {
    // The ledger (BENCHMARK.json) is the only benchmark.  A word that
    // names no command is the default mode's input file.
    let (_, stderr, code) = run_cli(&["--help"], None);
    assert_eq!(code, Some(2));
    let footer = stderr.lines().last().expect("usage footer");
    assert_eq!(
        footer,
        "commands (alp-cli <COMMAND> --help): plan, run, certify, serve, store"
    );
    let (stdout, stderr, code) = run_cli(&["bench-serve"], None);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("alp-cli: bench-serve: No such file or directory"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn store_maintenance_refuses_a_directory_that_does_not_exist() {
    let dir = std::env::temp_dir().join(format!("alp-cli-no-such-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().unwrap();
    for action in ["verify", "stats", "compact"] {
        let (stdout, stderr, code) = run_cli(&["store", action, path], None);
        assert_eq!(code, Some(1), "{action}: {stdout}{stderr}");
        assert!(
            stderr.starts_with(&format!(
                "alp-cli: store: {path}: No such file or directory"
            )),
            "{action}: {stderr}"
        );
        assert!(stdout.is_empty(), "{action}: {stdout}");
        assert!(!dir.exists(), "{action} created {path}");
    }
    // An empty store that exists is a clean one.
    std::fs::create_dir(&dir).expect("create the store directory");
    let (stdout, stderr, code) = run_cli(&["store", "verify", path], None);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("0 live plan(s)"), "{stdout}");
}

/// Send `sig` to a child process by PID (no libc crate in the test
/// either — the system `kill` is everywhere we run).
fn send_signal(child: &std::process::Child, sig: &str) {
    let status = Command::new("kill")
        .arg(sig)
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {sig} delivered");
}

#[test]
fn sigterm_drains_the_daemon_and_exits_zero() {
    let store = std::env::temp_dir().join(format!("alp-cli-drain-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (mut daemon, sock) = spawn_serve(&["--workers", "2", "--store", store.to_str().unwrap()]);
    let nest = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";
    let (_, stderr, code) = serve_client(&sock, &["--op", "plan", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");

    send_signal(&daemon, "-TERM");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    assert!(!sock.exists(), "socket removed after drain");
    // The computed plan was journaled and flushed on the way down.
    let (stdout, _, code) = run_cli(&["store", "verify", store.to_str().unwrap()], None);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("1 live plan(s)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn an_evicted_plan_is_read_back_and_journaled_once() {
    // A one-plan cache and two nests in turn: every request after the
    // first two misses the cache and reads its plan back.
    let store = std::env::temp_dir().join(format!("alp-cli-read-back-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let path = store.to_str().unwrap();
    let (mut daemon, sock) =
        spawn_serve(&["--shards", "1", "--cache-capacity", "1", "--store", path]);
    let nests = [
        "doall (i, 0, 63) { A[i] = A[i] + B[i]; }",
        "doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = B[i,j]; } }",
    ];
    for _ in 0..3 {
        for nest in nests {
            let (stdout, stderr, code) = serve_client(&sock, &["--op", "plan", "-"], Some(nest));
            assert_eq!(code, Some(0), "stderr: {stderr}");
            assert!(stdout.contains("cache computed"), "{stdout}");
        }
    }
    let (stdout, _, code) = serve_client(&sock, &["--op", "stats"], None);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"journal_reads\": 4"), "{stdout}");
    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    assert_eq!(daemon.wait().expect("daemon exits").code(), Some(0));
    let (stdout, stderr, code) = run_cli(&["store", "stats", path], None);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains(" 2 frame(s), ") && stdout.contains(" 2 live plan(s), "),
        "as many frames as live plans: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn second_sigterm_aborts_the_drain_with_exit_12() {
    // One worker, a long drain deadline, and a queue of slow runs: the
    // first SIGTERM leaves the daemon draining for a long time, so the
    // second one deterministically lands mid-drain.
    let (mut daemon, sock) = spawn_serve(&["--workers", "1", "--drain-deadline-ms", "60000"]);
    let slow = "doall (i, 0, 1023) { doall (j, 0, 1023) { A[i,j] = A[i,j] + B[i,j]; } }";
    let mut clients = Vec::new();
    for _ in 0..4 {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_alp-cli"));
        cmd.args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--connect",
            "--op",
            "run",
            "-",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("client spawns");
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(slow.as_bytes())
            .unwrap();
        drop(child.stdin.take());
        clients.push(child);
    }
    // Let the runs get admitted, then signal twice.
    std::thread::sleep(std::time::Duration::from_millis(300));
    send_signal(&daemon, "-TERM");
    std::thread::sleep(std::time::Duration::from_millis(200));
    send_signal(&daemon, "-TERM");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(
        status.code(),
        Some(12),
        "second signal escalates to exit 12"
    );
    for mut c in clients {
        let _ = c.kill();
        let _ = c.wait();
    }
}

#[test]
fn plan_via_server_delegates_to_the_daemon() {
    let (mut daemon, sock) = spawn_serve(&["--workers", "2"]);
    let nest = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";
    let (stdout, stderr, code) = run_cli(
        &[
            "plan",
            "--via-server",
            sock.to_str().unwrap(),
            "-p",
            "8",
            "-",
        ],
        Some(nest),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("\"alp-plan\""),
        "plan JSON on stdout: {stdout}"
    );

    // Same nest again: the daemon answers from cache, and --emit
    // reports which tier served it.
    let emit = std::env::temp_dir().join(format!("alp-cli-via-{}.json", std::process::id()));
    let (_, stderr, code) = run_cli(
        &[
            "plan",
            "--via-server",
            sock.to_str().unwrap(),
            "-p",
            "8",
            "--emit",
            emit.to_str().unwrap(),
            "-",
        ],
        Some(nest),
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("cache hit"), "{stderr}");
    let saved = std::fs::read_to_string(&emit).expect("emitted plan");
    assert!(saved.contains("\"alp-plan\""));
    let _ = std::fs::remove_file(&emit);

    // Local-only flags are refused up front, not silently dropped.
    let (_, stderr, code) = run_cli(
        &[
            "plan",
            "--via-server",
            sock.to_str().unwrap(),
            "--skewed",
            "-",
        ],
        Some(nest),
    );
    assert_eq!(code, Some(2), "local-only flag refused: {stderr}");
    assert!(
        stderr.ends_with("(--mesh, --skewed, --param plan locally)\n"),
        "{stderr}"
    );

    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    daemon.wait().expect("daemon exits");
}

#[test]
fn serve_stats_reports_per_shard_occupancy() {
    let (mut daemon, sock) = spawn_serve(&["--shards", "4", "--cache-capacity", "64"]);
    let nest = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";
    let (_, _, code) = serve_client(&sock, &["--op", "plan", "-"], Some(nest));
    assert_eq!(code, Some(0));
    let (stdout, stderr, code) = serve_client(&sock, &["--op", "stats"], None);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("shard   0:"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");
    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    daemon.wait().expect("daemon exits");
}

/// Exit 2 with the generated usage on stderr and nothing on stdout.
/// Usage errors are found before any input is read, so no stdin is
/// piped.
fn assert_usage_error(args: &[&str]) {
    let (stdout, stderr, code) = run_cli(args, None);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?}: {stdout}");
}

#[test]
fn every_command_reports_malformed_command_lines_as_usage_errors() {
    // One parser serves all six commands, so each kind of malformed
    // command line fails the same way everywhere: a value flag at the
    // end of argv, a non-numeric value for a numeric flag, an unknown
    // flag, a surplus positional, a missing required positional.
    let cases: &[&[&str]] = &[
        &["-", "-p"],
        &["-p", "x", "-"],
        &["-m", "4", "-"],
        &["--param", "N", "-"],
        &["--bogus", "-"],
        &["a", "b"],
        &[],
        &["plan", "-", "--emit"],
        &["plan", "-p", "x", "-"],
        &["plan", "--bogus"],
        &["plan", "a", "b"],
        &["plan"],
        &["run", "-", "--seed"],
        &["run", "--threads", "x", "-"],
        &["run", "--thread", "2", "-"],
        &["run", "a", "b"],
        &["run"],
        &["certify", "plan.json", "--emit"],
        &["certify", "--emitt", "x", "plan.json"],
        &["certify", "a", "b"],
        &["certify"],
        // The calibrated ranking is gone: its flag is refused, not
        // ignored.
        &["plan", "--calibrated", "F"],
        // So is the sequential fallback (spelled in two pieces so CI's
        // "One retry rule" grep stays empty).
        &["run", concat!("--fallback", "-seq"), "-"],
        &["serve"],
        &["serve", "--socket"],
        &["serve", "--socket", "s", "--workers", "x"],
        &["serve", "--socket", "s", "--bogus"],
        &["serve", "--socket", "s", "a", "b"],
        &["serve", "--socket", "s", "--connect", "--op", "bogus"],
        &["serve", "--socket", "s", "--connect", "--op", "plan"],
        &["store", "--bogus", "dir"],
        &["store", "bogus", "dir"],
        &["store", "verify", "dir", "extra"],
        &["store", "verify"],
    ];
    for args in cases {
        assert_usage_error(args);
    }
}

#[test]
fn every_command_answers_help_with_its_usage() {
    for cmd in ["", "plan", "run", "certify", "serve", "store"] {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = [cmd, help].into_iter().filter(|a| !a.is_empty()).collect();
            assert_usage_error(&args);
        }
    }
    // The usage is the command's own, generated from its flag table.
    let (_, stderr, _) = run_cli(&["run", "--help"], None);
    assert!(stderr.starts_with("usage: alp-cli run "), "{stderr}");
    assert!(stderr.contains("--require-cert"), "{stderr}");
    assert!(!stderr.contains("--via-server"), "{stderr}");
}

#[test]
fn infeasible_requests_render_the_same_from_every_command() {
    // One AlpError, one rendering: `error[CODE]` and the table's exit.
    let line = "alp-cli: error[ALP0004]: infeasible: need at least one processor\n";
    for args in [
        &["-p", "0", "-"][..],
        &["plan", "-p", "0", "-"],
        &["run", "-p", "0", "-"],
    ] {
        let (_, stderr, code) = run_cli(args, Some(STENCIL));
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, line, "{args:?}");
    }
    // More processors than a 1-D nest has iterations: no factorization
    // fits, which is the same refusal — not a panic in the search.
    let line = "alp-cli: error[ALP0004]: infeasible: \
                no feasible factorization of 4 processors for this nest\n";
    for args in [
        &["-p", "4", "-"][..],
        &["plan", "-p", "4", "-"],
        &["run", "-p", "4", "-"],
    ] {
        let (_, stderr, code) = run_cli(args, Some("doall (i, 0, 2) { A[i] = B[i]; }"));
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, line, "{args:?}");
    }
}

#[test]
fn damaged_plan_grids_exit_1_with_alp0006() {
    // A hand-edited `proc_grid` — a zero factor, or the wrong rank for
    // the nest — or a `processors` below one is a plan-artifact error
    // from every consumer, for rectangular and skewed plans alike; no
    // backend indexes by it.
    let skewed = include_str!("golden/example2.v4.plan.json");
    let skewed_zero = skewed.replace("\"proc_grid\": [8, 4]", "\"proc_grid\": [0, 4]");
    let skewed_rank = skewed
        .replace("\"proc_grid\": [8, 4]", "\"proc_grid\": [8, 4, 1]")
        .replace(
            "\"tile_extents\": [127, 127]",
            "\"tile_extents\": [127, 127, 0]",
        )
        .replace(
            "[1, 0],\n      [1, -1]",
            "[1, 0, 0],\n      [1, -1, 0],\n      [0, 0, 1]",
        );
    assert_ne!(skewed_zero, skewed);
    assert!(skewed_rank.contains("[0, 0, 1]"));
    for (name, plan) in [
        (
            "rect zero factor",
            include_str!("corpus/ALP0006__zero_grid_factor.plan.json"),
        ),
        (
            "rect rank mismatch",
            include_str!("corpus/ALP0006__grid_rank_mismatch.plan.json"),
        ),
        ("skewed zero factor", &skewed_zero),
        ("skewed rank mismatch", &skewed_rank),
        (
            "zero processors",
            include_str!("corpus/ALP0006__zero_processors.plan.json"),
        ),
    ] {
        for args in [
            &["run", "--from-plan", "-"][..],
            &["--from-plan", "-", "--simulate"],
        ] {
            let (_, stderr, code) = run_cli(args, Some(plan));
            assert_eq!(code, Some(1), "{name} {args:?}: {stderr}");
            assert!(
                stderr.contains("error[ALP0006]"),
                "{name} {args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        }
    }
}

#[test]
fn planning_for_a_mesh_smaller_than_the_grid_exits_1_with_alp0004() {
    // 24 processors do not fit 16 mesh nodes: infeasible, from the
    // default command (which used to panic placing them) and `plan`
    // (which used to emit the plan) alike.
    for args in [
        &["-p", "24", "-m", "4x4", "-"][..],
        &["plan", "-p", "24", "-m", "4x4", "-"],
    ] {
        let (stdout, stderr, code) = run_cli(args, Some(STENCIL));
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error[ALP0004]"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("4x4 mesh is too small"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stdout.contains("\"proc_grid\""), "{args:?}: {stdout}");
    }
}

#[test]
fn a_saved_plan_whose_mesh_is_smaller_than_its_grid_exits_1_with_alp0006() {
    // A plan file can still carry what the planner now refuses; it is
    // a plan-artifact error when lowered, not a panic.
    let golden = include_str!("golden/example8.plan.json");
    let plan = golden.replace("\"mesh\": [8, 8]", "\"mesh\": [4, 4]");
    assert_ne!(plan, golden, "replacement must hit");
    let (_, stderr, code) = run_cli(&["--from-plan", "-"], Some(&plan));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error[ALP0006]"), "{stderr}");
    assert!(stderr.contains("4x4 mesh is too small"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn serve_client_accepts_the_long_processors_flag() {
    let (mut daemon, sock) = spawn_serve(&[]);
    let nest = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";
    let (stdout, stderr, code) = serve_client(&sock, &["--processors", "4", "-"], Some(nest));
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("tiles 4"), "{stdout}");
    let (_, _, code) = serve_client(&sock, &["--op", "shutdown"], None);
    assert_eq!(code, Some(0));
    daemon.wait().expect("daemon exits");
}

#[test]
fn simulating_a_nest_and_its_saved_plan_print_the_same_traffic() {
    // Default-mode --simulate and --from-plan --simulate are one path:
    // same nest, mesh and line size, same simulation block, aligned
    // memory included on a mesh.
    let traffic = |out: &str| -> Vec<String> {
        out.lines()
            .skip_while(|l| *l != "== simulation ==")
            .map(str::to_string)
            .collect()
    };
    for (i, mesh) in [&[][..], &["-m", "2x4"]].into_iter().enumerate() {
        let plan_path =
            std::env::temp_dir().join(format!("alp-cli-sim-{}-{i}.plan.json", std::process::id()));
        let plan_path = plan_path.to_str().expect("utf-8 temp path");
        let common = [&["-p", "8"][..], mesh].concat();

        let args = [&common[..], &["--simulate", "--line-size", "2", "-"]].concat();
        let (direct, stderr, code) = run_cli(&args, Some(STENCIL));
        assert_eq!(code, Some(0), "stderr: {stderr}");

        let args = [&["plan"][..], &common, &["--emit", plan_path, "-"]].concat();
        let (_, stderr, code) = run_cli(&args, Some(STENCIL));
        assert_eq!(code, Some(0), "stderr: {stderr}");
        let args = ["--from-plan", plan_path, "--simulate", "--line-size", "2"];
        let (replayed, stderr, code) = run_cli(&args, None);
        std::fs::remove_file(plan_path).ok();
        assert_eq!(code, Some(0), "stderr: {stderr}");

        assert_eq!(traffic(&direct).len(), 6 + i, "{direct}");
        assert_eq!(
            traffic(&direct)
                .iter()
                .any(|l| l.contains("aligned memory")),
            i == 1
        );
        assert_eq!(traffic(&direct), traffic(&replayed), "mesh {mesh:?}");
    }
}
