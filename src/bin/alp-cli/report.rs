//! The one error reporter and the one exit-code table.  Every failure a
//! command can meet is printed here and leaves through [`exit_for`], so
//! the same `ALP00xx` code renders and exits the same way from every
//! subcommand.  README "Exit codes" documents this table; the test
//! below checks the two against each other.

use alp::AlpError;
use std::fmt::Display;
use std::process::ExitCode;

/// `--check` only: warnings but no errors.
pub const EXIT_WARNINGS: u8 = 3;
/// The legality analysis found errors (races) — `ALP0003`.
pub const EXIT_ILLEGAL: u8 = 4;
/// `run` only: the parallel result differs from the sequential
/// reference.
pub const EXIT_MISMATCH: u8 = 5;
/// The run missed its `--timeout-ms` deadline or was cancelled —
/// `ALP0007`.
pub const EXIT_TIMEOUT: u8 = 6;
/// A tile faulted and retries are exhausted — `ALP0008`.
pub const EXIT_FAULT: u8 = 7;
/// The run is over its `--max-store-bytes` budget and `--fallback-seq`
/// was not given — `ALP0009`.
pub const EXIT_BUDGET: u8 = 8;
/// A plan certificate is missing (under `--require-cert`), stale, or
/// disagrees with recomputation — `ALP0011`.
pub const EXIT_CERT: u8 = 9;
/// The plan service shed the request under load — `ALP0012`.
pub const EXIT_OVERLOAD: u8 = 10;
/// The durable plan store holds corrupt frames — `ALP0014` (`store
/// verify` only; the daemon itself quarantines and keeps going).
pub const EXIT_STORE: u8 = 11;
/// The service is draining: a request was refused with `ALP0015`, or a
/// second termination signal aborted the daemon's graceful drain.
pub const EXIT_DRAINING: u8 = 12;

/// The exit status for a stable error code; every code without a row
/// here is a plain failure (1).
pub fn exit_for(code: &str) -> ExitCode {
    ExitCode::from(match code {
        "ALP0003" => EXIT_ILLEGAL,
        "ALP0007" => EXIT_TIMEOUT,
        "ALP0008" => EXIT_FAULT,
        "ALP0009" => EXIT_BUDGET,
        "ALP0011" => EXIT_CERT,
        "ALP0012" => EXIT_OVERLOAD,
        "ALP0014" => EXIT_STORE,
        "ALP0015" => EXIT_DRAINING,
        _ => 1,
    })
}

/// Report a failure known only by its code and message.
pub fn fail_code(code: &str, message: impl Display) -> ExitCode {
    eprintln!("alp-cli: error[{code}]: {message}");
    exit_for(code)
}

/// Report any pipeline error.
pub fn fail(e: impl Into<AlpError>) -> ExitCode {
    fail_in("", e)
}

/// [`fail`] for errors that point into DSL source: an illegal doall is
/// rendered against `src` with carets and witnesses.
pub fn fail_in(src: &str, e: impl Into<AlpError>) -> ExitCode {
    let e = e.into();
    match &e {
        AlpError::Illegal(report) => {
            eprint!("{}", report.render(src));
            eprintln!("alp-cli: refusing illegal doall (use --no-check to override)");
        }
        // The parser's own line/column rendering.
        AlpError::Parse(e) => eprintln!("alp-cli: {e}"),
        _ => return fail_code(e.code(), &e),
    }
    exit_for(e.code())
}

/// Report a failure with no stable code (I/O, transport): exit 1.
pub fn fail_io(what: impl Display, e: impl Display) -> ExitCode {
    eprintln!("alp-cli: {what}: {e}");
    ExitCode::FAILURE
}

/// Report a server's refusal (a response with `ok: false`): its code
/// exits exactly as it would had the failure happened in process.
pub fn fail_response(resp: &alp::serve::Response) -> ExitCode {
    fail_code(
        resp.code.as_deref().unwrap_or("ALP0006"),
        resp.error.as_deref().unwrap_or("request failed"),
    )
}

/// Report a request the retrying client gave up on.  A budget exhausted
/// on shed (`ALP0012`) or drain (`ALP0015`) refusals is, in the end,
/// the server's answer: it keeps that code's rendering and exit.
pub fn fail_client(who: &str, sock: &str, e: &alp::serve::client::ClientError) -> ExitCode {
    let rendered = e.to_string();
    match ["ALP0012", "ALP0015"]
        .into_iter()
        .find(|code| rendered.contains(code))
    {
        Some(code) => fail_code(code, rendered),
        None => fail_io(format_args!("{who}: {sock}"), e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All fifteen stable codes against the README exit-code table:
    /// each code's exit status must be a row of the table, and the row
    /// must name the code whenever the status is not the catch-all 1.
    #[test]
    fn exit_table_matches_the_readme() {
        let readme = include_str!("../../../README.md");
        let row = |status: u8| {
            readme
                .lines()
                .find(|l| l.starts_with(&format!("| {status} |")))
                .unwrap_or_else(|| panic!("README exit-code table has no row for {status}"))
        };
        let expected = [1, 1, 4, 1, 1, 1, 6, 7, 8, 1, 9, 10, 1, 11, 12];
        for (i, status) in expected.into_iter().enumerate() {
            let code = format!("ALP{:04}", i + 1);
            assert_eq!(
                format!("{:?}", exit_for(&code)),
                format!("{:?}", ExitCode::from(status)),
                "{code}"
            );
            if status != 1 {
                assert!(row(status).contains(&code), "README row {status}: {code}");
            }
        }
        assert!(row(1).contains("`ALP0001`–`ALP0015`"));
    }
}
