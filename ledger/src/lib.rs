//! `ledger` — the repository's benchmark: one layered, seeded,
//! self-checking measurement of the compile, execute and serve paths.
//! See `README.md` in this directory and `BENCHMARK.json` at the
//! repository root.

pub mod compare;
pub mod compile_cold;
pub mod exec;
pub mod gen;
pub mod host;
pub mod json;
pub mod pass;
pub mod report;
pub mod serve_zipf;
pub mod spec;
pub mod stats;
pub mod trace;
