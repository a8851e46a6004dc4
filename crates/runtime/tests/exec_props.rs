//! Property tests: for random legal nests and random rectangular
//! partitions, the parallel executor must (a) produce bitwise-identical
//! results to the sequential reference under every schedule and thread
//! count, and (b) execute every iteration exactly once per repetition.

use alp_loopir::{parse, LoopNest};
use alp_plan::Tiling;
use alp_runtime::{ExecOptions, Executor, Schedule, POLL_INTERVAL};
use proptest::prelude::*;
use std::collections::HashSet;

/// Per-dimension (lower bound, trip count).
type Bounds = Vec<(i128, i128)>;

fn bounds_strategy(depth: usize) -> impl Strategy<Value = Bounds> {
    proptest::collection::vec((-2i128..=2, 1i128..=5), depth..=depth)
}

fn grid_strategy(depth: usize) -> impl Strategy<Value = Vec<i128>> {
    proptest::collection::vec(1i128..=3, depth..=depth)
}

/// Build a random-but-legal nest source: disjoint identity writes (and
/// optionally an accumulate) reading offset references of a read-only
/// array.  Legality holds by construction: no array is both written and
/// read across iterations, and writes hit distinct elements.
fn nest_source(bounds: &Bounds, template: usize, seq: bool) -> String {
    let depth = bounds.len();
    let idx: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
    let id_subs = idx.join(", ");
    let shifted: Vec<String> = idx.iter().map(|n| format!("{n}+1")).collect();
    let shifted_subs = shifted.join(", ");
    // Accumulate target collapses the innermost dimension (all
    // iterations along it race on one element — the Appendix-A case).
    let acc_subs = if depth == 1 {
        "0".to_string()
    } else {
        idx[..depth - 1].join(", ")
    };
    let body = match template {
        0 => format!("A[{id_subs}] = B[{id_subs}] + B[{shifted_subs}];"),
        1 => format!(
            "A[{id_subs}] = B[{shifted_subs}];\n C[{id_subs}] = B[{id_subs}] + B[{id_subs}];"
        ),
        _ => format!("S[{acc_subs}] += B[{id_subs}];"),
    };
    wrap_loops(bounds, seq, &body)
}

/// `body` inside one `doall i{k}` per dimension of `bounds`, the whole
/// repeated three times by an outer `doseq` when `seq`.
fn wrap_loops(bounds: &Bounds, seq: bool, body: &str) -> String {
    let mut src = String::new();
    if seq {
        src.push_str("doseq (t, 0, 2) {\n");
    }
    for (k, &(lo, trip)) in bounds.iter().enumerate() {
        src.push_str(&format!("doall (i{k}, {lo}, {}) {{\n", lo + trip - 1));
    }
    src.push_str(body);
    src.push_str(&"}".repeat(bounds.len() + usize::from(seq)));
    src
}

fn check_exact_cover(nest: &LoopNest, grid: &[i128]) {
    let tiling = Tiling::new(nest, None, grid).unwrap();
    let mut covered: HashSet<Vec<i64>> = HashSet::new();
    let mut total = 0u64;
    for tile in tiling.boxes() {
        tile.for_each_point(|i| {
            assert!(covered.insert(i.to_vec()), "iteration {i:?} covered twice");
            total += 1;
        });
    }
    let expected: HashSet<Vec<i64>> = nest
        .iteration_points()
        .into_iter()
        .map(|p| p.0.iter().map(|&x| x as i64).collect())
        .collect();
    assert_eq!(total as usize, expected.len());
    assert_eq!(covered, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_partitions_execute_exactly(
        spec in (1usize..=3).prop_flat_map(|d| (
            bounds_strategy(d),
            grid_strategy(d),
            0usize..3,
            any::<bool>(),
            any::<bool>(),
            1usize..=4,
        )),
    ) {
        let (bounds, grid, template, seq, dynamic, threads) = spec;
        let src = nest_source(&bounds, template, seq);
        let nest = parse(&src).unwrap();

        // (b) the tiles cover the iteration space exactly once.
        check_exact_cover(&nest, &grid);

        // (a) parallel result is bitwise equal to the sequential
        // reference, and the executed iteration count is exact — with
        // atomic accumulates on every grid, with the certificate's
        // relaxed stores on the grids where tiles write disjoint
        // elements (the accumulate template collapses the innermost
        // dimension, so there the grid must not split it), and with
        // touch tracking on and off.
        let write_disjoint = template != 2 || grid[grid.len() - 1] == 1;
        let volume: i128 = nest.iteration_count();
        let reps: i128 = nest.seq_repetitions();
        let mut reference: Option<Vec<u64>> = None;
        for relaxed in [false, true] {
            if relaxed && !write_disjoint {
                continue;
            }
            let mut exec = Executor::from_grid(&nest, &grid).unwrap();
            if relaxed {
                exec.apply_certificate(true, false);
            }
            prop_assert_eq!(exec.uses_relaxed_stores(), relaxed);
            for track_touches in [true, false] {
                let opts = ExecOptions {
                    threads,
                    schedule: if dynamic { Schedule::Dynamic } else { Schedule::Static },
                    track_touches,
                    ..ExecOptions::default()
                };
                let store = exec.seeded_store(0xA1E5_EED0);
                let expected = reference.get_or_insert_with(|| {
                    bits(&exec.run_reference(&store.snapshot()))
                });
                let report = exec.run(&store, &opts).unwrap();
                prop_assert!(
                    bits(&store.snapshot()) == *expected,
                    "parallel != sequential (relaxed {relaxed}, tracked {track_touches}) for:\n{src}"
                );

                prop_assert_eq!(report.total_iterations as i128, volume * reps);
                // Per-tile iteration counts add up per repetition as well.
                let per_tile: u64 = report.per_tile.iter().map(|t| t.iterations).sum();
                prop_assert_eq!(per_tile as i128, volume);
                prop_assert_eq!(
                    report.per_tile.iter().all(|t| t.distinct_lines.is_some()),
                    track_touches
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_invariant_accumulates_execute_exactly(
        spec in (1usize..=3).prop_flat_map(|d| (
            proptest::collection::vec((-2i128..=2, 1i128..=3), d - 1..=d - 1),
            (-2i128..=2, POLL_INTERVAL as i128 + 1..=2 * POLL_INTERVAL as i128 + 500),
            proptest::collection::vec(any::<bool>(), d - 1..=d - 1),
            grid_strategy(d),
            1usize..=3,
            any::<bool>(),
            2usize..=4,
        )),
    ) {
        // The destination never names the innermost index (and drops
        // each outer one at random), so the kernel sums every row cut
        // in a register and publishes it once.  Rows are longer than
        // POLL_INTERVAL, so one row is several publishes; a grid that
        // splits a dropped dimension has several threads publishing
        // into the same cell.
        let (mut bounds, inner, dropped, grid, sources, seq, threads) = spec;
        bounds.push(inner);
        let depth = bounds.len();
        let idx: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
        let kept: Vec<&str> = (0..depth - 1)
            .filter(|&k| !dropped[k])
            .map(|k| idx[k].as_str())
            .collect();
        let dest = if kept.is_empty() { "0".to_string() } else { kept.join(", ") };
        let ids = idx.join(", ");
        let shifted = idx.iter().map(|n| format!("{n}+1")).collect::<Vec<_>>().join(", ");
        let rhs = [format!("B[{ids}]"), format!("B[{shifted}]"), format!("D[{ids}]")];
        let body = format!("l$S[{dest}] = l$S[{dest}] + {};", rhs[..sources].join(" + "));
        let src = wrap_loops(&bounds, seq, &body);
        let nest = parse(&src).unwrap();

        // Writers stay disjoint exactly when no dropped dimension
        // (the innermost included) is split.
        let write_disjoint = grid[depth - 1] == 1
            && (0..depth - 1).all(|k| !dropped[k] || grid[k] == 1);
        let total = nest.iteration_count() * nest.seq_repetitions();
        let mut reference: Option<Vec<u64>> = None;
        for relaxed in [false, true] {
            if relaxed && !write_disjoint {
                continue;
            }
            let mut exec = Executor::from_grid(&nest, &grid).unwrap();
            if relaxed {
                exec.apply_certificate(true, false);
            }
            for schedule in [Schedule::Static, Schedule::Dynamic] {
                let opts = ExecOptions { threads, schedule, ..ExecOptions::default() };
                let store = exec.seeded_store(0x0A11_ACC5);
                let expected = reference.get_or_insert_with(|| {
                    bits(&exec.run_reference(&store.snapshot()))
                });
                let report = exec.run(&store, &opts).unwrap();
                prop_assert!(
                    bits(&store.snapshot()) == *expected,
                    "parallel != sequential (relaxed {relaxed}, {schedule:?}, grid {grid:?}) for:\n{src}"
                );
                prop_assert_eq!(report.total_iterations as i128, total);
            }
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Elementary-operation recipe for a random unimodular matrix: each
/// `(a, b, c)` with `a != b` adds `c·row_a` to `row_b` (det preserved)
/// or, when `c == 0`, swaps rows `a` and `b` (det negated).  Starting
/// from the identity, the product is always unimodular.
fn unimodular_ops(depth: usize) -> impl Strategy<Value = Vec<(usize, usize, i128)>> {
    proptest::collection::vec((0..depth, 0..depth, -2i128..=2), 0..=4)
}

fn build_unimodular(depth: usize, ops: &[(usize, usize, i128)]) -> alp_linalg::IMat {
    let mut m = alp_linalg::IMat::identity(depth);
    for &(a, b, c) in ops {
        if a == b {
            continue;
        }
        for k in 0..depth {
            if c == 0 {
                let t = m[(a, k)];
                m[(a, k)] = m[(b, k)];
                m[(b, k)] = t;
            } else {
                let t = c * m[(a, k)];
                m[(b, k)] += t;
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_unimodular_transforms_execute_exactly(
        spec in (1usize..=3).prop_flat_map(|d| (
            bounds_strategy(d),
            grid_strategy(d),
            unimodular_ops(d),
            0usize..3,
            any::<bool>(),
            1usize..=4,
        )),
    ) {
        // The skewed executor — rectangular tiles in j = i·U, each
        // walked as exact rows of the original space — must be bitwise
        // equal to the sequential reference for EVERY unimodular U,
        // and must execute each iteration exactly once.
        let (bounds, grid, ops, template, seq, threads) = spec;
        let src = nest_source(&bounds, template, seq);
        let nest = parse(&src).unwrap();
        let u = build_unimodular(nest.depth(), &ops);
        let t = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();

        let exec = Executor::from_transformed(&nest, &t, &grid).unwrap();
        let opts = ExecOptions { threads, ..ExecOptions::default() };
        let outcome = exec.verify(0xA1E5_EED0, &opts).unwrap();
        prop_assert!(outcome.matches_reference, "skewed != sequential for U={:?}\n{src}", t.u());

        let volume: i128 = nest.iteration_count();
        let reps: i128 = nest.seq_repetitions();
        prop_assert_eq!(outcome.report.total_iterations as i128, volume * reps);
        let per_tile: u64 = outcome.report.per_tile.iter().map(|t| t.iterations).sum();
        prop_assert_eq!(per_tile as i128, volume);
    }

    #[test]
    fn strided_nests_execute_exactly(
        spec in (1usize..=3).prop_flat_map(|d| (
            bounds_strategy(d),
            proptest::collection::vec(1i128..=3, d..=d),
            grid_strategy(d),
            unimodular_ops(d),
            1usize..=4,
        )),
    ) {
        // Non-unit strides normalize away in the parser; both the
        // rectangular and the skewed executor must still match the
        // sequential reference bitwise on the normalized nest.
        let (bounds, strides, grid, ops, threads) = spec;
        let depth = bounds.len();
        let idx: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
        let mut src = String::new();
        for (k, (&(lo, trip), &s)) in bounds.iter().zip(&strides).enumerate() {
            src.push_str(&format!(
                "doall ({}, {}, {}, {}) {{\n", idx[k], lo, lo + s * (trip - 1), s
            ));
        }
        let ids = idx.join(", ");
        src.push_str(&format!("A[{ids}] = B[{ids}] + B[{ids}];"));
        for _ in 0..depth { src.push('}'); }
        let nest = parse(&src).unwrap();
        prop_assert_eq!(nest.iteration_count(), bounds.iter().map(|&(_, t)| t).product::<i128>());

        let opts = ExecOptions { threads, ..ExecOptions::default() };
        let rect = Executor::from_grid(&nest, &grid).unwrap();
        let outcome = rect.verify(0x57A1_DE00, &opts).unwrap();
        prop_assert!(outcome.matches_reference, "rect != sequential for:\n{src}");

        let u = build_unimodular(depth, &ops);
        let t = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        let skewed = Executor::from_transformed(&nest, &t, &grid).unwrap();
        let outcome = skewed.verify(0x57A1_DE00, &opts).unwrap();
        prop_assert!(outcome.matches_reference, "skewed != sequential for U={:?}\n{src}", t.u());
    }
}

/// A skewed accumulate whose tiles write disjoint cells: `U` maps
/// `i + j` to `j₀` and the grid cuts only `j₀`, so every cell `S[i+j]`
/// lies in one tile — the write disjointness a certificate proves, here
/// by construction (this crate does not depend on the certifier; the
/// root `certify_props` suite runs certified skewed plans).  On
/// fractional data the relaxed run must be the reference bit for bit:
/// each cell folds its points in the nest's own order, `i` ascending.
/// (A walk in `j`-space order folds them `j` ascending — `i` descending
/// along a cell's antidiagonal — and misses the bits.)
#[test]
fn a_certified_skewed_accumulate_folds_each_cell_in_the_references_order() {
    let src = "doall (i, 1, 40) { doall (j, 1, 40) { l$S[i+j] = l$S[i+j] + A[i,j] + B[j]; } }";
    let nest = parse(src).unwrap();
    let u = alp_linalg::IMat::from_rows(&[&[1, 0], &[1, 1]]);
    let t = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
    let mut exec = Executor::from_transformed(&nest, &t, &[4, 1]).unwrap();
    exec.apply_certificate(true, false);
    let lines = exec.layout().total_lines();
    let init: Vec<f64> = (1..=lines).map(|k| k as f64 / 10.0).collect();
    for threads in [1, 4] {
        let store = alp_runtime::ArrayStore::zeroed(lines);
        store.load_from(&init);
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        exec.run(&store, &opts).unwrap();
        assert_eq!(bits(&store.snapshot()), bits(&exec.run_reference(&init)));
    }
}

/// One source of the step-sign differential, by what a step along the
/// innermost index `x` adds to its element id: one (`B[.., x]`, and
/// `F[70-.., x]`, which steps back across rows), zero (`D[..]`, and
/// `E[0]`, which does not move across rows either), minus one
/// (`B[.., 70-x]`, the `B[i,70-j]` case) or a whole column (`C[x, ..]`,
/// the `C[j,i]` case).
fn step_source(kind: usize, outer: &[String], x: &str) -> String {
    let (sep, outer_back) = match outer.is_empty() {
        true => ("", String::new()),
        false => (
            ", ",
            outer
                .iter()
                .map(|o| format!("70-{o}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    };
    let outer = outer.join(", ");
    match kind {
        0 => format!("B[{outer}{sep}{x}]"),
        1 => format!("D[{outer}{sep}0]"),
        2 => "E[0]".to_string(),
        3 => format!("B[{outer}{sep}70-{x}]"),
        4 => format!("C[{x}{sep}{outer}]"),
        _ => format!("F[{outer_back}{sep}{x}]"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_step_sign_executes_like_the_reference(
        spec in (1usize..=3).prop_flat_map(|d| (
            proptest::collection::vec((-2i128..=2, 1i128..=9), d..=d),
            proptest::collection::vec(1i128..=3, d..=d),
            0usize..4,
            proptest::collection::vec(0usize..6, 1..=4),
            proptest::collection::vec((0usize..3, 0usize..3, -2i128..=2), 0..=3),
            1usize..=3,
        )),
    ) {
        // Destinations: a row-invariant accumulate `S[..]` (jammed from
        // depth 2), or a write whose step is one (`A[.., x]`), minus one
        // (`A[.., 70-x]`) or a column (`A[x, ..]`), the first of them as
        // an accumulate of its own cell.  Trip counts 1..=9 give
        // one-point rows and panels whose row count is no multiple of
        // JAM.
        let (bounds, mut grid, dest, kinds, shears, threads) = spec;
        let depth = bounds.len();
        let idx: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
        let (outer, x) = (idx[..depth - 1].join(", "), &idx[depth - 1]);
        let sep = if outer.is_empty() { "" } else { ", " };
        let rhs: Vec<String> = kinds.iter().map(|&k| step_source(k, &idx[..depth - 1], x)).collect();
        let rhs = rhs.join(" + ");
        let body = match dest {
            0 => {
                let s = if outer.is_empty() { "0" } else { outer.as_str() };
                format!("l$S[{s}] = l$S[{s}] + {rhs};")
            }
            1 => format!("l$A[{outer}{sep}{x}] = l$A[{outer}{sep}{x}] + {rhs};"),
            2 => format!("A[{outer}{sep}70-{x}] = {rhs};"),
            _ => format!("A[{x}{sep}{outer}] = {rhs};"),
        };
        let src = wrap_loops(&bounds, false, &body);
        let nest = parse(&src).unwrap();

        // A skewed plan whose `U` never lets the innermost index into
        // an outer `j`: a tile then holds each outer prefix's whole
        // rows, so with the innermost dimension uncut the tiles write
        // disjoint cells and the relaxed path is sound.
        let mut u = alp_linalg::IMat::identity(depth);
        for &(a, b, by) in &shears {
            let (a, b) = (a % depth, b % depth);
            if a != b && b != depth - 1 {
                for c in 0..depth {
                    let add = by * u[(a, c)];
                    u[(b, c)] += add;
                }
            }
        }
        let t = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        if dest == 0 {
            grid[depth - 1] = 1;
        }
        let lines = Executor::from_grid(&nest, &grid).unwrap().layout().total_lines();
        let fractional: Vec<f64> = (1..=lines).map(|k| k as f64 / 10.0).collect();
        for skewed in [false, true] {
            for relaxed in [false, true] {
                let mut exec = match skewed {
                    false => Executor::from_grid(&nest, &grid).unwrap(),
                    true => Executor::from_transformed(&nest, &t, &grid).unwrap(),
                };
                exec.apply_certificate(relaxed, false);
                let opts = ExecOptions { threads, ..ExecOptions::default() };
                let seeded = exec.seeded_store(0x5_7E95).snapshot();
                // The atomic path reassociates a cut's additions: exact
                // only on integer data.  The relaxed path is the
                // reference's own fold, for any data.
                let data: &[&[f64]] = if relaxed { &[&seeded, &fractional] } else { &[&seeded] };
                for init in data {
                    let store = alp_runtime::ArrayStore::zeroed(lines);
                    store.load_from(init);
                    let report = exec.run(&store, &opts).unwrap();
                    prop_assert!(
                        bits(&store.snapshot()) == bits(&exec.run_reference(init)),
                        "skewed {skewed}, relaxed {relaxed}, grid {grid:?}, U={:?}:\n{src}", t.u()
                    );
                    prop_assert_eq!(report.total_iterations as i128, nest.iteration_count());
                }
            }
        }
    }
}
