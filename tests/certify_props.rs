//! Differential property tests for the plan certifier.
//!
//! The certifier proves its four facts symbolically — Fourier–Motzkin
//! feasibility and Diophantine lattice solves — so on nests small
//! enough to enumerate, every verdict can be checked against the ground
//! truth of brute-force enumeration: walk all iterations, materialize
//! the written/read element sets, and compare.  Any disagreement in
//! either direction (a refuted fact that enumeration proves, or a
//! proven fact that enumeration refutes) is a certifier bug.
//!
//! Also here: the executor's legacy syntactic retry rule must be a
//! *sound under-approximation* of the certified idempotence fact —
//! whenever the array-name-granularity rule accepts a nest, the
//! element-precise dataflow proof must accept it too.

use alp::prelude::*;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Render `Σ c_k·name_k + k` as parseable subscript source (the parser
/// accepts signed terms, so `0 - 2*i + 3` round-trips any small form).
fn affine_src(coeffs: &[i128], names: &[&str], k: i128) -> String {
    let mut s = String::from("0");
    for (c, n) in coeffs.iter().zip(names) {
        if *c != 0 {
            let sign = if *c < 0 { '-' } else { '+' };
            s.push_str(&format!(" {sign} {}*{n}", c.abs()));
        }
    }
    if k != 0 {
        let sign = if k < 0 { '-' } else { '+' };
        s.push_str(&format!(" {sign} {}", k.abs()));
    }
    s
}

/// A random small nest (as source text), a processor grid for it, and
/// optionally a unimodular transform to tile it under.
#[derive(Debug, Clone)]
struct Case {
    src: String,
    grid: Vec<i128>,
    /// `U` as a product of shears `row a += s · row b` applied to the
    /// identity (always unimodular); empty tiles the nest as it stands.
    shears: Vec<(usize, usize, i128)>,
}

/// Depth-1..3 nests with tiny extents, five body shapes (disjoint
/// arrays, a same-array read, two writes to one array, an `l$`
/// accumulate, an accumulate beside an assignment), coefficients in
/// `[-2, 2]`, offsets in `[-3, 3]`, grid factors in `[1, 4]` — more
/// processors than iterations along a loop included — and, on every
/// other nest of depth ≥ 2, up to two random shears: small enough that
/// every fact is enumerable, varied enough to hit proven and refuted
/// outcomes of each fact.
fn cases() -> impl Strategy<Value = Case> {
    (1usize..=3).prop_flat_map(|depth| {
        let sub = || (pvec(-2i128..=2, depth), -3i128..=3);
        (
            pvec((-2i128..=2, 2i128..=4), depth),
            pvec(1i128..=4, depth),
            (0usize..=4, sub(), sub(), sub()),
            (
                proptest::bool::ANY,
                pvec((0..depth, 0..depth, -2i128..=2), 1..=2),
            ),
        )
            .prop_map(move |(loops, grid, (kind, w, r1, r2), (skew, shears))| {
                let names: &[&str] = &["i", "j", "k"][..depth];
                let open: String = loops
                    .iter()
                    .enumerate()
                    .map(|(d, &(lo, n))| format!("doall ({}, {lo}, {}) {{ ", names[d], lo + n - 1))
                    .collect();
                let ws = affine_src(&w.0, names, w.1);
                let r1s = affine_src(&r1.0, names, r1.1);
                let r2s = affine_src(&r2.0, names, r2.1);
                let body = match kind {
                    0 => format!("A[{ws}] = B[{r1s}] + B[{r2s}];"),
                    1 => format!("A[{ws}] = A[{r1s}] + B[{r2s}];"),
                    2 => format!("A[{ws}] = B[{r1s}]; A[{r2s}] = B[{ws}];"),
                    3 => format!("l$A[{ws}] = l$A[{ws}] + B[{r1s}];"),
                    _ => format!("l$A[{ws}] = l$A[{ws}] + B[{r1s}]; C[{r2s}] = B[{ws}];"),
                };
                Case {
                    src: format!("{open}{body} {}", "} ".repeat(depth)),
                    grid,
                    shears: (shears.into_iter())
                        .filter(|&(a, b, _)| skew && a != b)
                        .collect(),
                }
            })
    })
}

/// The case's nest under its grid, rectangular: the transform left out.
fn rect_plan_for(case: &Case) -> (LoopNest, PartitionPlan) {
    let nest = parse(&case.src).expect("generated source parses");
    let tiling = Tiling::new(&nest, None, &case.grid).expect("grid matches depth");
    let partition = RectPartition {
        tile_extents: tiling.extents(),
        proc_grid: case.grid.clone(),
        cost: Rat::int(0),
    };
    let plan = PartitionPlan::build_with_partition(
        &nest,
        case.grid.iter().product(),
        None,
        LegalityVerdict::Unchecked,
        partition,
        "prop-fixed-grid",
    )
    .expect("plan builds");
    (nest, plan)
}

/// The case's plan: [`rect_plan_for`], carried through the case's
/// transform when it has one (the same grid then cuts `j`-space).
fn plan_for(case: &Case) -> (LoopNest, PartitionPlan) {
    let (nest, plan) = rect_plan_for(case);
    if case.shears.is_empty() {
        return (nest, plan);
    }
    let mut u = IMat::identity(nest.depth());
    for &(a, b, s) in &case.shears {
        for c in 0..nest.depth() {
            u[(a, c)] += s * u[(b, c)];
        }
    }
    let transform = Transform::new(u, fingerprint_hex(&nest)).expect("shears are unimodular");
    (nest, plan.with_transform(transform))
}

/// Ground truth by enumeration: (coverage, write_disjoint, in_bounds,
/// idempotent), each computed from explicit point/element sets.
/// `tiles[t]` lists the original-space iterations tile `t` owns.
fn brute_force(nest: &LoopNest, tiles: &[Vec<IVec>]) -> (bool, bool, bool, bool) {
    let space: HashSet<Vec<i128>> = nest.iteration_points().into_iter().map(|p| p.0).collect();

    // Coverage: the multiset of tile points equals the space exactly.
    let mut seen: HashMap<Vec<i128>, usize> = HashMap::new();
    let mut coverage = true;
    for p in tiles.iter().flatten() {
        if !space.contains(&p.0) {
            coverage = false;
        }
        *seen.entry(p.0.clone()).or_insert(0) += 1;
    }
    if seen.len() != space.len() || seen.values().any(|&c| c != 1) {
        coverage = false;
    }

    // Write disjointness: per tile, the set of written elements.
    let tile_writes: Vec<HashSet<(String, Vec<i128>)>> = tiles
        .iter()
        .map(|t| {
            let mut s = HashSet::new();
            for iv in t {
                for st in &nest.body {
                    s.insert((st.lhs.array.clone(), st.lhs.eval(iv).0));
                }
            }
            s
        })
        .collect();
    let mut write_disjoint = true;
    for a in 0..tiles.len() {
        for b in (a + 1)..tiles.len() {
            if !tile_writes[a].is_disjoint(&tile_writes[b]) {
                write_disjoint = false;
            }
        }
    }

    // In-bounds and idempotence over the full iteration box.
    let extents = nest.array_extents();
    let mut in_bounds = true;
    let mut reads: HashSet<(String, Vec<i128>)> = HashSet::new();
    let mut writes: HashSet<(String, Vec<i128>)> = HashSet::new();
    for p in nest.iteration_points() {
        for r in nest.all_refs() {
            let e = r.eval(&p).0;
            if let Some(ext) = extents.get(&r.array) {
                for (d, &v) in e.iter().enumerate() {
                    if v < ext[d].0 || v > ext[d].1 {
                        in_bounds = false;
                    }
                }
            }
        }
        for st in &nest.body {
            writes.insert((st.lhs.array.clone(), st.lhs.eval(&p).0));
            for r in &st.rhs {
                reads.insert((r.array.clone(), r.eval(&p).0));
            }
        }
    }
    let idempotent = reads.is_disjoint(&writes);

    (coverage, write_disjoint, in_bounds, idempotent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn certifier_verdicts_match_brute_force_enumeration(case in cases()) {
        let (nest, plan) = plan_for(&case);
        let tiles = plan.tiling(&nest).expect("grid matches depth").assignment();
        let report = certify(&plan).expect("well-formed plan certifies");
        let cert = &report.certificate;
        let (coverage, write_disjoint, in_bounds, idempotent) = brute_force(&nest, &tiles);
        // Under a transform the certifier reasons about the unclipped
        // `j`-boxes, so it may refuse to prove writes disjoint that
        // are; it must never prove ones that are not.
        let refused = !case.shears.is_empty() && !cert.write_disjoint;
        let claimed = if refused { write_disjoint } else { cert.write_disjoint };
        prop_assert_eq!(
            (cert.coverage, claimed, cert.in_bounds, cert.idempotent),
            (coverage, write_disjoint, in_bounds, idempotent),
            "certifier disagrees with enumeration on `{}` grid {:?} shears {:?}: {:?}",
            case.src, case.grid, case.shears, report.notes
        );
    }

    #[test]
    fn certified_plans_survive_their_own_recheck(case in cases()) {
        // certify → embed → recheck is the round trip `plan --certify`
        // followed by `run --require-cert` takes; it must always agree
        // with itself, whatever the verdicts are.  `certify` is the
        // pairwise prover and `recheck` the structural decider, so this
        // is also *the* differential between the two.
        let (_, plan) = plan_for(&case);
        let report = certify(&plan).expect("well-formed plan certifies");
        let certified = plan.with_certificate(report.certificate.clone());
        let proven = recheck(&certified).expect("fresh certificate re-verifies");
        prop_assert_eq!(proven, report.certificate);
    }

    #[test]
    fn identity_transform_plans_certify_and_execute_like_rectangular_ones(case in cases()) {
        // One `Tiling` behind both shapes: the same grid carried through
        // the identity transform (clipped walk, kernels composed with
        // V = I, coverage proven by point count) must prove the same
        // facts and leave the same bits as the untransformed plan.
        let (nest, rect) = rect_plan_for(&case);
        let identity = Transform::new(IMat::identity(nest.depth()), fingerprint_hex(&nest))
            .expect("identity is unimodular");
        let skew = rect.clone().with_transform(identity);
        prop_assert_eq!(
            certify(&rect).expect("certifies").certificate,
            certify(&skew).expect("certifies").certificate
        );
        // One thread: the generated nests may race, and a race is only
        // deterministic in a fixed tile order.
        let opts = ExecOptions { threads: 1, ..ExecOptions::default() };
        let mut stores = Vec::new();
        for plan in [&rect, &skew] {
            let exec = Executor::from_plan(plan).expect("lowers");
            let store = exec.seeded_store(3);
            exec.run(&store, &opts).expect("runs");
            stores.push(store.snapshot().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        prop_assert_eq!(&stores[0], &stores[1]);
    }

    #[test]
    fn syntactic_retry_rule_under_approximates_certified_idempotence(case in cases()) {
        // The legacy array-name-granularity rule may refuse nests the
        // element-precise proof accepts (e.g. `A[i] = A[i+32]`), but it
        // must never accept a nest the dataflow proof refutes.
        let (nest, plan) = plan_for(&case);
        if syntactic_retry_safe(&nest) {
            let report = certify(&plan).expect("well-formed plan certifies");
            prop_assert!(
                report.certificate.idempotent,
                "syntactic rule accepted `{}` but the dataflow proof refutes it: {:?}",
                case.src, report.notes
            );
        }
    }
}
