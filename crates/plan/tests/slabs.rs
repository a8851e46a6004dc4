//! The slab plans of `SkewedCandidate::slabs` against the rule they
//! stand for: on `P` processors, the slabs along a primitive normal `h`
//! give iteration `ī` to slab `⌊(h·ī − min)/⌈span/P⌉⌋`, where `min` and
//! `span` are those of `h·ī` over the iteration space.  Each tile of the
//! slab plan must own exactly its slab's points, in lexicographic order.

use alp_linalg::{IMat, IVec};
use alp_loopir::{parse, LoopNest};
use alp_partition::communication_free_normals;
use alp_plan::{LegalityVerdict, PartitionPlan, SkewedCandidate, Transform};
use proptest::prelude::*;

/// The rule: `p` slabs of the nest's points, each in lexicographic order.
fn slabs_by_rule(nest: &LoopNest, h: &IVec, p: i128) -> Vec<Vec<Vec<i64>>> {
    let points = nest.iteration_points();
    let values: Vec<i128> = points.iter().map(|i| i.dot(h).unwrap()).collect();
    let min = *values.iter().min().unwrap();
    let span = values.iter().max().unwrap() - min + 1;
    let width = (span + p - 1) / p;
    let mut slabs = vec![Vec::new(); p as usize];
    for (i, v) in points.iter().zip(&values) {
        let point = i.0.iter().map(|&x| i64::try_from(x).unwrap()).collect();
        slabs[usize::try_from((v - min) / width).unwrap()].push(point);
    }
    slabs
}

/// Whether every tile of the plan of `slabs` owns exactly the points the
/// rule gives its slab along `h`, in order.
fn owns_the_slabs_of(nest: &LoopNest, slabs: &SkewedCandidate, h: &IVec, p: i128) -> bool {
    let verdict = LegalityVerdict::Unchecked;
    let plan = PartitionPlan::build_skewed(nest, p, None, verdict, slabs, "slabs").unwrap();
    let tiling = plan.tiling(&plan.nest().unwrap()).unwrap();
    let tiles: Vec<Vec<Vec<i64>>> = (0..tiling.len())
        .map(|t| {
            let mut points = Vec::new();
            tiling.for_each_point(t, |i| points.push(i.to_vec()));
            points
        })
        .collect();
    tiles == slabs_by_rule(nest, &h.primitive(), p)
}

/// A box nest of the given inclusive bounds, one read and one write.
fn box_nest(bounds: &[(i128, i128)]) -> LoopNest {
    let names: Vec<String> = (0..bounds.len()).map(|k| format!("i{k}")).collect();
    let subscripts = names.join(", ");
    let mut src = format!("A[{subscripts}] = B[{subscripts}];");
    for (name, (lo, hi)) in names.iter().zip(bounds).rev() {
        src = format!("doall ({name}, {lo}, {hi}) {{ {src} }}");
    }
    parse(&src).unwrap()
}

#[test]
fn the_paper_tables_slabs_are_the_rule() {
    // E3 and E18 cut Example 3 along (-3, 1); E10 also cuts Example 2
    // along (0, 1) and the 1-D wave along (-1, 1), inside a `doseq`.
    let nests = [
        "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j+3]; } }",
        "doseq (t, 1, 2) { doall (i, 101, 200) { doall (j, 1, 100) {
           A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } } }",
        "doseq (t, 1, 2) { doall (i, 1, 64) { doall (j, 1, 64) {
           A[i,j] = A[i+1,j+1] + B[i,j] + B[i+2,j+2]; } } }",
    ];
    for src in nests {
        let nest = parse(src).unwrap();
        let h = &communication_free_normals(&nest)[0];
        for p in [1, 2, 3, 5, 8, 16] {
            let slabs = SkewedCandidate::slabs(&nest, h, p).unwrap();
            assert_eq!(slabs.transform.u().col(0), *h, "{src}");
            assert_eq!(slabs.grid, [p, 1]);
            assert!(owns_the_slabs_of(&nest, &slabs, h, p), "{src} on {p}");
        }
    }
}

#[test]
fn a_completion_whose_first_column_is_not_the_normal_fails_the_rule() {
    let nest = box_nest(&[(1, 16), (1, 16)]);
    let h = IVec::new(&[-3, 1]);
    let slabs = SkewedCandidate::slabs(&nest, &h, 4).unwrap();
    assert!(owns_the_slabs_of(&nest, &slabs, &h, 4));
    // Add the second column to the first: still unimodular, but the
    // first coordinate is no longer `h·ī`.
    let u = slabs.transform.u();
    let mut wrong = u.clone();
    for r in 0..2 {
        wrong[(r, 0)] += u[(r, 1)];
    }
    let transform = Transform::new(wrong, slabs.transform.fingerprint().into()).unwrap();
    let skewed = SkewedCandidate {
        basis: transform.v().clone(),
        transform,
        ..slabs
    };
    assert!(!owns_the_slabs_of(&nest, &skewed, &h, 4));
}

#[test]
fn a_zero_or_misshapen_normal_is_refused() {
    let nest = box_nest(&[(0, 3), (0, 3)]);
    for h in [IVec::new(&[0, 0]), IVec::new(&[1, 0, 0])] {
        assert!(SkewedCandidate::slabs(&nest, &h, 2).is_err(), "{h}");
    }
    assert!(SkewedCandidate::slabs(&nest, &IVec::new(&[1, 1]), 0).is_err());
}

/// A box of depth 2 or 3 and a nonzero normal of the same depth.
fn box_and_normal() -> impl Strategy<Value = (Vec<(i128, i128)>, Vec<i128>)> {
    (2usize..=3).prop_flat_map(|depth| {
        let bounds = proptest::collection::vec((-3i128..=3, 0i128..=6), depth);
        let normal = proptest::collection::vec(-3i128..=3, depth);
        (bounds, normal)
            .prop_filter("a nonzero normal", |(_, h)| h.iter().any(|&x| x != 0))
            .prop_map(|(b, h)| (b.iter().map(|&(lo, n)| (lo, lo + n)).collect(), h))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_slab_plan_owns_the_slabs_of_the_rule(
        (bounds, h) in box_and_normal(),
        p in 1i128..=8,
    ) {
        let nest = box_nest(&bounds);
        let h = IVec(h);
        let slabs = SkewedCandidate::slabs(&nest, &h, p).unwrap();
        prop_assert_eq!(slabs.transform.u().col(0), h.primitive());
        let identity = IMat::identity(bounds.len());
        prop_assert_eq!(slabs.transform.u().mul(slabs.transform.v()).unwrap(), identity);
        prop_assert!(owns_the_slabs_of(&nest, &slabs, &h, p));
    }
}
