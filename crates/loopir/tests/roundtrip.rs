//! Property tests: the pretty-printer and the parser are inverses, and
//! the `(G, ā)` extraction is faithful to evaluation.

use alp_linalg::{IMat, IVec};
use alp_loopir::{parse, AccessKind, ArrayRef, LoopIndex, LoopNest, Statement};
use proptest::prelude::*;

/// Generate a random affine subscript over `depth` indices: a column of
/// `G` and its entry of `ā`.
fn arb_subscript(depth: usize) -> impl Strategy<Value = (Vec<i128>, i128)> {
    (proptest::collection::vec(-4i128..=4, depth), -9i128..=9)
}

/// Generate a random reference to one of a few arrays.
fn arb_ref(depth: usize, kind: AccessKind) -> impl Strategy<Value = ArrayRef> {
    (
        prop_oneof![Just("A"), Just("B"), Just("C")],
        proptest::collection::vec(arb_subscript(depth), 1..=3),
    )
        .prop_map(move |(name, subs)| {
            let d = subs.len();
            let (cols, a): (Vec<Vec<i128>>, Vec<i128>) = subs.into_iter().unzip();
            let g = IMat::from_vec(d, depth, cols.concat()).transpose();
            ArrayRef::new(name, g, IVec(a), kind)
        })
}

/// Generate a random valid nest (consistent array dimensionality).
fn arb_nest() -> impl Strategy<Value = LoopNest> {
    (1usize..=3).prop_flat_map(|depth| {
        let loops: Vec<LoopIndex> = (0..depth)
            .map(|k| LoopIndex::new(format!("i{k}"), 0, 7))
            .collect();
        proptest::collection::vec(
            (
                arb_ref(depth, AccessKind::Write),
                proptest::collection::vec(arb_ref(depth, AccessKind::Read), 0..=3),
            ),
            1..=3,
        )
        .prop_filter_map("consistent array dims", move |stmts| {
            let body: Vec<Statement> = stmts
                .into_iter()
                .map(|(lhs, rhs)| Statement::new(lhs, rhs))
                .collect();
            LoopNest::new(loops.clone(), body).ok()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_parse_roundtrip(nest in arb_nest()) {
        let text = nest.display();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        prop_assert_eq!(nest, reparsed);
    }

    #[test]
    fn g_matrix_matches_eval(nest in arb_nest(), point in proptest::collection::vec(0i128..=7, 3)) {
        let depth = nest.depth();
        let i = IVec(point[..depth].to_vec());
        for r in nest.all_refs() {
            let direct = r.eval(&i);
            let via_matrix = r
                .g_matrix()
                .apply_row(&i)
                .unwrap()
                .add(r.offset())
                .unwrap();
            prop_assert_eq!(direct, via_matrix);
        }
    }

    #[test]
    fn iteration_count_matches_enumeration(nest in arb_nest()) {
        prop_assert_eq!(nest.iteration_points().len() as i128, nest.iteration_count());
    }

    #[test]
    fn strided_parse_matches_manual_substitution(
        lo in -8i128..=8,
        s in 1i128..=5,
        trips in 1i128..=12,
        c in -4i128..=4,
        d in -9i128..=9,
        slack in 0i128..=4,
    ) {
        // Upper bound lands `slack` short of the next lattice point, so
        // the trip count is exactly `trips` regardless.
        let hi = lo + s * (trips - 1) + slack.min(s - 1);
        let src = format!("doall (i, {lo}, {hi}, {s}) {{ A[{c}*i + {d}] = A[{c}*i + {d}]; }}");
        let n = parse(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        prop_assert_eq!(n.iteration_count(), trips);
        // The normalized subscript touches exactly the strided image.
        let want: std::collections::BTreeSet<i128> =
            (0..trips).map(|t| c * (lo + s * t) + d).collect();
        let r = &n.body[0].lhs;
        let got: std::collections::BTreeSet<i128> = (n.loops[0].lower..=n.loops[0].upper)
            .map(|i| r.g_matrix()[(0, 0)] * i + r.offset()[0])
            .collect();
        prop_assert_eq!(got, want);
        // display() emits the unit-stride form, which reparses exactly.
        let reparsed = parse(&n.display()).unwrap();
        prop_assert_eq!(n, reparsed);
    }

    #[test]
    fn strided_2d_iteration_space_is_the_lattice_product(
        (lo_i, s_i, trips_i) in (-4i128..=4, 1i128..=4, 1i128..=6),
        (lo_j, s_j, trips_j) in (-4i128..=4, 1i128..=4, 1i128..=6),
    ) {
        let hi_i = lo_i + s_i * (trips_i - 1);
        let hi_j = lo_j + s_j * (trips_j - 1);
        let src = format!(
            "doall (i, {lo_i}, {hi_i}, {s_i}) {{ doall (j, {lo_j}, {hi_j}, {s_j}) {{
               A[i + j, i - j] = A[i + j, i - j]; }} }}"
        );
        let n = parse(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        prop_assert_eq!(n.iteration_count(), trips_i * trips_j);
        // Every touched (row, col) pair of the original strided space.
        let want: std::collections::BTreeSet<(i128, i128)> = (0..trips_i)
            .flat_map(|a| (0..trips_j).map(move |b| {
                let (i, j) = (lo_i + s_i * a, lo_j + s_j * b);
                (i + j, i - j)
            }))
            .collect();
        let r = &n.body[0].lhs;
        let got: std::collections::BTreeSet<(i128, i128)> = n
            .iteration_points()
            .iter()
            .map(|p| { let v = r.eval(p); (v.0[0], v.0[1]) })
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn array_extents_cover_all_accesses(nest in arb_nest()) {
        let ext = nest.try_array_extents().unwrap();
        for i in nest.iteration_points().iter().take(64) {
            for r in nest.all_refs() {
                let d = r.eval(i);
                let e = &ext[&r.array];
                for (x, &(lo, hi)) in d.0.iter().zip(e) {
                    prop_assert!(lo <= *x && *x <= hi, "{}[{}] outside {:?}", r.array, d, e);
                }
            }
        }
    }
}
