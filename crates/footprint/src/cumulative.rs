//! Cumulative footprints of uniformly intersecting classes (§3.5,
//! Theorems 2 & 4).

use crate::class::RefClass;
use crate::size::{combinations, zonotope_volume};
use crate::tile::Tile;
use alp_linalg::{lcm, max_independent_columns, solve_rational, IMat, IVec, Rat};
use std::collections::HashSet;

/// Exact cumulative footprint: `|⋃_r F(r)|` counted by enumerating every
/// iteration of the tile against every member reference's offset.
pub fn cumulative_footprint_exact(tile: &Tile, class: &RefClass) -> usize {
    let mut seen: HashSet<IVec> = HashSet::new();
    let points = tile.points();
    for a in &class.offsets {
        for i in &points {
            let d = class.g.apply_row(i).expect("depth").add(a).expect("dim");
            seen.insert(d);
        }
    }
    seen.len()
}

/// Theorem 2 (generalized): cumulative footprint of a class for a general
/// hyperparallelepiped tile `L`:
///
/// ```text
/// |det LG| + Σᵢ |det LG_{i→â}|
/// ```
///
/// Implemented as the volume of the zonotope spanned by the rows of
/// `L·G'` **plus the spread vector `â`** as an extra generator — for a
/// square nonsingular `L·G'` the subset expansion of that volume is
/// literally the theorem's formula (the subsets omitting one row of `LG`
/// contribute the `i→â` determinants), and the zonotope form extends it
/// to rank-deficient `G` (e.g. `A[i+j]`-style references), which the
/// paper leaves to §3.8.
pub fn cumulative_footprint_general(tile: &Tile, class: &RefClass) -> i128 {
    let keep = max_independent_columns(&class.g);
    if keep.is_empty() {
        return 1; // constant references: a single element
    }
    let g_red = class.g.select_columns(&keep);
    let lg = tile.l_matrix().mul(&g_red).expect("depth");
    let spread_red = restrict(&class.spread(), &keep);
    if spread_red.is_zero() {
        return zonotope_volume(&lg);
    }
    let mut rows = lg.row_vecs();
    rows.push(spread_red);
    zonotope_volume(&IMat::from_row_vecs(&rows))
}

/// Theorem 4: cumulative footprint of a class for a **rectangular** tile
/// with extents `λ` and nonsingular (after column reduction) `G`:
///
/// ```text
/// Π (λⱼ+1)  +  Σᵢ |uᵢ| · Π_{j≠i} (λⱼ+1)      with  â = Σᵢ uᵢ·ḡᵢ
/// ```
///
/// The `uᵢ` solve `u·G = â` over the rationals (Theorem 4 derives them
/// from the bounded-lattice union size, Lemma 3).  Falls back to the
/// zonotope form of [`cumulative_footprint_general`] when `â` is not in
/// the row space of the reduced `G` (possible when the per-component
/// max/min of Def. 8 come from different references) or when the reduced
/// `G` is not square.  This is [`RectFootprint::new`] evaluated once;
/// a caller pricing many tiles of one class keeps the [`RectFootprint`].
pub fn cumulative_footprint_rect(lambda: &[i128], class: &RefClass) -> Rat {
    RectFootprint::new(class).at(lambda)
}

/// [`cumulative_footprint_rect`] of one class as coefficients of the
/// tile extents: everything it needs but `λ`, computed once per class
/// (the kept columns, `u`, the subset determinants), so that pricing a
/// tile is a few products of its extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectFootprint(Form);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Form {
    /// No column of `G` is independent: a constant reference, one
    /// element whatever the tile.
    Constant,
    /// Reduced `G` square and nonsingular: `|uᵢ| = num[i] / den`, over
    /// the least common denominator of the `uᵢ`.
    Nonsingular { num: Vec<i128>, den: i128 },
    /// The zonotope fallback.  With `L = diag(λ)` the `r`-subset `S` of
    /// the rows of `[L·G_red; â]` has determinant
    /// `Π_{k∈S} λₖ · det([G_red; â]_S)`, so the volume is a sum of
    /// `|det|`-weighted products of extents: one term per subset whose
    /// determinant is not zero — the `λ` rows it takes, `|det|`, and
    /// whether it takes `â`.
    Zonotope(Vec<(Vec<usize>, i128, bool)>),
}

impl RectFootprint {
    /// The coefficients of `class`'s Theorem-4 footprint.
    pub fn new(class: &RefClass) -> Self {
        let keep = max_independent_columns(&class.g);
        if keep.is_empty() {
            return RectFootprint(Form::Constant);
        }
        let g_red = class.g.select_columns(&keep);
        let spread_red = restrict(&class.spread(), &keep);
        if g_red.rows() == g_red.cols() && g_red.is_nonsingular() {
            if let Some(u) = solve_rational(&g_red, &spread_red) {
                let den = u.iter().fold(1, |den, ui| lcm(den, ui.den()));
                let num = u.iter().map(|ui| ui.num().abs() * (den / ui.den()));
                return RectFootprint(Form::Nonsingular {
                    num: num.collect(),
                    den,
                });
            }
        }
        let depth = g_red.rows();
        let mut rows = g_red.row_vecs();
        if !spread_red.is_zero() {
            rows.push(spread_red);
        }
        let terms = combinations(rows.len(), g_red.cols())
            .into_iter()
            .filter_map(|mut subset| {
                let sub = IMat::from_row_vecs(
                    &subset.iter().map(|&k| rows[k].clone()).collect::<Vec<_>>(),
                );
                let det = sub.det().expect("square").abs();
                let takes_spread = subset.last() == Some(&depth);
                subset.retain(|&k| k < depth);
                (det != 0).then_some((subset, det, takes_spread))
            })
            .collect();
        RectFootprint(Form::Zonotope(terms))
    }

    /// The class's footprint for a rectangular tile with extents
    /// `lambda`: exactly [`cumulative_footprint_rect`]`(lambda, class)`.
    pub fn at(&self, lambda: &[i128]) -> Rat {
        self.eval(lambda, true)
    }

    /// The spread-free part of [`at`](Self::at): the footprint of one
    /// member alone, `Π(λⱼ+1)` when `G` reduces to a nonsingular matrix
    /// and the zonotope of `L·G_red` otherwise.
    pub fn base_at(&self, lambda: &[i128]) -> Rat {
        self.eval(lambda, false)
    }

    fn eval(&self, lambda: &[i128], with_spread: bool) -> Rat {
        match &self.0 {
            Form::Constant => Rat::ONE,
            Form::Nonsingular { num, den } => {
                let side = |j: usize| lambda[j] + 1;
                let mut total = den * (0..lambda.len()).map(side).product::<i128>();
                if with_spread {
                    for (i, &n) in num.iter().enumerate().filter(|(_, &n)| n != 0) {
                        let others = (0..lambda.len()).filter(|&j| j != i);
                        total += n * others.map(side).product::<i128>();
                    }
                }
                Rat::new(total, *den)
            }
            Form::Zonotope(terms) => Rat::int(
                terms
                    .iter()
                    .filter(|(_, _, takes_spread)| with_spread || !takes_spread)
                    .map(|(rows, det, _)| det * rows.iter().map(|&k| lambda[k]).product::<i128>())
                    .sum(),
            ),
        }
    }
}

/// Keep only the listed components of a vector.
fn restrict(v: &IVec, keep: &[usize]) -> IVec {
    IVec(keep.iter().map(|&k| v[k]).collect())
}

/// **Exact** cumulative footprint for a rectangular tile and a class
/// whose reduced `G` is nonsingular, via inclusion–exclusion on the
/// coefficient lattice — no enumeration of data points.
///
/// Rationale: with independent rows of `G`, each member footprint is the
/// bounded lattice `{u·G : 0 ≤ u_k ≤ λ_k}` translated by coefficients
/// `c_r` solving `c_r·G = ā_r` (Theorem 3 machinery).  In coefficient
/// space each footprint is an axis-aligned **box**, an intersection of
/// shifted boxes is again a box, and `G` maps coefficient points 1-to-1
/// to data points (Lemma 1) — so
///
/// ```text
/// |⋃_r F_r| = Σ_{∅≠S} (−1)^{|S|+1} |⋂_{r∈S} box(c_r)|
/// ```
///
/// costs `O(2^refs · l)` instead of `O(Π λ)` — exact at analysis speed.
/// Returns `None` when the class does not reduce to a nonsingular `G` or
/// some member offset is not an *integer* lattice translate of the first
/// (then members do not share the coefficient grid and the caller should
/// fall back to [`cumulative_footprint_exact`]).
pub fn cumulative_footprint_rect_exact_lattice(lambda: &[i128], class: &RefClass) -> Option<i128> {
    use alp_linalg::solve_integer;
    let keep = max_independent_columns(&class.g);
    if keep.is_empty() {
        return Some(1);
    }
    let g_red = class.g.select_columns(&keep);
    if g_red.rows() != g_red.cols() || !g_red.is_nonsingular() {
        return None;
    }
    let base = restrict(&class.offsets[0], &keep);
    // Coefficient translate of each member relative to member 0.
    let mut shifts: Vec<IVec> = Vec::with_capacity(class.offsets.len());
    for a in &class.offsets {
        let diff = restrict(a, &keep).sub(&base).expect("dim");
        shifts.push(solve_integer(&g_red, &diff)?);
    }
    let l = lambda.len();
    let n = shifts.len();
    let mut total = 0i128;
    for mask in 1u32..(1 << n) {
        // Intersection of the boxes [shift_r, shift_r + λ] over r ∈ mask.
        let mut vol = 1i128;
        for k in 0..l {
            let mut lo = i128::MIN;
            let mut hi = i128::MAX;
            for (r, s) in shifts.iter().enumerate() {
                if mask & (1 << r) != 0 {
                    lo = lo.max(s[k]);
                    hi = hi.min(s[k] + lambda[k]);
                }
            }
            vol *= (hi - lo + 1).max(0);
            if vol == 0 {
                break;
            }
        }
        if mask.count_ones() % 2 == 1 {
            total += vol;
        } else {
            total -= vol;
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::classify;
    use alp_loopir::parse;
    use proptest::prelude::*;

    fn class_of(src: &str, array: &str) -> RefClass {
        let nest = parse(src).unwrap();
        classify(&nest)
            .into_iter()
            .find(|c| c.array == array)
            .expect("array class")
    }

    #[test]
    fn theorem2_example_section35() {
        // §3.5's worked example: B[i+j,j] and B[i+j+1,j+2], â = (1,2),
        // L = [[L11,L12],[L21,L22]], LG = [[L11+L12, L12],[L21+L22, L22]].
        // Cumulative = |det LG| + |det [â over row2]| + |det [row1 over â]|.
        let class = class_of(
            "doall (i, 0, 99) { doall (j, 0, 99) {
               A[i,j] = B[i+j,j] + B[i+j+1,j+2];
             } }",
            "B",
        );
        assert_eq!(class.spread(), IVec::new(&[1, 2]));
        let l = IMat::from_rows(&[&[10, 4], &[2, 8]]);
        let tile = Tile::general(l.clone());
        let lg = l.mul(&class.g).unwrap();
        let expected = lg.det().unwrap().abs()
            + lg.with_row(0, &IVec::new(&[1, 2])).det().unwrap().abs()
            + lg.with_row(1, &IVec::new(&[1, 2])).det().unwrap().abs();
        assert_eq!(cumulative_footprint_general(&tile, &class), expected);
    }

    #[test]
    fn example8_cumulative_formula() {
        // Example 8: B stencil, â = (2,3,4), rect tile (Li,Lj,Lk):
        // footprint ≈ LiLjLk + 2LjLk + 3LiLk + 4LiLj (continuous form).
        // Theorem 4's +1 form: Π(λ+1) + 2(λj+1)(λk+1) + 3(λi+1)(λk+1)
        // + 4(λi+1)(λj+1).
        let class = class_of(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
            "B",
        );
        assert_eq!(class.spread(), IVec::new(&[2, 3, 4]));
        let (li, lj, lk) = (6i128, 9i128, 12i128);
        let got = cumulative_footprint_rect(&[li, lj, lk], &class);
        let p = |x: i128| x + 1;
        let expected =
            p(li) * p(lj) * p(lk) + 2 * p(lj) * p(lk) + 3 * p(li) * p(lk) + 4 * p(li) * p(lj);
        assert_eq!(got, Rat::int(expected));
    }

    #[test]
    fn example10_class_b() {
        // Example 10 class 1: G = [[1,1],[1,-1]], â = (4,2) = 3ḡ₁ + 1ḡ₂.
        // Footprint = (Li+1)(Lj+1) + 3(Lj+1) + (Li+1).
        let class = class_of(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2];
             } }",
            "B",
        );
        let (li, lj) = (8i128, 5i128);
        let got = cumulative_footprint_rect(&[li, lj], &class);
        assert_eq!(got, Rat::int((li + 1) * (lj + 1) + 3 * (lj + 1) + (li + 1)));
    }

    #[test]
    fn example10_class_c_pair() {
        // Example 10 class 2: C(i,2i,i+2j-1), C(i,2i,i+2j+1): singular G,
        // keep cols {0,2}; â reduced = (0,2) = 0·(1,1) + 1·(0,2):
        // footprint = (Li+1)(Lj+1) + (Li+1).
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = C[i,2*i,i+2*j-1] + C[i,2*i,i+2*j+1];
             } }",
        )
        .unwrap();
        let class = classify(&nest)
            .into_iter()
            .find(|c| c.array == "C")
            .unwrap();
        assert_eq!(class.len(), 2);
        let (li, lj) = (8i128, 5i128);
        let got = cumulative_footprint_rect(&[li, lj], &class);
        assert_eq!(got, Rat::int((li + 1) * (lj + 1) + (li + 1)));
    }

    #[test]
    fn single_ref_class_has_no_spread_terms() {
        let class = class_of(
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[i,j]; } }",
            "A",
        );
        let got = cumulative_footprint_rect(&[4, 4], &class);
        assert_eq!(got, Rat::int(25));
    }

    #[test]
    fn exact_union_matches_manual_small_case() {
        // A[i] and A[i+3] on tile 0..=4: union {0..4} ∪ {3..7} = 8.
        let class = class_of("doall (i, 0, 9) { A[i] = A[i+3]; }", "A");
        let tile = Tile::rect(&[4]);
        assert_eq!(cumulative_footprint_exact(&tile, &class), 8);
        // Theorem 4: (4+1) + 3 = 8 exactly.
        assert_eq!(cumulative_footprint_rect(&[4], &class), Rat::int(8));
    }

    #[test]
    fn rank_deficient_class_falls_back() {
        // A[i+j] with offsets 0 and 2: exact = λ1+λ2+1+2.
        let class = class_of(
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i+j] = A[i+j+2]; } }",
            "A",
        );
        let tile = Tile::rect(&[5, 3]);
        assert_eq!(cumulative_footprint_exact(&tile, &class), 5 + 3 + 1 + 2);
        // Zonotope fallback: generators (5), (3), spread (2) -> 10.
        assert_eq!(cumulative_footprint_rect(&[5, 3], &class), Rat::int(10));
    }

    #[test]
    fn exact_lattice_matches_enumeration_stencil() {
        // Example 8's B class: three offsets, G = I.
        let class = class_of(
            "doall (i, 1, 20) { doall (j, 1, 20) { doall (k, 1, 20) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
            "B",
        );
        let lam = [5i128, 6, 7];
        let fast = cumulative_footprint_rect_exact_lattice(&lam, &class).unwrap();
        let slow = cumulative_footprint_exact(&Tile::rect(&lam), &class) as i128;
        assert_eq!(fast, slow);
    }

    #[test]
    fn exact_lattice_matches_enumeration_skewed() {
        // Example 10's B class: nonsingular non-unimodular G, offsets an
        // integer lattice translate apart.
        let class = class_of(
            "doall (i, 1, 20) { doall (j, 1, 20) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2];
             } }",
            "B",
        );
        for lam in [[4i128, 4], [9, 5], [3, 11]] {
            let fast = cumulative_footprint_rect_exact_lattice(&lam, &class).unwrap();
            let slow = cumulative_footprint_exact(&Tile::rect(&lam), &class) as i128;
            assert_eq!(fast, slow, "λ = {lam:?}");
        }
    }

    #[test]
    fn exact_lattice_declines_rank_deficient() {
        let class = class_of(
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i+j] = A[i+j+2]; } }",
            "A",
        );
        assert_eq!(
            cumulative_footprint_rect_exact_lattice(&[5, 3], &class),
            None
        );
    }

    #[test]
    fn exact_lattice_single_ref_is_box() {
        let class = class_of(
            "doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[i,j]; } }",
            "A",
        );
        assert_eq!(
            cumulative_footprint_rect_exact_lattice(&[4, 6], &class),
            Some(5 * 7)
        );
    }

    proptest! {
        #[test]
        fn exact_lattice_equals_enumeration_random(
            li in 2i128..=7, lj in 2i128..=7,
            o1 in -3i128..=3, o2 in -3i128..=3,
            o3 in -3i128..=3, o4 in -3i128..=3,
        ) {
            // Three-member class with G = I.
            let fmt = |v: i128| format!("{}{}", if v >= 0 { "+" } else { "" }, v);
            let src = format!(
                "doall (i, 4, 24) {{ doall (j, 4, 24) {{
                   A[i,j] = A[i{}, j{}] + A[i{}, j{}];
                 }} }}",
                fmt(o1), fmt(o2), fmt(o3), fmt(o4),
            );
            let nest = parse(&src).unwrap();
            // All three refs share G = I and integer offsets: one class.
            let classes = classify(&nest);
            for class in &classes {
                let lam = [li, lj];
                if let Some(fast) = cumulative_footprint_rect_exact_lattice(&lam, class) {
                    let slow = cumulative_footprint_exact(&Tile::rect(&lam), class) as i128;
                    prop_assert_eq!(fast, slow, "class {} λ {:?}", class.array, lam);
                }
            }
        }

        #[test]
        fn theorem4_tracks_exact_for_stencils(
            li in 2i128..=8, lj in 2i128..=8,
            o1 in -2i128..=2, o2 in -2i128..=2,
        ) {
            // Class: A[i,j] and A[i+o1, j+o2] (G = I).
            let src = format!(
                "doall (i, 0, 20) {{ doall (j, 0, 20) {{
                   A[i,j] = A[i{}{}, j{}{}];
                 }} }}",
                if o1 >= 0 { "+" } else { "" }, o1,
                if o2 >= 0 { "+" } else { "" }, o2,
            );
            let class = class_of(&src, "A");
            let tile = Tile::rect(&[li, lj]);
            let exact = cumulative_footprint_exact(&tile, &class) as i128;
            let thm4 = cumulative_footprint_rect(&[li, lj], &class);
            // With G = I, Theorem 4 comes from Lemma 3 dropping the
            // Π|uᵢ| corner term, so it over-counts by at most that corner
            // and matches otherwise.
            let corner = o1.abs() * o2.abs();
            let diff = thm4 - Rat::int(exact);
            prop_assert!(diff >= Rat::ZERO && diff <= Rat::int(corner),
                "thm4 {:?} exact {} corner {}", thm4, exact, corner);
        }

        #[test]
        fn general_estimate_close_to_exact_unimodular(
            li in 3i128..=7, lj in 3i128..=7,
            a1 in 0i128..=2, a2 in 0i128..=2,
        ) {
            // Class with G = [[1,0],[1,1]] (Example 6 family).
            let src = format!(
                "doall (i, 0, 20) {{ doall (j, 0, 20) {{
                   A[i,j] = B[i+j,j] + B[i+j+{a1},j+{a2}];
                 }} }}"
            );
            let class = class_of(&src, "B");
            let tile = Tile::rect(&[li, lj]);
            let exact = cumulative_footprint_exact(&tile, &class) as i128;
            let est = cumulative_footprint_general(&tile, &class);
            // Volume estimate is below the closed count, within boundary
            // slack.
            prop_assert!(est <= exact);
            prop_assert!(exact - est <= 6 * (li + lj + a1 + a2) + 6,
                "est {} exact {}", est, exact);
        }

        /// Random classes of every branch: full rank (`kind` 0),
        /// rank-deficient (1), zero spread over any `G` (2) and
        /// nonsingular `G` of determinant at least 2, where `u` is
        /// mostly fractional (3).  On random extents the coefficients
        /// give Theorem 4 exactly where `G` reduces to a nonsingular
        /// matrix and the zonotope volume of Theorem 2 elsewhere, and
        /// their base term is the footprint of the class with its
        /// spread removed.
        #[test]
        fn coefficients_price_every_class_like_the_theorems(
            kind in 0u8..4, d in 1usize..=3, members in 1usize..=3,
            e in proptest::collection::vec(-3i128..=3, 9),
            o in proptest::collection::vec(-3i128..=3, 9),
            lam in proptest::collection::vec(0i128..=9, 3),
        ) {
            let g = match kind {
                // Fewer array dimensions than loops, or at depth 1 a
                // constant reference.
                1 if d == 1 => IMat::zeros(1, 1),
                1 => IMat::from_vec(d, d - 1, e[..d * (d - 1)].to_vec()),
                2 => IMat::from_vec(d, d, e[..d * d].to_vec()),
                3 => IMat::from_vec(d, d, (0..d * d).map(|x| match (x / d, x % d) {
                    (i, j) if i == j => 2 + e[x].rem_euclid(2),
                    (i, j) if i < j => e[x],
                    _ => 0,
                }).collect()),
                _ => {
                    let g = IMat::from_vec(d, d, e[..d * d].to_vec());
                    (0..)
                        .map(|c| g.add(&IMat::identity(d).scale(c)).unwrap())
                        .find(IMat::is_nonsingular)
                        .unwrap()
                }
            };
            let l = g.cols();
            let offsets: Vec<IVec> = (0..members)
                .map(|r| if kind == 2 { 0 } else { r * l })
                .map(|at| IVec(o[at..at + l].to_vec()))
                .collect();
            let class = RefClass {
                array: "A".into(),
                g,
                kinds: vec![alp_loopir::AccessKind::Read; members],
                offsets,
            };
            let lam = &lam[..d];
            let coefficients = RectFootprint::new(&class);
            let (at, base) = (coefficients.at(lam), coefficients.base_at(lam));
            prop_assert_eq!(at, cumulative_footprint_rect(lam, &class));
            let keep = max_independent_columns(&class.g);
            if kind == 0 || kind == 3 {
                prop_assert_eq!(keep.len(), d);
            }
            if keep.is_empty() {
                prop_assert_eq!((at, base), (Rat::ONE, Rat::ONE));
                prop_assert_eq!(cumulative_footprint_general(&Tile::rect(lam), &class), 1);
            } else if keep.len() == d {
                let g_red = class.g.select_columns(&keep);
                let u = solve_rational(&g_red, &restrict(&class.spread(), &keep)).unwrap();
                let sides = |skip: usize| {
                    let mut p = Rat::ONE;
                    for (_, &x) in lam.iter().enumerate().filter(|&(j, _)| j != skip) {
                        p = p * Rat::int(x + 1);
                    }
                    p
                };
                let mut thm4 = sides(d);
                for (i, ui) in u.iter().enumerate() {
                    thm4 = thm4 + ui.abs() * sides(i);
                }
                prop_assert_eq!(at, thm4, "G = {} u = {:?}", class.g, u);
                prop_assert_eq!(base, sides(d));
            } else {
                let tile = Tile::rect(lam);
                let general = cumulative_footprint_general(&tile, &class);
                prop_assert_eq!(at, Rat::int(general), "G = {}", class.g);
                let spread_free = RefClass {
                    offsets: vec![class.offsets[0].clone()],
                    kinds: vec![alp_loopir::AccessKind::Read],
                    ..class.clone()
                };
                prop_assert_eq!(base, Rat::int(cumulative_footprint_general(&tile, &spread_free)));
            }
        }
    }
}
