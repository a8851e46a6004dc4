//! E9: Theorem 3 and Lemma 3 — bounded-lattice intersection and union
//! size against brute force, over random bases.

use crate::{header, Table};
use alp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E9",
        "Theorem 3 / Lemma 3: bounded lattices vs brute force",
    );
    let mut rng = StdRng::seed_from_u64(0xA1E31FE);

    let trials = 500;
    let mut thm3_checked = 0u32;
    let mut lemma3_checked = 0u32;
    for _ in 0..trials {
        // Random independent 2x2 basis with small entries.
        let basis = loop {
            let m = IMat::from_rows(&[
                &[rng.gen_range(-3i128..=3), rng.gen_range(-3i128..=3)],
                &[rng.gen_range(-3i128..=3), rng.gen_range(-3i128..=3)],
            ]);
            if m.rank() == 2 {
                break m;
            }
        };
        let bounds = vec![rng.gen_range(0i128..=4), rng.gen_range(0i128..=4)];
        let bl = BoundedLattice::new(basis.clone(), bounds).unwrap();
        let t = IVec::new(&[rng.gen_range(-8i128..=8), rng.gen_range(-8i128..=8)]);

        // Theorem 3: intersection of L and L + t.
        let fast = bl.intersects_translate(&t);
        let brute = bl.points().iter().any(|p| bl.contains(&p.sub(&t).unwrap()));
        assert_eq!(fast, brute, "Theorem 3 mismatch: basis {basis} t {t}");
        thm3_checked += 1;

        // Lemma 3: union size for lattice translations.
        let coeff = IVec::new(&[rng.gen_range(-5i128..=5), rng.gen_range(-5i128..=5)]);
        let tt = basis.apply_row(&coeff).unwrap();
        let exact = bl.union_size_translate_exact(&tt);
        let brute_union = bl.union_size_translate_brute(&tt) as i128;
        assert_eq!(exact, brute_union, "Lemma 3 mismatch: basis {basis} t {tt}");
        lemma3_checked += 1;
    }
    outln!(out, "Theorem 3 verified on {thm3_checked} random instances");
    outln!(
        out,
        "Lemma 3 (exact form) verified on {lemma3_checked} random instances"
    );

    // Lemma 3's approximation quality.
    outln!(
        out,
        "\nLemma 3 approximation vs exact (unit basis, growing bounds):"
    );
    let t = Table::new(
        &mut out,
        &[("λ", 6), ("u", 10), ("exact", 7), ("approx", 7)],
    );
    for lam in [3i128, 7, 15, 31] {
        let bl = BoundedLattice::new(IMat::identity(2), vec![lam, lam]).unwrap();
        let u = IVec::new(&[2, 3]);
        let exact = bl.union_size_translate_exact(&u);
        let approx = bl.union_size_translate_approx(&u).unwrap();
        t.row(&mut out, &[&lam, &format!("{u}"), &exact, &approx]);
        assert!((approx - exact).abs() <= 6, "corner term only");
    }

    // Example 10's class-2 membership decisions via Theorem 3.
    outln!(
        out,
        "\nExample 10, array C: Theorem 3 decides which references intersect:"
    );
    let g = IMat::from_rows(&[&[1, 2, 1], &[0, 0, 2]]);
    let bl = BoundedLattice::new(g, vec![20, 20]).unwrap();
    for (t, expect) in [
        (IVec::new(&[0, 0, 2]), true),
        (IVec::new(&[1, 2, 2]), false),
    ] {
        let got = bl.intersects_translate(&t);
        outln!(
            out,
            "  offset diff {t}: intersecting = {got} (paper: {expect})"
        );
        assert_eq!(got, expect);
    }
    out
}
