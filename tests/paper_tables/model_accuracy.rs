//! E13: model validation — Eq. 2 / Theorem 2 / Theorem 4 estimates vs
//! exactly enumerated footprints over randomly generated loop nests, and
//! the lattice-corrected ablation.

use crate::{header, rel_err, Table};
use alp::footprint::size::single_footprint_lattice_corrected;
use alp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E13",
        "estimate accuracy over random references and tiles",
    );
    let mut rng = StdRng::seed_from_u64(0xF00D);

    // --- Single-reference footprints (Eq. 2 vs exact). -----------------
    let mut det_errs: Vec<f64> = Vec::new();
    let mut corrected_errs: Vec<f64> = Vec::new();
    let trials = 300;
    for _ in 0..trials {
        // Random nonsingular 2x2 G with small entries.
        let g = loop {
            let m = IMat::from_rows(&[
                &[rng.gen_range(-2i128..=2), rng.gen_range(-2i128..=2)],
                &[rng.gen_range(-2i128..=2), rng.gen_range(-2i128..=2)],
            ]);
            if m.is_nonsingular() {
                break m;
            }
        };
        let tile = Tile::rect(&[rng.gen_range(4i128..=16), rng.gen_range(4i128..=16)]);
        let exact = single_footprint_exact(&tile, &g) as f64;
        det_errs.push(rel_err(single_footprint_estimate(&tile, &g) as f64, exact));
        corrected_errs.push(rel_err(
            single_footprint_lattice_corrected(&tile, &g) as f64,
            exact,
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().fold(0.0f64, |a, &b| a.max(b));
    outln!(out, "single-reference footprint, {trials} random (G, L):");
    let t = Table::new(
        &mut out,
        &[("estimator", 26), ("mean err", 9), ("max err", 9)],
    );
    t.row(
        &mut out,
        &[
            &"|det LG| (Eq. 2)",
            &format!("{:.1}%", 100.0 * mean(&det_errs)),
            &format!("{:.1}%", 100.0 * max(&det_errs)),
        ],
    );
    t.row(
        &mut out,
        &[
            &"lattice-corrected (ours)",
            &format!("{:.1}%", 100.0 * mean(&corrected_errs)),
            &format!("{:.1}%", 100.0 * max(&corrected_errs)),
        ],
    );
    assert!(
        mean(&corrected_errs) < mean(&det_errs),
        "the Smith-index correction must help on non-unimodular G"
    );

    // --- Cumulative footprints (Theorem 4 vs exact). --------------------
    outln!(
        out,
        "\ncumulative footprint (Theorem 4), random stencil pairs:"
    );
    let mut thm4_errs: Vec<f64> = Vec::new();
    for _ in 0..200 {
        let (o1, o2) = (rng.gen_range(-3i128..=3), rng.gen_range(-3i128..=3));
        let src = format!(
            "doall (i, 0, 40) {{ doall (j, 0, 40) {{
               A[i,j] = A[i{}{o1}, j{}{o2}];
             }} }}",
            if o1 >= 0 { "+" } else { "" },
            if o2 >= 0 { "+" } else { "" },
        );
        let nest = parse(&src).unwrap();
        let class = &classify(&nest)[0];
        let lam = [rng.gen_range(4i128..=12), rng.gen_range(4i128..=12)];
        let thm4 = cumulative_footprint_rect(&lam, class);
        let exact = cumulative_footprint_exact(&Tile::rect(&lam), class);
        // With G = I, Theorem 4 is Lemma 3 without its Π|uᵢ| corner term:
        // it over-counts by at most that corner and matches otherwise.
        let over = thm4 - Rat::int(exact as i128);
        assert!(
            over >= Rat::ZERO && over <= Rat::int(o1.abs() * o2.abs()),
            "Theorem 4 within the corner term: offsets ({o1}, {o2}), tile {lam:?}, thm4 {thm4}, exact {exact}"
        );
        thm4_errs.push(rel_err(thm4.to_f64(), exact as f64));
    }
    outln!(
        out,
        "  mean err {:.2}%, max err {:.2}% over 200 instances",
        100.0 * mean(&thm4_errs),
        100.0 * max(&thm4_errs)
    );

    // --- Does the model rank partitions like the exact count? ----------
    outln!(
        out,
        "\nranking fidelity: model argmin == exact argmin over random 2-ref nests"
    );
    let mut agree = 0;
    let nests = 60;
    for _ in 0..nests {
        let (o1, o2) = (rng.gen_range(0i128..=4), rng.gen_range(0i128..=4));
        let src = format!(
            "doall (i, 0, 35) {{ doall (j, 0, 35) {{
               A[i,j] = B[i,j] + B[i+{o1}, j+{o2}];
             }} }}"
        );
        let nest = parse(&src).unwrap();
        let model = CostModel::from_nest(&nest);
        let classes = classify(&nest);
        let shapes: Vec<Vec<i128>> = vec![
            vec![35, 3],
            vec![17, 7],
            vec![11, 11],
            vec![7, 17],
            vec![3, 35],
        ];
        let model_best = shapes
            .iter()
            .min_by_key(|lam| model.cost_rect(lam))
            .expect("nonempty");
        let exact_best = shapes
            .iter()
            .min_by_key(|lam| {
                let tile = Tile::rect(lam);
                classes
                    .iter()
                    .map(|c| cumulative_footprint_exact(&tile, c))
                    .sum::<usize>()
            })
            .expect("nonempty");
        if model_best == exact_best {
            agree += 1;
        }
    }
    outln!(
        out,
        "  model agrees with exact on {agree}/{nests} random nests"
    );
    assert!(agree * 10 >= nests * 9, "at least 90% ranking agreement");
    out
}
