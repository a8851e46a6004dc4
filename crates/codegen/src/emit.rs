//! The one per-processor code emitter.

use alp_loopir::LoopNest;
use alp_plan::{PlanError, Tiling, Transform};

/// The SPMD loops processor `(p0, …)` of `grid` runs: the points of its
/// tile of [`Tiling::new(nest, transform, grid)`](Tiling::new), in the
/// nest's own coordinates and order, inside the nest's `doseq` loops
/// with a barrier per repetition.
///
/// Loop `k`'s bounds are the tiling's own
/// [`loop_rows(k)`](Tiling::loop_rows) — the rows
/// [`Tiling::for_each_panel`] walks — each solved for `i_k` over `p` and
/// the indices outside it: a rectangular tile gets two bounds a side,
/// `max`/`min` clamps (§3.7's "easy code generation"); a skewed one
/// `ceil`/`floor` of more.
///
/// Fails as [`Tiling::new`] does on a grid or transform that does not
/// fit the nest.
pub fn emit_code(
    nest: &LoopNest,
    transform: Option<&Transform>,
    grid: &[i128],
) -> Result<String, PlanError> {
    let tiling = Tiling::new(nest, transform, grid)?;
    let n = nest.depth();
    let mut names = nest.index_names();
    names.extend((0..n).map(|k| format!("p{k}")));
    let mut out = format!(
        "// SPMD code for processor with grid coordinates ({})  — grid {grid:?}\n",
        names[n..].join(", ")
    );
    if let Some(t) = transform {
        let rows: Vec<Vec<i128>> = (0..n).map(|r| t.u().row(r).0).collect();
        let i = names[..n].join(", ");
        out.push_str(&format!("// tiles are boxes of ({i})*U, U = {rows:?}\n"));
    }
    let mut line = |depth: usize, text: String| {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&text);
        out.push('\n');
    };
    let seq = nest.seq_loops.len();
    for (depth, l) in nest.seq_loops.iter().enumerate() {
        let (t, lo, hi) = (&l.name, l.lower, l.upper);
        line(depth, format!("for {t} in {lo} ..= {hi} {{"));
    }
    for k in 0..n {
        let (lo, hi) = solved_for(tiling.loop_rows(k), k, &names);
        line(seq + k, format!("for {} in {lo} ..= {hi} {{", names[k]));
    }
    for st in &nest.body {
        let rhs: Vec<String> = st.rhs.iter().map(|r| r.display(&names[..n])).collect();
        let rhs = if rhs.is_empty() {
            "0".into()
        } else {
            rhs.join(" + ")
        };
        line(seq + n, format!("{} = {rhs};", st.lhs.display(&names[..n])));
    }
    for depth in (0..seq + n).rev() {
        if depth + 1 == seq {
            line(seq, "barrier;".into());
        }
        line(depth, "}".into());
    }
    Ok(out)
}

/// [`emit_code`] for a plan without a transform.
///
/// # Panics
/// Panics when [`Tiling::new`] refuses `grid` for `nest`.
pub fn emit_rect_code(nest: &LoopNest, grid: &[i128]) -> String {
    emit_code(nest, None, grid).expect("the grid tiles the nest")
}

/// Loop `k`'s bounds from its `rows` (`Σ a_j·x_j ≤ d` over the
/// variables `names`, then `d`), `(lower, upper)`: each row solved for
/// `x_k`, a `max` of lower and a `min` of upper bounds.
fn solved_for<'a>(
    rows: impl Iterator<Item = &'a [i128]>,
    k: usize,
    names: &[String],
) -> (String, String) {
    let (mut lowers, mut uppers) = (Vec::new(), Vec::new());
    for row in rows {
        // Σ a_j·x_j ≤ d  ⇒  x_k ≤ (d − Σ_{j≠k} a_j·x_j)/a_k when a_k > 0,
        // x_k ≥ that when a_k < 0.
        let (a, s) = (&row[..names.len()], row[k].signum());
        let mut e = (row[names.len()] * s).to_string();
        for (j, name) in names.iter().enumerate().filter(|&(j, _)| j != k) {
            let v = -a[j] * s;
            if v != 0 {
                e.push_str(&format!(" {} {name}", if v > 0 { '+' } else { '-' }));
                if v.abs() != 1 {
                    e.push_str(&format!("*{}", v.abs()));
                }
            }
        }
        if a[k].abs() != 1 {
            let round = if s > 0 { "floor" } else { "ceil" };
            e = format!("{round}(({e})/{})", a[k].abs());
        }
        if s > 0 { &mut uppers } else { &mut lowers }.push(e);
    }
    let clamp = |f: &str, terms: Vec<String>| match &terms[..] {
        [one] => one.clone(),
        _ => format!("{f}({})", terms.join(", ")),
    };
    (clamp("max", lowers), clamp("min", uppers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn rect_code_shape() {
        let nest = parse("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i,j+1]; } }").unwrap();
        let code = emit_rect_code(&nest, &[4, 2]);
        assert!(code.contains("for i in max(0, 0 + p0*16)"), "{code}");
        assert!(code.contains("for j in max(0, 0 + p1*32)"), "{code}");
        assert!(code.contains("A[i, j] = B[i, j+1];"), "{code}");
    }

    #[test]
    fn rect_code_nonzero_lower() {
        let nest = parse("doall (i, 101, 200) { A[i] = A[i]; }").unwrap();
        let code = emit_rect_code(&nest, &[10]);
        assert!(code.contains("101 + p0*10"), "{code}");
        assert!(code.contains("min(200"), "{code}");
    }

    #[test]
    fn skewed_inner_bounds_mention_the_outer_index() {
        let nest = parse("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j]; } }").unwrap();
        let u = alp_linalg::IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let t = Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        let code = emit_code(&nest, Some(&t), &[2, 2]).unwrap();
        assert!(code.contains("U = [[1, 0], [1, 1]]"), "{code}");
        let inner = code.lines().find(|l| l.contains("for j")).unwrap();
        assert!(
            inner.contains("- i"),
            "inner bounds should mention i: {inner}"
        );
    }

    #[test]
    fn a_grid_that_does_not_fit_is_refused() {
        let nest = parse("doall (i, 0, 3) { A[i] = A[i]; }").unwrap();
        assert!(matches!(
            emit_code(&nest, None, &[2, 2]),
            Err(PlanError::BadGrid(_))
        ));
    }
}
