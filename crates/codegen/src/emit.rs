//! Readable per-processor loop-nest emission.

use crate::assign::inverse_rows;
use crate::fm::{eliminate, System};
use alp_linalg::{IMat, Rat};
use alp_loopir::LoopNest;

/// Emit pseudo-code for a rectangular partition: the SPMD loop a
/// processor with grid coordinates `(p_0, …)` executes.
///
/// Rectangular tiles need only `min`/`max` clamps — the "easy code
/// generation" §3.7 credits them with.
pub fn emit_rect_code(nest: &LoopNest, grid: &[i128]) -> String {
    assert_eq!(grid.len(), nest.depth(), "grid depth mismatch");
    let mut s = String::new();
    s.push_str("// SPMD code for processor with grid coordinates (");
    for k in 0..grid.len() {
        if k > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("p{k}"));
    }
    s.push_str(&format!(")  — grid {:?}\n", grid));
    let mut indent = 0usize;
    for (k, (lp, &g)) in nest.loops.iter().zip(grid).enumerate() {
        let n = lp.trip_count();
        let chunk = (n + g - 1) / g;
        s.push_str(&format!(
            "{}for {} in max({lo}, {lo} + p{k}*{chunk}) ..= min({hi}, {lo} + (p{k}+1)*{chunk} - 1) {{\n",
            "  ".repeat(indent),
            lp.name,
            lo = lp.lower,
            hi = lp.upper,
        ));
        indent += 1;
    }
    let names = nest.index_names();
    for st in &nest.body {
        let rhs: Vec<String> = st.rhs.iter().map(|r| r.display(&names)).collect();
        s.push_str(&format!(
            "{}{} = {};\n",
            "  ".repeat(indent),
            st.lhs.display(&names),
            if rhs.is_empty() {
                "0".into()
            } else {
                rhs.join(" + ")
            }
        ));
    }
    while indent > 0 {
        indent -= 1;
        s.push_str(&format!("{}}}\n", "  ".repeat(indent)));
    }
    s
}

/// Emit pseudo-code scanning one parallelepiped tile `L` anchored at a
/// symbolic origin, using Fourier–Motzkin elimination to derive the
/// nested loop bounds.
///
/// The tile is `{ā·L : 0 ≤ ā ≤ 1}`; in iteration coordinates the
/// constraints are `0 ≤ ī·L⁻¹ ≤ 1` componentwise.  Variables are
/// eliminated innermost-out so that loop `k`'s bounds mention only
/// `i_0..i_{k-1}`.
///
/// # Panics
/// Panics if `L` is singular.
pub fn emit_para_code(nest: &LoopNest, l_matrix: &IMat) -> String {
    let l = nest.depth();
    assert_eq!(l_matrix.rows(), l, "tile depth mismatch");
    let linv = inverse_rows(l_matrix);
    // Constraints over iteration variables x: for each tile coordinate
    // column c: 0 ≤ Σ_r x_r·linv[r][c] ≤ 1.
    let mut sys = System::new(l);
    for c in 0..l {
        let coeffs: Vec<Rat> = linv.iter().map(|row| row[c]).collect();
        sys.ge(coeffs.clone(), Rat::ZERO);
        sys.le(coeffs, Rat::ONE);
    }
    // Progressive elimination: systems[k] has variables 0..=k live.
    let mut systems = vec![sys];
    for k in (1..l).rev() {
        let prev = systems.last().expect("nonempty");
        systems.push(eliminate(prev, k));
    }
    systems.reverse(); // systems[k] now bounds variable k given 0..k-1

    let names = nest.index_names();
    let mut out = String::new();
    out.push_str(&format!(
        "// Scanning the tile at the origin with edge rows L = {:?}\n",
        (0..l)
            .map(|r| l_matrix.row(r).0.clone())
            .collect::<Vec<_>>()
    ));
    let mut indent = 0usize;
    for k in 0..l {
        let sys_k = &systems[k];
        let mut lowers: Vec<String> = Vec::new();
        let mut uppers: Vec<String> = Vec::new();
        for cst in &sys_k.constraints {
            let ck = cst.coeffs[k];
            if ck.is_zero() {
                continue;
            }
            // Σ_{j<k} c_j x_j + c_k x_k ≤ b
            //   =>  x_k ≤ (b − Σ c_j x_j)/c_k   (c_k > 0)
            //   =>  x_k ≥ (b − Σ c_j x_j)/c_k   (c_k < 0)
            let mut terms = format!("{}", cst.bound / ck);
            for (name, &cj0) in names.iter().zip(cst.coeffs.iter()).take(k) {
                let cj = cj0 / ck;
                if cj.is_zero() {
                    continue;
                }
                terms.push_str(&format!(" - ({cj})*{name}"));
            }
            if ck > Rat::ZERO {
                uppers.push(format!("floor({terms})"));
            } else {
                lowers.push(format!("ceil({terms})"));
            }
        }
        let lo = match lowers.len() {
            0 => "-inf".to_string(),
            1 => lowers.remove(0),
            _ => format!("max({})", lowers.join(", ")),
        };
        let hi = match uppers.len() {
            0 => "+inf".to_string(),
            1 => uppers.remove(0),
            _ => format!("min({})", uppers.join(", ")),
        };
        out.push_str(&format!(
            "{}for {} in {} ..= {} {{\n",
            "  ".repeat(indent),
            names[k],
            lo,
            hi
        ));
        indent += 1;
    }
    for st in &nest.body {
        let rhs: Vec<String> = st.rhs.iter().map(|r| r.display(&names)).collect();
        out.push_str(&format!(
            "{}{} = {};\n",
            "  ".repeat(indent),
            st.lhs.display(&names),
            if rhs.is_empty() {
                "0".into()
            } else {
                rhs.join(" + ")
            }
        ));
    }
    while indent > 0 {
        indent -= 1;
        out.push_str(&format!("{}}}\n", "  ".repeat(indent)));
    }
    out
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
    fn para_code_rect_tile_degenerates_to_box() {
        let nest = parse("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j]; } }").unwrap();
        let code = emit_para_code(&nest, &IMat::diag(&[4, 8]));
        // Outer: 0 ≤ i ≤ 4; inner: 0 ≤ j ≤ 8.
        assert!(code.contains("for i in ceil(0) ..= floor(4)"), "{code}");
        assert!(code.contains("for j in ceil(0) ..= floor(8)"), "{code}");
    }

    #[test]
    fn para_code_skewed_bounds_mention_outer_var() {
        let nest = parse("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j]; } }").unwrap();
        // Example 6 tile: rows (4,4), (3,0).
        let code = emit_para_code(&nest, &IMat::from_rows(&[&[4, 4], &[3, 0]]));
        // Inner loop bounds must reference i.
        let inner = code
            .lines()
            .find(|l| l.trim_start().starts_with("for j"))
            .unwrap();
        assert!(
            inner.contains('i'),
            "inner bounds should mention i: {inner}"
        );
    }

    #[test]
    #[should_panic(expected = "nonsingular")]
    fn para_code_rejects_singular() {
        let nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }").unwrap();
        emit_para_code(&nest, &IMat::from_rows(&[&[1, 1], &[2, 2]]));
    }
}
