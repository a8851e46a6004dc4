//! Fitting the latency model from probe measurements.

use crate::{CalibrateError, LatencyModel};
use alp_linalg::Rat;

/// One probe observation: what one tile cost per repetition, and the
/// features the model explains it with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSample {
    /// Measured busy time of the tile, per repetition, in nanoseconds.
    pub busy_ns: f64,
    /// Distinct cache lines the tile touched (measured when touch
    /// tracking was on, modeled otherwise).
    pub lines: f64,
    /// The tile's address envelope in lines (analytic, see
    /// [`GridFeatures::span_lines`](crate::GridFeatures::span_lines)).
    pub span_lines: f64,
    /// Iterations in the tile per repetition.
    pub iters: f64,
}

/// Minimum probe samples [`fit`] accepts — twice the parameter count,
/// so the normal equations are honestly overdetermined.
pub const MIN_SAMPLES: usize = 8;

/// Coefficients snap to rationals over this denominator: 1/1000 ns
/// resolution, comfortably below timer noise.
const SNAP_DEN: i128 = 1000;

fn snap(x: f64) -> Rat {
    let clamped = x.max(0.0);
    Rat::new((clamped * SNAP_DEN as f64).round() as i128, SNAP_DEN)
}

/// Solve the `n×n` system `m·x = rhs` by Gaussian elimination with
/// partial pivoting; `None` when (numerically) singular.
fn solve(mut m: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for row in col + 1..n {
            let f = m[row][col] / m[col][col];
            let (upper, lower) = m.split_at_mut(row);
            for (k, cell) in lower[0].iter_mut().enumerate().take(n).skip(col) {
                *cell -= f * upper[col][k];
            }
            rhs[row] -= f * rhs[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut v = rhs[row];
        for k in row + 1..n {
            v -= m[row][k] * x[k];
        }
        x[row] = v / m[row][row];
    }
    Some(x)
}

/// Least-squares fit of `busy ≈ a + b·lines + s·span + d·iters` over
/// `active` feature columns (the intercept is always active); inactive
/// columns get coefficient 0.  Features are scaled to unit max before
/// solving so the normal equations stay conditioned, and a whisper of
/// ridge keeps collinear probes (e.g. every candidate producing the
/// same iteration count) solvable instead of singular.
fn fit_active(samples: &[TileSample], active: &[bool; 3]) -> Option<[f64; 4]> {
    let col = |s: &TileSample, j: usize| match j {
        0 => 1.0,
        1 => s.lines,
        2 => s.span_lines,
        _ => s.iters,
    };
    let mut idx = vec![0usize];
    for (j, &on) in active.iter().enumerate() {
        if on {
            idx.push(j + 1);
        }
    }
    let n = idx.len();
    let scale: Vec<f64> = idx
        .iter()
        .map(|&j| {
            let m = samples.iter().map(|s| col(s, j).abs()).fold(0.0, f64::max);
            if m > 0.0 {
                m
            } else {
                1.0
            }
        })
        .collect();
    let mut xtx = vec![vec![0.0f64; n]; n];
    let mut xty = vec![0.0f64; n];
    for s in samples {
        for a in 0..n {
            let xa = col(s, idx[a]) / scale[a];
            for b in 0..n {
                xtx[a][b] += xa * col(s, idx[b]) / scale[b];
            }
            xty[a] += xa * s.busy_ns;
        }
    }
    let ridge = 1e-9
        * (0..n)
            .map(|a| xtx[a][a])
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE);
    for (a, row) in xtx.iter_mut().enumerate() {
        row[a] += ridge;
    }
    let sol = solve(xtx, xty)?;
    let mut out = [0.0f64; 4];
    for (k, &j) in idx.iter().enumerate() {
        out[j] = sol[k] / scale[k];
    }
    Some(out)
}

/// Fit the latency model from probe samples plus the mean critical-path
/// barrier wait (`barrier_ns`, nanoseconds per repetition).
///
/// Negative fitted coefficients are physically meaningless (they only
/// arise from collinearity or noise), so the fit projects onto the
/// non-negative orthant the standard way: drop the most negative
/// feature, refit the rest, repeat.  The intercept clamps at zero.
pub fn fit(samples: &[TileSample], barrier_ns: f64) -> Result<LatencyModel, CalibrateError> {
    if samples.len() < MIN_SAMPLES {
        return Err(CalibrateError::NotEnoughSamples {
            got: samples.len(),
            need: MIN_SAMPLES,
        });
    }
    let mut active = [true; 3];
    let coeffs = loop {
        let c = fit_active(samples, &active).ok_or_else(|| {
            CalibrateError::Degenerate(
                "normal equations are singular; probe more distinct tilings".into(),
            )
        })?;
        let worst = (0..3)
            .filter(|&j| active[j] && c[j + 1] < 0.0)
            .min_by(|&a, &b| c[a + 1].total_cmp(&c[b + 1]));
        match worst {
            Some(j) => active[j] = false,
            None => break c,
        }
    };
    Ok(LatencyModel {
        per_tile_ns: snap(coeffs[0]),
        per_line_ns: snap(coeffs[1]),
        per_span_line_ns: snap(coeffs[2]),
        per_iter_ns: snap(coeffs[3]),
        per_rep_ns: snap(barrier_ns),
        samples: samples.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: f64, b: f64, s: f64, d: f64) -> Vec<TileSample> {
        // 3 feature regimes × 4 magnitudes, exactly on the model.
        let mut out = Vec::new();
        for k in 1..=4 {
            let k = k as f64;
            for (lines, span, iters) in [
                (100.0 * k, 150.0 * k, 4000.0 * k),
                (300.0 * k, 9000.0 * k, 4000.0 * k),
                (200.0 * k, 400.0 * k, 1000.0 * k),
            ] {
                out.push(TileSample {
                    busy_ns: a + b * lines + s * span + d * iters,
                    lines,
                    span_lines: span,
                    iters,
                });
            }
        }
        out
    }

    #[test]
    fn recovers_known_coefficients() {
        let m = fit(&synth(1500.0, 2.5, 0.125, 0.75), 42_000.0).unwrap();
        assert_eq!(m.per_tile_ns, Rat::new(1_500_000, 1000));
        assert_eq!(m.per_line_ns, Rat::new(2500, 1000));
        assert_eq!(m.per_span_line_ns, Rat::new(125, 1000));
        assert_eq!(m.per_iter_ns, Rat::new(750, 1000));
        assert_eq!(m.per_rep_ns, Rat::int(42_000));
        assert_eq!(m.samples, 12);
    }

    #[test]
    fn negative_coefficients_are_projected_out() {
        // Data generated with NO span effect but noisy lines: the fit
        // must never report a negative coefficient.
        let mut samples = synth(1000.0, 3.0, 0.0, 0.5);
        for (i, s) in samples.iter_mut().enumerate() {
            s.busy_ns += if i % 2 == 0 { 35.0 } else { -35.0 };
        }
        let m = fit(&samples, 0.0).unwrap();
        assert!(m.per_line_ns >= Rat::ZERO);
        assert!(m.per_span_line_ns >= Rat::ZERO);
        assert!(m.per_iter_ns >= Rat::ZERO);
        assert!(m.per_tile_ns >= Rat::ZERO);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let samples = synth(1.0, 1.0, 1.0, 1.0);
        assert!(matches!(
            fit(&samples[..4], 0.0),
            Err(CalibrateError::NotEnoughSamples { got: 4, need: 8 })
        ));
    }

    #[test]
    fn collinear_features_still_fit() {
        // span == 2·lines everywhere: individually unidentifiable, but
        // the ridge + projection must still return a usable model.
        let samples: Vec<TileSample> = (1..=10)
            .map(|k| {
                let lines = 100.0 * k as f64;
                TileSample {
                    busy_ns: 500.0 + 4.0 * lines,
                    lines,
                    span_lines: 2.0 * lines,
                    iters: 50.0,
                }
            })
            .collect();
        let m = fit(&samples, 0.0).unwrap();
        // Combined effect preserved: b + 2s ≈ 4.
        let combined = m.per_line_ns.to_f64() + 2.0 * m.per_span_line_ns.to_f64();
        assert!((combined - 4.0).abs() < 0.1, "combined {combined}");
    }

    #[test]
    fn model_round_trips_through_plan_coefficients() {
        // The fitted model *is* the plan's coefficient block: it goes
        // through that codec unchanged.
        let m = fit(&synth(1500.0, 2.5, 0.125, 0.75), 42_000.0).unwrap();
        use alp_plan::json::{line, parse, Item};
        let text = line(|w| m.write_fields(w));
        let doc = parse(&text).unwrap();
        let back = LatencyModel::from_json(Item::root(&doc));
        assert_eq!(back, Ok(m));
    }
}
