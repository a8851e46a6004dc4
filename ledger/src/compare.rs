//! `ledger --compare A.json B.json`: judge B against A, one row per
//! (end-to-end metric, workload), under the bounds `BENCHMARK.json` fixes.
//!
//! Each file may hold several untraced passes of a workload (several
//! seeds, or the same run repeated); a row compares the two medians.
//! Where either side's own spread is wider than the bound the row is
//! `unresolved`, not `same` — unless every run of one side beats every
//! run of the other, which no amount of spread explains away.

use crate::json::{self, Value};
use crate::spec::{Better, WORKLOADS};
use crate::stats;

/// How B reads against A on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Same,
    /// The runs disagree among themselves by more than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge samples `b` against samples `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive when B is the worse side.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let spread = spread_rel(a).max(spread_rel(b));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) > 0.0));
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let noisy = spread > bound;
    if worse_by > bound {
        if noisy && !all_b_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -bound {
        if noisy && !all_b_better {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// A side's own run-to-run spread as a share of its median: the distance
/// between its quartiles, or — below four runs, where quartiles are
/// extrapolations — between its extremes.
fn spread_rel(xs: &[f64]) -> f64 {
    if xs.len() >= 4 {
        return stats::iqr_rel(xs);
    }
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / stats::median(xs).abs().max(f64::MIN_POSITIVE)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds(spec: &Value) -> Result<Vec<Bounded>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bounded {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// The untraced passes of `workload` in a result file.
fn passes<'a>(file: &'a Value, workload: &str) -> Vec<&'a Value> {
    file.get("passes")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|p| {
            p.get("workload").and_then(Value::as_str) == Some(workload)
                && p.get("traced").and_then(Value::as_bool) == Some(false)
        })
        .collect()
}

fn samples(passes: &[&Value], metric: &str) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| p.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed_share(passes: &[&Value]) -> f64 {
    let sum = |key: &str| -> f64 {
        passes
            .iter()
            .filter_map(|p| p.get(key).and_then(Value::as_f64))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compare two result files under `spec`.  Returns the table and whether
/// any row is `worse`.
pub fn compare(spec_src: &str, a_src: &str, b_src: &str) -> Result<(String, bool), String> {
    let bounds = bounds(&json::parse(spec_src)?)?;
    let (a, b) = (json::parse(a_src)?, json::parse(b_src)?);
    let mut out = format!(
        "{:<24} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut any_worse = false;
    for workload in WORKLOADS {
        let (pa, pb) = (passes(&a, workload), passes(&b, workload));
        if pa.is_empty() || pb.is_empty() {
            out.push_str(&format!(
                "{workload:<24} absent from one side; not compared\n"
            ));
            continue;
        }
        for m in &bounds {
            let (xa, xb) = (samples(&pa, &m.name), samples(&pb, &m.name));
            if xa.is_empty() || xb.is_empty() {
                return Err(format!("{workload}: metric {} missing from a pass", m.name));
            }
            let verdict = judge(&xa, &xb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&xa), stats::median(&xb));
            out.push_str(&format!(
                "{workload:<24} {:<14} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>5.0}%  {}\n",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                verdict.label()
            ));
        }
        // Any increase in the share of failed operations is a regression.
        let (fa, fb) = (failed_share(&pa), failed_share(&pb));
        let verdict = if fb > fa {
            any_worse = true;
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        out.push_str(&format!(
            "{workload:<24} {:<14} {fa:>14.6} {fb:>14.6} {:>8} {:>5.0}%  {}\n",
            "failed_share",
            "",
            0.0,
            verdict.label()
        ));
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_direction_and_bound() {
        use Better::*;
        assert_eq!(judge(&[100.0], &[105.0], Lower, 0.10), Verdict::Same);
        assert_eq!(judge(&[100.0], &[115.0], Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[85.0], Lower, 0.10), Verdict::Better);
        assert_eq!(judge(&[100.0], &[85.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[115.0], Higher, 0.10), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        use Better::*;
        // Medians equal, but each side swings by far more than 10 %.
        let noisy = [60.0, 100.0, 140.0];
        assert_eq!(judge(&noisy, &noisy, Lower, 0.10), Verdict::Unresolved);
        // B's median is 20 % worse but the sides overlap: unresolved.
        assert_eq!(
            judge(&noisy, &[70.0, 120.0, 150.0], Lower, 0.10),
            Verdict::Unresolved
        );
        // Every B run is worse than every A run: worse despite the noise.
        assert_eq!(
            judge(&noisy, &[150.0, 200.0, 260.0], Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&noisy, &[10.0, 20.0, 50.0], Lower, 0.10),
            Verdict::Better
        );
    }

    fn file(op_ms: &[f64], failed: u64) -> String {
        let passes: Vec<String> = op_ms
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"compile-cold\", \"traced\": false, \"attempted\": 100, \
                     \"failed\": {failed}, \"metrics\": {{\"op_ms\": {{\"value\": {v}}}}}}}"
                )
            })
            .collect();
        format!("{{\"passes\": [{}]}}", passes.join(", "))
    }

    #[test]
    fn compare_reads_files_and_flags_worse_rows() {
        let spec =
            r#"{"end_to_end": [{"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let (table, worse) =
            compare(spec, &file(&[1.0, 1.02], 0), &file(&[1.01, 1.03], 0)).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("same"));
        let (table, worse) = compare(spec, &file(&[1.0, 1.02], 0), &file(&[1.5, 1.6], 0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        // More failed operations is a regression whatever the timings say.
        let (_, worse) = compare(spec, &file(&[1.0], 0), &file(&[1.0], 1)).unwrap();
        assert!(worse);
        assert!(compare(spec, "{", "{}").is_err());
    }
}
