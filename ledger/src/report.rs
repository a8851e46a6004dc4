//! Turning a finished pass into its three renderings: the lines a person
//! reads, the one-line result the driver reads, and the entry in the
//! result file that `--compare` reads.

use crate::json::quote;
use crate::pass::Pass;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};

/// One pass with the parameters it ran under.
#[derive(Debug)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Per-layer (traced) or end-to-end (untraced).
    pub traced: bool,
    /// Measured window in seconds.
    pub seconds: f64,
    /// The pass.
    pub pass: Pass,
}

impl Record {
    /// The table this pass must fill.
    pub fn table(&self) -> &'static [MetricSpec] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric of the table with its value.  A per-layer metric the
    /// workload never set reads 0: the workload does not call that layer.
    /// An end-to-end metric has no such excuse and comes back `None`.
    pub fn values(&self) -> Vec<(&'static MetricSpec, Option<(f64, usize)>)> {
        self.table()
            .iter()
            .map(|spec| {
                let got = self
                    .pass
                    .metrics
                    .get(spec.name)
                    .map(|m| (m.value, m.samples));
                (spec, got.or(self.traced.then_some((0.0, 0))))
            })
            .collect()
    }

    /// True when nothing failed and every metric is present and finite.
    pub fn correct(&self) -> bool {
        self.pass.failed == 0
            && self.pass.attempted > 0
            && self
                .values()
                .iter()
                .all(|(_, v)| v.is_some_and(|(x, _)| x.is_finite()))
    }

    /// The report a person reads.
    pub fn human(&self) -> String {
        let mut out = format!(
            "== {} seed={} traced={} window={}s ==\n",
            self.workload, self.seed, self.traced as u8, self.seconds
        );
        for row in &self.pass.rows {
            out.push_str(&format!("  {row}\n"));
        }
        for (spec, v) in self.values() {
            match v {
                Some((x, n)) => {
                    out.push_str(&format!("metric {} {} {} n={n}\n", spec.name, x, spec.unit))
                }
                None => out.push_str(&format!("metric {} MISSING {}\n", spec.name, spec.unit)),
            }
        }
        out.push_str(&format!(
            "ops attempted={} failed={} failed_share={}\n",
            self.pass.attempted,
            self.pass.failed,
            self.pass.failed as f64 / self.pass.attempted.max(1) as f64
        ));
        for f in &self.pass.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }

    fn metrics_json(&self, with_samples: bool) -> String {
        let fields: Vec<String> = self
            .values()
            .into_iter()
            .filter_map(|(spec, v)| v.map(|v| (spec, v)))
            .map(|(spec, (x, n))| {
                let samples = if with_samples {
                    format!(", \"samples\": {n}")
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                    quote(spec.name),
                    number(x),
                    quote(spec.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The single line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.pass.attempted,
            self.pass.failed,
            self.metrics_json(false)
        )
    }

    /// This pass's entry in the result file.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self.pass.rows.iter().map(|r| quote(r)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"seconds\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"rows\": [{}]}}",
            quote(self.workload),
            self.seed,
            self.traced,
            number(self.seconds),
            self.correct(),
            self.pass.attempted,
            self.pass.failed,
            self.metrics_json(true),
            rows.join(", ")
        )
    }
}

/// A number as JSON: every digit Rust needs to round-trip it; a
/// non-finite value (which `correct` has already flagged) as `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn record(traced: bool) -> Record {
        let mut pass = Pass {
            attempted: 10,
            ..Pass::default()
        };
        if traced {
            pass.metrics.set("loopir.parse_us", 6.25, 7);
        } else {
            for (k, m) in END_TO_END.iter().enumerate() {
                pass.metrics.set(m.name, 1.5 + k as f64, 3);
            }
        }
        Record {
            workload: "compile-cold",
            seed: 1,
            traced,
            seconds: 1.0,
            pass,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        for traced in [false, true] {
            let r = record(traced);
            let v = json::parse(&r.contract_line()).unwrap();
            let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
            let metrics = v.get("metrics").and_then(json::Value::as_obj).unwrap();
            let names: Vec<&str> = r.table().iter().map(|m| m.name).collect();
            assert_eq!(metrics.len(), names.len());
            for n in names {
                let m = &metrics[n];
                assert_eq!(m.as_obj().unwrap().len(), 2, "{n} has value and unit only");
                assert!(m.get("value").and_then(json::Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_failure_is_incorrect() {
        let mut r = record(false);
        r.pass.metrics = Default::default();
        assert!(!r.correct());
        assert!(r.human().contains("MISSING"));
        let mut r = record(false);
        r.pass.fail(|| "boom".into());
        assert!(!r.correct());
        assert!(r.human().contains("FAILED: boom"));
        // An unset layer reads 0 and is fine.
        assert!(record(true).correct());
        assert!(json::parse(&record(true).json()).is_ok());
    }
}
