//! The calibration artifact: fitted coefficients as a versioned,
//! byte-deterministic JSON file, reusable across `alp-cli plan` runs on
//! the same machine.

use crate::{CalibrateError, LatencyModel};
use alp_plan::json::{self, Json, ObjWriter};
use alp_plan::PlanError;

/// Newest calibration schema version this build reads and writes.
pub const ARTIFACT_VERSION: u32 = 1;

/// A fitted latency model plus the probe provenance it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    /// The fitted coefficients.
    pub model: LatencyModel,
    /// OS threads the probe ran with.
    pub threads: usize,
    /// Timed trials per probed grid.
    pub trials: usize,
}

fn count_field(v: &Json, key: &str) -> Result<u64, CalibrateError> {
    v.get(key)
        .and_then(Json::as_int)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| CalibrateError::Schema(format!("`{key}` must be a count")))
}

impl Calibration {
    /// Canonical encoding — fixed field order, two-space indent, exact
    /// rationals only; encoding the same calibration twice is
    /// byte-identical.
    pub fn to_json_string(&self) -> String {
        let head = ObjWriter::new().field("alp-calibration", Json::Int(ARTIFACT_VERSION.into()));
        let mut out = String::new();
        (self.model.write_fields(head))
            .field("threads", Json::Int(self.threads as i128))
            .field("trials", Json::Int(self.trials as i128))
            .render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Decode a calibration artifact, rejecting unknown versions and
    /// malformed coefficients with a diagnostic.
    pub fn from_json_str(s: &str) -> Result<Calibration, CalibrateError> {
        let v = json::parse(s)?;
        let version = v
            .get("alp-calibration")
            .and_then(Json::as_int)
            .ok_or_else(|| {
                CalibrateError::Schema("missing `alp-calibration` schema version field".into())
            })?;
        if version != ARTIFACT_VERSION as i128 {
            return Err(CalibrateError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        Ok(Calibration {
            // The coefficient block is the plan's; its schema
            // complaints are this artifact's.
            model: LatencyModel::from_json(&v).map_err(|e| match e {
                PlanError::Schema(m) => CalibrateError::Schema(m),
                e => CalibrateError::Plan(e),
            })?,
            threads: count_field(&v, "threads")? as usize,
            trials: count_field(&v, "trials")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_linalg::Rat;

    fn sample() -> Calibration {
        Calibration {
            model: LatencyModel {
                per_tile_ns: Rat::new(1507, 1000),
                per_line_ns: Rat::new(21, 1000),
                per_span_line_ns: Rat::new(3, 1000),
                per_iter_ns: Rat::new(911, 1000),
                per_rep_ns: Rat::int(42_000),
                samples: 36,
            },
            threads: 8,
            trials: 5,
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let c = sample();
        let text = c.to_json_string();
        let back = Calibration::from_json_str(&text).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let text = sample()
            .to_json_string()
            .replace("\"alp-calibration\": 1", "\"alp-calibration\": 9");
        assert!(matches!(
            Calibration::from_json_str(&text),
            Err(CalibrateError::UnsupportedVersion {
                found: 9,
                supported: 1
            })
        ));
    }

    #[test]
    fn malformed_fields_are_rejected() {
        let good = sample().to_json_string();
        for (from, to) in [
            ("\"per_line_ns\": \"21/1000\"", "\"per_line_ns\": \"fast\""),
            ("\"per_rep_ns\": \"42000/1\"", "\"per_rep_ns\": \"1/0\""),
            ("\"samples\": 36", "\"samples\": -1"),
            ("\"per_tile_ns\": \"1507/1000\"", "\"per_tile_ns\": 2"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement `{from}` did not apply");
            assert!(
                matches!(
                    Calibration::from_json_str(&bad),
                    Err(CalibrateError::Schema(_))
                ),
                "`{to}` was not rejected"
            );
        }
        assert!(matches!(
            Calibration::from_json_str("{ \"alp-calibration\": "),
            Err(CalibrateError::Json(_))
        ));
    }
}
