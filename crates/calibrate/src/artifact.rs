//! The calibration artifact: fitted coefficients as a versioned,
//! byte-deterministic JSON file, reusable across `alp-cli plan` runs on
//! the same machine.

use crate::{CalibrateError, LatencyModel};
use alp_plan::json::{self, Item};

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

impl Calibration {
    /// Canonical encoding — fixed field order, two-space indent, exact
    /// rationals only; encoding the same calibration twice is
    /// byte-identical.
    pub fn to_json_string(&self) -> String {
        json::pretty(|w| {
            w.field("alp-calibration").int(ARTIFACT_VERSION);
            self.model.write_fields(w);
            w.field("threads").int(self.threads);
            w.field("trials").int(self.trials);
        })
    }

    /// Decode a calibration artifact, rejecting unknown versions and
    /// malformed coefficients with a diagnostic.
    pub fn from_json_str(s: &str) -> Result<Calibration, CalibrateError> {
        let v = json::parse(s)?;
        let f = Item::root(&v);
        let found: i128 = f.req("alp-calibration", Item::int)?;
        if found != ARTIFACT_VERSION.into() {
            return Err(CalibrateError::UnsupportedVersion {
                found,
                supported: ARTIFACT_VERSION,
            });
        }
        Ok(Calibration {
            model: LatencyModel::from_json(f)?,
            threads: f.req("threads", Item::int)?,
            trials: f.req("trials", Item::int)?,
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
            ("\"threads\": 8", "\"threads\": \"8\""),
            ("\"trials\": 5", "\"trials\": 18446744073709551616"),
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
