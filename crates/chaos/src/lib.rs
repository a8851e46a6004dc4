//! Deterministic fault injection for the hardened `alp-runtime`
//! executor.
//!
//! A [`FaultPlan`] is a seeded, reproducible list of faults — panic in
//! tile *k*, delay in tile *k*, flip an output element after tile *k* —
//! that the executor triggers at exactly the scheduled (tile,
//! repetition) points via the `FaultInjector` hooks (enabled by the
//! `chaos` cargo feature on both crates).  Each fault fires **at most
//! once**, so a bounded-retry run recovers deterministically: the retry
//! re-executes the tile with the fault already spent.
//!
//! The plan itself is inert data and builds without the feature; only
//! the `FaultInjector` implementation (and the containment test suite
//! under `tests/`) are feature-gated.  Faults inject *through the
//! production failure path*: an injected panic is caught by the same
//! `catch_unwind` that contains a real kernel bug, so the differential
//! tests prove the documented error codes and clean thread joins for
//! real faults, not for a simulation of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub mod io;

pub use io::{IoFaultKind, IoFaultPlan};

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the tile (before any iteration runs), exercising
    /// `catch_unwind` containment and `RuntimeError::TileFailed`.
    Panic,
    /// Sleep before the tile's iterations, exercising deadline and
    /// cancellation polling.
    Delay(Duration),
    /// After the tile completes, flip the lowest mantissa bit of one
    /// store element — a silent data fault that only differential
    /// validation (`Executor::verify`) can catch.
    FlipOutput {
        /// Flat element id in the run's `ArrayStore`.
        element: usize,
    },
}

/// When, relative to a tile's execution, a fault kind fires.
///
/// Only the feature-gated `FaultInjector` impl (and the unit tests)
/// consume phases, hence the `dead_code` allowance on the plain build.
#[cfg_attr(not(any(test, feature = "chaos")), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Before,
    After,
}

impl FaultKind {
    #[cfg_attr(not(any(test, feature = "chaos")), allow(dead_code))]
    fn phase(&self) -> Phase {
        match self {
            FaultKind::Panic | FaultKind::Delay(_) => Phase::Before,
            FaultKind::FlipOutput { .. } => Phase::After,
        }
    }
}

/// One scheduled, one-shot fault.
#[derive(Debug)]
struct Fault {
    tile: usize,
    rep: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

/// A deterministic schedule of one-shot faults, injected through the
/// executor's `chaos` hooks.
///
/// ```
/// use alp_chaos::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .with_panic(2, 0)
///     .with_delay(0, 1, Duration::from_millis(50));
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.fired_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule a panic in tile `tile` of repetition `rep`.
    pub fn with_panic(mut self, tile: usize, rep: u64) -> Self {
        self.push(tile, rep, FaultKind::Panic);
        self
    }

    /// Schedule a delay before tile `tile` of repetition `rep`.
    pub fn with_delay(mut self, tile: usize, rep: u64, delay: Duration) -> Self {
        self.push(tile, rep, FaultKind::Delay(delay));
        self
    }

    /// Schedule a flip of store element `element` after tile `tile` of
    /// repetition `rep` completes.
    pub fn with_flip(mut self, tile: usize, rep: u64, element: usize) -> Self {
        self.push(tile, rep, FaultKind::FlipOutput { element });
        self
    }

    /// A single seeded fault aimed somewhere inside a `tiles`-tile,
    /// `reps`-repetition run: the same `(seed, tiles, reps)` always
    /// yields the same fault, so failing chaos runs reproduce exactly.
    pub fn seeded(seed: u64, tiles: usize, reps: u64) -> Self {
        let tiles = tiles.max(1) as u64;
        let reps = reps.max(1);
        let tile = (mix(seed) % tiles) as usize;
        let rep = mix(seed.wrapping_add(1)) % reps;
        let kind = match mix(seed.wrapping_add(2)) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Delay(Duration::from_millis(1 + mix(seed.wrapping_add(3)) % 20)),
            _ => FaultKind::FlipOutput {
                element: (mix(seed.wrapping_add(4)) % 64) as usize,
            },
        };
        let mut plan = FaultPlan::new();
        plan.push(tile, rep, kind);
        plan
    }

    /// Like [`seeded`](FaultPlan::seeded) but always a **panic** — the
    /// fault class the serve-path containment tests need (a panic
    /// exercises an unwound compile in the coalescing cache and the
    /// executor's `ALP0008` containment, where a delay or flip would
    /// not).  Same determinism contract: one `(seed, tiles, reps)`
    /// always aims at the same `(tile, rep)`.
    pub fn seeded_panic(seed: u64, tiles: usize, reps: u64) -> Self {
        let tiles = tiles.max(1) as u64;
        let reps = reps.max(1);
        let tile = (mix(seed) % tiles) as usize;
        let rep = mix(seed.wrapping_add(1)) % reps;
        FaultPlan::new().with_panic(tile, rep)
    }

    fn push(&mut self, tile: usize, rep: u64, kind: FaultKind) {
        self.faults.push(Fault {
            tile,
            rep,
            kind,
            fired: AtomicBool::new(false),
        });
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The `(tile, rep, kind)` schedule, for asserting determinism.
    pub fn schedule(&self) -> Vec<(usize, u64, FaultKind)> {
        self.faults
            .iter()
            .map(|f| (f.tile, f.rep, f.kind.clone()))
            .collect()
    }

    /// How many faults have fired so far.
    pub fn fired_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.fired.load(Ordering::Relaxed))
            .count()
    }

    /// Claim (at most once) the next unfired fault scheduled for
    /// `(tile, rep)` in `phase`.  The swap makes the one-shot guarantee
    /// hold even when a retried tile re-enters the hook.
    #[cfg_attr(not(any(test, feature = "chaos")), allow(dead_code))]
    fn claim(&self, tile: usize, rep: u64, phase: Phase) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.tile == tile
                    && f.rep == rep
                    && f.kind.phase() == phase
                    && !f.fired.swap(true, Ordering::SeqCst)
            })
            .map(|f| f.kind.clone())
    }
}

/// Which way to corrupt the `certificate` block of an encoded
/// `PartitionPlan` artifact.
///
/// Each kind models a distinct attack surface on the certified fast
/// path, and each must die at a different layer of the defense:
///
/// * [`FlipDisjoint`](CertTamper::FlipDisjoint) is *semantic* tampering
///   — the JSON stays perfectly well-formed, so decode succeeds and
///   only the re-checker's recomputation catches the lie.
/// * [`StaleFingerprint`](CertTamper::StaleFingerprint) grafts a
///   certificate onto a plan it was never issued for; the decoder's
///   fingerprint cross-check rejects it before any verdict is trusted.
/// * [`Truncate`](CertTamper::Truncate) drops a required verdict field;
///   the decoder rejects the structurally damaged block outright.
///
/// All three must surface as the stable `ALP0011` diagnostic — never a
/// panic, never a silently accepted fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertTamper {
    /// Flip the `write_disjoint` verdict bit in place.
    FlipDisjoint,
    /// Rewrite the certificate's issuing fingerprint to a bogus value.
    StaleFingerprint,
    /// Delete the `in_bounds` field from the certificate block.
    Truncate,
}

impl CertTamper {
    /// Every tamper kind, for exhaustive chaos sweeps.
    pub const ALL: [CertTamper; 3] = [
        CertTamper::FlipDisjoint,
        CertTamper::StaleFingerprint,
        CertTamper::Truncate,
    ];
}

/// Apply `kind` to the encoded plan `json`, returning the corrupted
/// document — or `None` when the input carries no certificate block to
/// corrupt (an uncertified plan has nothing to tamper with).
///
/// The transformation is purely textual so it can forge exactly the
/// artifacts a hostile (or merely buggy) plan-producing tool could
/// write; it never goes through the honest encoder.
pub fn tamper_certificate(json: &str, kind: CertTamper) -> Option<String> {
    let cert_at = json.find("\"certificate\": {")?;
    let (head, cert) = json.split_at(cert_at);
    match kind {
        CertTamper::FlipDisjoint => {
            let (from, to) = if cert.contains("\"write_disjoint\": true") {
                ("\"write_disjoint\": true", "\"write_disjoint\": false")
            } else {
                ("\"write_disjoint\": false", "\"write_disjoint\": true")
            };
            if !cert.contains(from) {
                return None;
            }
            Some(format!("{head}{}", cert.replacen(from, to, 1)))
        }
        CertTamper::StaleFingerprint => {
            let key = "\"fingerprint\": \"";
            let start = cert.find(key)? + key.len();
            let end = start + cert[start..].find('"')?;
            Some(format!(
                "{head}{}ffffffffffffffff{}",
                &cert[..start],
                &cert[end..]
            ))
        }
        CertTamper::Truncate => {
            let field_at = cert.find("\"in_bounds\":")?;
            let line_end = field_at + cert[field_at..].find('\n')? + 1;
            Some(format!("{head}{}{}", &cert[..field_at], &cert[line_end..]))
        }
    }
}

/// SplitMix64 — the same generator the runtime uses for store seeding.
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "chaos")]
impl alp_runtime::FaultInjector for FaultPlan {
    fn before_tile(&self, tile: usize, rep: u64) {
        match self.claim(tile, rep, Phase::Before) {
            Some(FaultKind::Panic) => {
                panic!("injected panic in tile {tile} (rep {rep})")
            }
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
    }

    fn after_tile(&self, tile: usize, rep: u64, store: &alp_runtime::ArrayStore) {
        if let Some(FaultKind::FlipOutput { element }) = self.claim(tile, rep, Phase::After) {
            if element < store.len() {
                // Flip the lowest mantissa bit: the smallest possible
                // silent corruption, invisible to everything except a
                // bitwise differential check.
                let v = store.get(element);
                store.set(element, f64::from_bits(v.to_bits() ^ 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_schedule() {
        let plan = FaultPlan::new()
            .with_panic(2, 0)
            .with_delay(1, 3, Duration::from_millis(5))
            .with_flip(0, 0, 17);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.schedule(),
            vec![
                (2, 0, FaultKind::Panic),
                (1, 3, FaultKind::Delay(Duration::from_millis(5))),
                (0, 0, FaultKind::FlipOutput { element: 17 }),
            ]
        );
        assert_eq!(plan.fired_count(), 0);
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = FaultPlan::seeded(7, 8, 4);
        let b = FaultPlan::seeded(7, 8, 4);
        assert_eq!(a.schedule(), b.schedule());
        let (tile, rep, _) = a.schedule()[0].clone();
        assert!(tile < 8);
        assert!(rep < 4);
        // Different seeds spread over targets/kinds (not all identical).
        let kinds: std::collections::HashSet<_> = (0..32)
            .map(|s| match FaultPlan::seeded(s, 8, 4).schedule()[0].2 {
                FaultKind::Panic => 0,
                FaultKind::Delay(_) => 1,
                FaultKind::FlipOutput { .. } => 2,
            })
            .collect();
        assert_eq!(kinds.len(), 3, "all three fault kinds appear");
    }

    #[test]
    fn tamper_requires_a_certificate_block() {
        let bare = "{\n  \"alp-plan\": 2,\n  \"fingerprint\": \"abc\"\n}\n";
        for kind in CertTamper::ALL {
            assert_eq!(tamper_certificate(bare, kind), None, "{kind:?}");
        }
    }

    #[test]
    fn tamper_kinds_produce_distinct_corruptions() {
        let certified = concat!(
            "{\n  \"alp-plan\": 3,\n  \"fingerprint\": \"0123456789abcdef\",\n",
            "  \"certificate\": {\n    \"fingerprint\": \"0123456789abcdef\",\n",
            "    \"coverage\": true,\n    \"write_disjoint\": true,\n",
            "    \"in_bounds\": true,\n    \"idempotent\": true\n  },\n",
            "  \"source\": \"\"\n}\n"
        );
        let flipped = tamper_certificate(certified, CertTamper::FlipDisjoint).unwrap();
        assert!(flipped.contains("\"write_disjoint\": false"), "{flipped}");
        // Only the certificate block is touched, never the plan header.
        assert!(flipped.starts_with("{\n  \"alp-plan\": 3"), "{flipped}");

        let stale = tamper_certificate(certified, CertTamper::StaleFingerprint).unwrap();
        assert!(stale.contains("\"ffffffffffffffff\""), "{stale}");
        assert!(
            stale.contains("\"fingerprint\": \"0123456789abcdef\""),
            "plan-level fingerprint must survive: {stale}"
        );

        let cut = tamper_certificate(certified, CertTamper::Truncate).unwrap();
        assert!(!cut.contains("in_bounds"), "{cut}");
        assert!(cut.contains("\"idempotent\": true"), "{cut}");
    }

    #[test]
    fn seeded_panic_is_deterministic_and_always_a_panic() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded_panic(seed, 16, 4);
            let b = FaultPlan::seeded_panic(seed, 16, 4);
            assert_eq!(a.schedule(), b.schedule(), "seed {seed}");
            assert_eq!(a.len(), 1);
            let (tile, rep, kind) = a.schedule().pop().unwrap();
            assert!(tile < 16 && rep < 4);
            assert_eq!(kind, FaultKind::Panic, "seed {seed} must panic");
        }
    }

    #[test]
    fn claim_is_one_shot_per_fault() {
        let plan = FaultPlan::new().with_panic(2, 0).with_panic(2, 0);
        assert!(plan.claim(2, 0, Phase::Before).is_some());
        assert!(plan.claim(2, 0, Phase::Before).is_some(), "second fault");
        assert!(plan.claim(2, 0, Phase::Before).is_none(), "both spent");
        assert_eq!(plan.fired_count(), 2);
        // Wrong tile/rep/phase never claims.
        let plan = FaultPlan::new().with_flip(1, 0, 3);
        assert!(plan.claim(1, 0, Phase::Before).is_none());
        assert!(plan.claim(0, 0, Phase::After).is_none());
        assert!(plan.claim(1, 1, Phase::After).is_none());
        assert!(plan.claim(1, 0, Phase::After).is_some());
    }
}
