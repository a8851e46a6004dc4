//! What every workload shares: the parameters of one pass, its result,
//! and the helpers that time set-up and measure throughput.

use crate::host::{self, Host};
use crate::spec::Metrics;
use crate::stats;
use crate::trace::Span;
use std::path::Path;
use std::time::{Duration, Instant};

/// Parameters of one pass over one workload.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Smoke-test sizes: same code paths, inputs small enough for ~1 s.
    pub quick: bool,
    /// The host descriptor (thread and connection counts).
    pub host: &'a Host,
    /// A directory this pass may create files in; removed afterwards.
    pub scratch: &'a Path,
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations refused, shed, errored, or whose output differed from
    /// the reference.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Per-case rows and notes for the human-readable report.
    pub rows: Vec<String>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Pass {
    /// Count one failed operation, keeping the first few messages.
    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message());
        }
    }
}

/// The most set-ups one pass makes.
pub const MAX_SETUPS: usize = 9;

/// The steps of one set-up, each timed on its own as it runs.  A set-up
/// makes the same steps in the same order every time it is repeated.
#[derive(Debug, Default)]
pub struct Pieces {
    seconds: Vec<f64>,
}

impl Pieces {
    /// Run `step` as the next piece of the set-up.
    pub fn time<R>(&mut self, step: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = step();
        self.seconds.push(t0.elapsed().as_secs_f64());
        out
    }
}

/// Run `setup` repeatedly and report the time of one undisturbed set-up:
/// every piece at its floor across the repetitions, added up — the same
/// reading of set-up as the windows take of the work (README "The host is
/// not steady").  The median of whole set-ups moved by a quarter between
/// two sets of ten runs a quarter of an hour apart, and by half where a
/// set-up is seconds of interpreter.
///
/// Repeats while the pieces' total stays under `budget`, at most
/// [`MAX_SETUPS`] times, at least once; earlier results are dropped before the next
/// set-up begins so only one is ever resident.  The closure is told which
/// repetition it is making, counting from 0.
pub fn repeat_setup<S>(
    budget: Duration,
    mut setup: impl FnMut(usize, &mut Pieces) -> Result<S, String>,
) -> Result<(S, f64, usize), String> {
    let mut floors: Vec<f64> = Vec::new();
    let (mut reps, mut spent) = (0, 0.0);
    loop {
        let mut pieces = Pieces::default();
        let state = setup(reps, &mut pieces)?;
        reps += 1;
        let last: f64 = pieces.seconds.iter().sum();
        spent += last;
        if reps == 1 {
            floors = pieces.seconds;
        } else if pieces.seconds.len() == floors.len() {
            for (floor, s) in floors.iter_mut().zip(pieces.seconds) {
                *floor = floor.min(s);
            }
        } else {
            return Err(format!(
                "set-up made {} pieces, then {}",
                floors.len(),
                pieces.seconds.len()
            ));
        }
        if reps >= MAX_SETUPS || spent + last >= budget.as_secs_f64() {
            return Ok((state, floors.iter().sum(), reps));
        }
        drop(state);
    }
}

impl Ctx<'_> {
    /// How long set-up may repeat itself: two fifths of the window of an
    /// untraced pass, so the driver's runs fit its time limit; a traced
    /// pass does not report `setup_s` and sets up once.
    pub fn setup_budget(&self) -> Duration {
        if self.traced {
            Duration::ZERO
        } else {
            self.window * 2 / 5
        }
    }

    /// Settle the host for a measurement that keeps `threads` threads
    /// busy (see [`host::condition`]).  One thread needs no settling:
    /// set-up was single-threaded too.
    pub fn condition(&self, threads: usize) {
        if threads < 2 {
            return;
        }
        let length = if self.quick {
            Duration::from_millis(100)
        } else {
            Duration::from_secs(2)
        };
        host::condition(threads, length);
    }
}

/// A window cut into twenty equal time slices, each summarised on its
/// own: operations per second and median latency.  The window's figures
/// are those of its best slice ([`stats::floor`], [`stats::ceiling`]), so
/// a slow phase of the host spoils the slices it falls in and not the
/// figure.
#[derive(Debug)]
pub struct Slices {
    slice: Duration,
    slice_start: Instant,
    current_us: Vec<f64>,
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    total: u64,
    begin: Instant,
}

impl Slices {
    /// Start counting now; `window / 20` per slice.
    pub fn new(window: Duration) -> Self {
        let now = Instant::now();
        Slices {
            slice: (window / 20).max(Duration::from_millis(10)),
            slice_start: now,
            current_us: Vec::new(),
            rates: Vec::new(),
            p50_us: Vec::new(),
            total: 0,
            begin: now,
        }
    }

    /// Count one operation that completed at `now` after `latency_us`.
    pub fn tick(&mut self, now: Instant, latency_us: f64) {
        self.current_us.push(latency_us);
        self.total += 1;
        let elapsed = now.duration_since(self.slice_start);
        if elapsed >= self.slice {
            self.rates
                .push(self.current_us.len() as f64 / elapsed.as_secs_f64());
            self.current_us
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
            self.p50_us.push(stats::percentile(&self.current_us, 50.0));
            self.current_us.clear();
            self.slice_start = now;
        }
    }

    /// Operations per second: the best slice's, or the overall mean when
    /// the window was too short to fill four.
    pub fn per_second(&self) -> f64 {
        if self.rates.len() >= 4 {
            stats::ceiling(&self.rates)
        } else {
            self.total as f64 / self.begin.elapsed().as_secs_f64().max(1e-9)
        }
    }

    /// Median latency of each complete slice, in microseconds.
    pub fn slice_p50_us(&self) -> &[f64] {
        &self.p50_us
    }

    /// How many complete slices there are.
    pub fn slices(&self) -> usize {
        self.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_within_budget_and_adds_up_the_floors_of_its_pieces() {
        // Two pieces; a slow phase falls on the first in one repetition
        // and on the second in another.
        let script = [[0.03, 0.01], [0.01, 0.04], [0.02, 0.02]];
        let (state, seconds, reps) = repeat_setup(Duration::from_secs(5), |rep, pieces| {
            pieces.seconds.extend(script[rep.min(2)]);
            Ok::<_, String>(rep)
        })
        .unwrap();
        assert_eq!((state, reps), (MAX_SETUPS - 1, MAX_SETUPS));
        assert_eq!(seconds, 0.02);
        // A set-up longer than the budget runs once.
        let (_, _, reps) = repeat_setup(Duration::ZERO, |_, _| Ok::<_, String>(())).unwrap();
        assert_eq!(reps, 1);
        assert!(repeat_setup(Duration::ZERO, |_, _| Err::<(), _>("boom".to_string())).is_err());
        // Every repetition makes the same pieces.
        let uneven = repeat_setup(Duration::from_secs(5), |rep, pieces| {
            pieces.seconds.extend(vec![0.01; rep + 1]);
            Ok::<_, String>(())
        });
        assert!(uneven.is_err());
        let mut pieces = Pieces::default();
        assert_eq!(pieces.time(|| 7), 7);
        assert_eq!(pieces.seconds.len(), 1);
    }

    #[test]
    fn slices_report_their_best() {
        let mut r = Slices::new(Duration::from_millis(200));
        let t0 = r.begin;
        // Eight 10 ms slices; slow phases make five of them a tenth as
        // fast and ten times as slow.  Neither figure moves.
        for (slice, ops) in [100u64, 10, 10, 100, 10, 10, 100, 10]
            .into_iter()
            .enumerate()
        {
            for k in 1..=ops {
                let at = Duration::from_micros(slice as u64 * 10_000 + k * 10_000 / ops);
                r.tick(t0 + at, 10_000.0 / ops as f64);
            }
        }
        assert_eq!(r.slices(), 8);
        assert!(
            (r.per_second() - 10_000.0).abs() < 1.0,
            "{}",
            r.per_second()
        );
        assert_eq!(stats::floor(r.slice_p50_us()), 100.0);
    }
}
