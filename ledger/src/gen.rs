//! Seeded input generation: DSL nests and the serve request schedule.
//!
//! Everything here is a pure function of the seed and uses nothing from
//! the program under test — the program only ever sees the text and the
//! requests this module produces.  The same seed gives byte-identical
//! output; `tests/determinism.rs` holds that down.

use std::collections::HashSet;

/// SplitMix64: small, fast, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds and
    /// from other `stream`s of the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// The six nest families of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `A[i,j] = B[i+a,j+b] + …`, two to five random offsets.
    Stencil2d,
    /// The same in three dimensions (Example 8's shape).
    Stencil3d,
    /// `l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]` (Fig. 11).
    Matmul,
    /// `l$S[i] = l$S[i] + A[i,j+c]`.
    RowSum,
    /// Example-2 / Example-10 references: `B[i+j, i-j+c]`, `C[i+2*j, j]`.
    Skewed2d,
    /// A strided outer `doall`, which the parser normalises away.
    Strided,
}

/// All families, in the order corpus slots cycle through them.
pub const FAMILIES: [Family; 6] = [
    Family::Stencil2d,
    Family::Stencil3d,
    Family::Matmul,
    Family::RowSum,
    Family::Skewed2d,
    Family::Strided,
];

impl Family {
    /// True for the families whose statement is an `l$` accumulate.
    pub fn accumulates(self) -> bool {
        matches!(self, Family::Matmul | Family::RowSum)
    }
}

/// One generated nest and the request parameters that go with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestSpec {
    /// DSL text.
    pub source: String,
    /// Which family produced it.
    pub family: Family,
    /// Processors to partition for.
    pub processors: i128,
}

/// Size ranges for a corpus.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Inclusive trip-count range of 2-D nests.
    pub trips_2d: (i64, i64),
    /// Inclusive trip-count range of 3-D nests.
    pub trips_3d: (i64, i64),
    /// Processor counts, cycled so each family sees each equally often.
    pub processors: &'static [i128],
}

/// The compile-cold corpus: trip counts 32–512, P ∈ {4, 16, 64}.
pub const COMPILE_SHAPE: Shape = Shape {
    trips_2d: (32, 512),
    trips_3d: (32, 512),
    processors: &[4, 16, 64],
};

/// The serve corpus: nests small enough that a `run` request (which
/// interprets the nest sequentially to check itself) costs about a
/// millisecond, so the daemon's own layers dominate.
pub const SERVE_SHAPE: Shape = Shape {
    trips_2d: (8, 40),
    trips_3d: (4, 10),
    processors: &[4, 16],
};

fn offset(c: i64) -> String {
    match c {
        0 => String::new(),
        c if c > 0 => format!("+{c}"),
        c => c.to_string(),
    }
}

/// `count` distinct offset vectors of length `dims`, entries in −3..=3.
fn offsets(rng: &mut Rng, dims: usize, count: usize) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::new();
    while out.len() < count {
        let v: Vec<i64> = (0..dims).map(|_| rng.range(-3, 3)).collect();
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn nest_source(family: Family, variant: usize, shape: &Shape, rng: &mut Rng) -> String {
    let (lo2, hi2) = shape.trips_2d;
    let (lo3, hi3) = shape.trips_3d;
    match family {
        Family::Stencil2d => {
            let (l1, l2) = (rng.range(1, 8), rng.range(1, 8));
            let (t1, t2) = (rng.range(lo2, hi2), rng.range(lo2, hi2));
            let refs: Vec<String> = offsets(rng, 2, 2 + variant % 4)
                .iter()
                .map(|o| format!("B[i{},j{}]", offset(o[0]), offset(o[1])))
                .collect();
            format!(
                "doall (i, {l1}, {}) {{ doall (j, {l2}, {}) {{ A[i,j] = {}; }} }}",
                l1 + t1 - 1,
                l2 + t2 - 1,
                refs.join(" + ")
            )
        }
        Family::Stencil3d => {
            let l: Vec<i64> = (0..3).map(|_| rng.range(1, 8)).collect();
            let t: Vec<i64> = (0..3).map(|_| rng.range(lo3, hi3)).collect();
            let refs: Vec<String> = offsets(rng, 3, 2 + variant % 4)
                .iter()
                .map(|o| format!("B[i{},j{},k{}]", offset(o[0]), offset(o[1]), offset(o[2])))
                .collect();
            format!(
                "doall (i, {}, {}) {{ doall (j, {}, {}) {{ doall (k, {}, {}) {{ A[i,j,k] = {}; }} }} }}",
                l[0],
                l[0] + t[0] - 1,
                l[1],
                l[1] + t[1] - 1,
                l[2],
                l[2] + t[2] - 1,
                refs.join(" + ")
            )
        }
        Family::Matmul => {
            let t: Vec<i64> = (0..3).map(|_| rng.range(lo3, hi3)).collect();
            format!(
                "doall (i, 0, {}) {{ doall (j, 0, {}) {{ doall (k, 0, {}) {{ \
                 l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; }} }} }}",
                t[0] - 1,
                t[1] - 1,
                t[2] - 1
            )
        }
        Family::RowSum => {
            let (t1, t2) = (rng.range(lo2, hi2), rng.range(lo2, hi2));
            let c = rng.range(0, 3);
            format!(
                "doall (i, 0, {}) {{ doall (j, 0, {}) {{ l$S[i] = l$S[i] + A[i,j{}]; }} }}",
                t1 - 1,
                t2 - 1,
                offset(c)
            )
        }
        Family::Skewed2d => {
            let (l1, l2) = (rng.range(1, 128), rng.range(1, 8));
            let (t1, t2) = (rng.range(lo2, hi2), rng.range(lo2, hi2));
            let c: Vec<i64> = (0..5).map(|_| rng.range(1, 4)).collect();
            let mut rhs = format!(
                "B[i+j,i-j{}] + B[i+j+{},i-j+{}]",
                offset(-c[0]),
                c[1] + 1,
                c[2]
            );
            if variant % 2 == 1 {
                rhs.push_str(&format!(" + C[i+2*j,j] + C[i+2*j+{},j+{}]", c[3], c[4]));
            }
            format!(
                "doall (i, {l1}, {}) {{ doall (j, {l2}, {}) {{ A[i,j] = {rhs}; }} }}",
                l1 + t1 - 1,
                l2 + t2 - 1
            )
        }
        Family::Strided => {
            let stride = rng.range(2, 4);
            let (l1, l2) = (rng.range(0, 8), rng.range(1, 8));
            let (t1, t2) = (rng.range(lo2, hi2), rng.range(lo2, hi2));
            let c = rng.range(1, 3);
            format!(
                "doall (i, {l1}, {}, {stride}) {{ doall (j, {l2}, {}) {{ \
                 A[i,j] = B[i,j] + B[i+{stride},j+{c}]; }} }}",
                l1 + (t1 - 1) * stride,
                l2 + t2 - 1
            )
        }
    }
}

/// `n` nests with pairwise distinct text.  Slot `k` takes family
/// `k mod 6`, the processor count cycles once per six slots, and the
/// reference count once per pass over the processor counts, so every
/// seed has the same mix of cheap and dear nests and only trip counts
/// and offsets vary — a median over the corpus is comparable across
/// seeds.
pub fn corpus(seed: u64, n: usize, shape: &Shape) -> Vec<NestSpec> {
    let mut rng = Rng::new(seed, 1);
    let mut seen: HashSet<String> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let family = FAMILIES[k % FAMILIES.len()];
        let round = k / FAMILIES.len();
        let processors = shape.processors[round % shape.processors.len()];
        let variant = round / shape.processors.len();
        let source = loop {
            let s = nest_source(family, variant, shape, &mut rng);
            if seen.insert(s.clone()) {
                break s;
            }
        };
        out.push(NestSpec {
            source,
            family,
            processors,
        });
    }
    out
}

/// What a scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `plan` request (90 %).
    Plan,
    /// A `plan` request with `certify: true` (5 %).
    PlanCertified,
    /// A `run` request, one executor thread (5 %).
    Run,
}

/// One request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// Request id, unique across clients.
    pub id: i128,
    /// Index into the corpus.
    pub rank: usize,
    /// What is asked of that nest.
    pub kind: Kind,
}

/// Zipf(1) cumulative table over `n` ranks, scaled to `u64`.
pub fn zipf_cdf(n: usize) -> Vec<u64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            (acc * u64::MAX as f64) as u64
        })
        .collect()
}

/// The endless request stream of one client.  A closed loop consumes as
/// much of it as the daemon's speed allows; the prefix of any length is
/// the same for the same `(seed, client)`.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    cdf: std::sync::Arc<Vec<u64>>,
    client: usize,
    next: u64,
}

impl Schedule {
    /// The stream for `client` under `seed`, over a corpus whose Zipf
    /// table is `cdf`.
    pub fn new(seed: u64, client: usize, cdf: std::sync::Arc<Vec<u64>>) -> Self {
        Schedule {
            rng: Rng::new(seed, 0x5eed_0000 + client as u64),
            cdf,
            client,
            next: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Scheduled;

    fn next(&mut self) -> Option<Scheduled> {
        let r = self.rng.next_u64();
        let rank = self.cdf.partition_point(|&c| c < r).min(self.cdf.len() - 1);
        let kind = match self.rng.next_u64() % 100 {
            0..=4 => Kind::Run,
            5..=9 => Kind::PlanCertified,
            _ => Kind::Plan,
        };
        let id = self.client as i128 * 1_000_000_000 + i128::from(self.next);
        self.next += 1;
        Some(Scheduled { id, rank, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_cycles_families_and_processor_counts() {
        let c = corpus(3, 36, &COMPILE_SHAPE);
        for (k, spec) in c.iter().enumerate() {
            assert_eq!(spec.family, FAMILIES[k % 6]);
            assert_eq!(spec.processors, [4, 16, 64][(k / 6) % 3]);
        }
        let distinct: HashSet<&str> = c.iter().map(|s| s.source.as_str()).collect();
        assert_eq!(distinct.len(), 36);
    }

    #[test]
    fn zipf_head_is_heavy_and_table_is_monotone() {
        let cdf = zipf_cdf(2048);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        // Rank 1 carries 1/H(2048) ≈ 12.2 % of the mass.
        let head = cdf[0] as f64 / u64::MAX as f64;
        assert!((head - 0.1221).abs() < 0.001, "head mass {head}");
    }

    #[test]
    fn schedule_mix_is_ninety_five_five() {
        let cdf = std::sync::Arc::new(zipf_cdf(256));
        let reqs: Vec<Scheduled> = Schedule::new(9, 0, cdf).take(20_000).collect();
        let share = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64 / 20_000.0;
        assert!((share(Kind::Run) - 0.05).abs() < 0.01);
        assert!((share(Kind::PlanCertified) - 0.05).abs() < 0.01);
        assert!(reqs.iter().all(|r| r.rank < 256));
        assert_eq!(reqs[7].id, 7);
    }
}
