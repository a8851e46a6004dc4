//! The seeded mutators the decoder harnesses share: bit flips, byte
//! inserts and deletes, splices of two inputs, and integer literals
//! inflated to the `i64`, `u64` and `i128` edges.  No dependency: a
//! seed alone fixes a mutant, so a failure names its seed.

/// Literals an integer is inflated to: `i64::MAX`, `u64::MAX` and
/// `i128::MAX` and one past each, `2¹²⁸`, and zero.
pub const EDGES: &[&str] = &[
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728",
    "340282366920938463463374607431768211456",
    "0",
];

/// splitmix64: a seeded stream with no dependency.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutation of `bytes`, an insert drawing from `inserts`; `other`
/// is the second input of a splice.
pub fn mutate(bytes: &mut Vec<u8>, other: &[u8], inserts: &[u8], rng: &mut Rng) {
    let at = |rng: &mut Rng, len: usize| rng.below(len + 1);
    match rng.below(5) {
        0 if !bytes.is_empty() => {
            let k = rng.below(bytes.len());
            bytes[k] ^= 1 << rng.below(8);
        }
        1 => {
            let k = at(rng, bytes.len());
            bytes.insert(k, inserts[rng.below(inserts.len())]);
        }
        2 if !bytes.is_empty() => {
            let k = rng.below(bytes.len());
            let n = (1 + rng.below(4)).min(bytes.len() - k);
            bytes.drain(k..k + n);
        }
        3 => {
            let (k, j) = (at(rng, bytes.len()), at(rng, other.len()));
            bytes.truncate(k);
            bytes.extend_from_slice(&other[j..]);
        }
        _ => {
            // The k-th run of digits, if there is one, becomes an edge.
            let runs: Vec<(usize, usize)> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .map(|i| {
                    let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                    (i, i + len)
                })
                .collect();
            if !runs.is_empty() {
                let (i, end) = runs[rng.below(runs.len())];
                let edge = EDGES[rng.below(EDGES.len())];
                bytes.splice(i..end, edge.bytes());
            }
        }
    }
}

/// The mutant of seed `seed`: one to three mutations of one input.
pub fn mutant(seed: u64, inputs: &[&str], inserts: &[u8]) -> String {
    let inputs: Vec<&[u8]> = inputs.iter().map(|s| s.as_bytes()).collect();
    String::from_utf8_lossy(&mutant_bytes(seed, &inputs, inserts)).into_owned()
}

/// [`mutant`] over inputs that need not be text, such as journal
/// segments.
pub fn mutant_bytes(seed: u64, inputs: &[&[u8]], inserts: &[u8]) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut bytes = inputs[rng.below(inputs.len())].to_vec();
    for _ in 0..1 + rng.below(3) {
        let other = inputs[rng.below(inputs.len())];
        mutate(&mut bytes, other, inserts, &mut rng);
    }
    bytes
}

/// The seeds the environment variable `var` names as `lo..hi`, or
/// `0..default` without it.
pub fn seeds(var: &str, default: u64) -> std::ops::Range<u64> {
    let Ok(range) = std::env::var(var) else {
        return 0..default;
    };
    let (lo, hi) = range
        .split_once("..")
        .unwrap_or_else(|| panic!("{var} is lo..hi"));
    lo.parse().expect("lo")..hi.parse().expect("hi")
}
