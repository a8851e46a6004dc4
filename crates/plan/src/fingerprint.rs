//! Stable structural fingerprints of loop nests.
//!
//! The fingerprint is the cache key and the integrity check of a saved
//! [`PartitionPlan`](crate::PartitionPlan), so it must be (a) identical
//! for structurally identical nests — in particular invariant under
//! renaming the loop indices — and (b) stable across processes,
//! platforms, and Rust versions (which rules out `DefaultHasher`).
//!
//! We canonicalize the nest by renaming every parallel index to its
//! position (`i0`, `i1`, …) and every outer sequential index to `s0`,
//! `s1`, …, then hash the canonical DSL rendering with FNV-1a (64-bit).
//! Subscripts are stored as coefficient vectors in the IR, so index
//! names appear nowhere except the loop headers — renaming the headers
//! is a complete canonicalization.

use alp_loopir::{write_int, IndexName, LoopNest};
use std::fmt;

/// A running 64-bit FNV-1a hash, fed in pieces; as a [`fmt::Write`] it
/// is a sink the nest renders into.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.finish()
}

/// Index `k` named by its position: `i0`, `s1`.
struct Positional(char, usize);

impl IndexName for Positional {
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let &Positional(prefix, k) = self;
        out.write_char(prefix)?;
        write_int(out, k as i128)
    }
}

/// The nest's DSL rendering with positional index names, into `out`.
fn render_canonical(nest: &LoopNest, out: &mut impl fmt::Write) {
    let positional = |prefix| (0..).map(move |k| Positional(prefix, k));
    nest.render(out, positional('s'), positional('i'))
        .expect("neither a String nor a hash refuses a write");
}

/// The canonical textual form the fingerprint hashes: the nest's DSL
/// rendering with positional index names.
pub fn canonical_source(nest: &LoopNest) -> String {
    let mut text = String::new();
    render_canonical(nest, &mut text);
    text
}

/// Structural fingerprint of a nest (see the module docs): the hash of
/// [`canonical_source`], rendered straight into the hash.
pub fn fingerprint(nest: &LoopNest) -> u64 {
    let mut hash = Fnv1a::new();
    render_canonical(nest, &mut hash);
    hash.finish()
}

/// [`fingerprint`] rendered as the 16-digit lowercase hex string used in
/// plan files.
pub fn fingerprint_hex(nest: &LoopNest) -> String {
    let hash = fingerprint(nest);
    let digits = (0..16)
        .rev()
        .map(|k| b"0123456789abcdef"[(hash >> (4 * k)) as usize & 0xf])
        .collect();
    String::from_utf8(digits).expect("hex digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    #[test]
    fn invariant_under_index_renaming() {
        let a = parse("doall (i, 1, 8) { doall (j, 1, 8) { A[i,j] = B[i+1,j]; } }").unwrap();
        let b = parse("doall (x, 1, 8) { doall (y, 1, 8) { A[x,y] = B[x+1,y]; } }").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint_hex(&a), fingerprint_hex(&b));
    }

    #[test]
    fn sensitive_to_bounds_refs_and_kind() {
        let base = parse("doall (i, 1, 8) { A[i] = B[i]; }").unwrap();
        for other in [
            "doall (i, 1, 9) { A[i] = B[i]; }",
            "doall (i, 1, 8) { A[i] = B[i+1]; }",
            "doall (i, 1, 8) { A[i] = C[i]; }",
            "doall (i, 1, 8) { l$A[i] = l$A[i] + B[i]; }",
            "doseq (t, 0, 1) { doall (i, 1, 8) { A[i] = B[i]; } }",
        ] {
            let nest = parse(other).unwrap();
            assert_ne!(fingerprint(&base), fingerprint(&nest), "{other}");
        }
    }

    #[test]
    fn seq_indices_canonicalized_too() {
        let a = parse("doseq (t, 0, 3) { doall (i, 0, 7) { l$A[0] = l$A[0] + B[i]; } }").unwrap();
        let b = parse("doseq (q, 0, 3) { doall (k, 0, 7) { l$A[0] = l$A[0] + B[k]; } }").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn positional_names_spell_every_digit() {
        for k in [0, 7, 9, 10, 11, 99, 100, 12_345, usize::MAX] {
            let mut name = String::new();
            Positional('i', k).write_to(&mut name).unwrap();
            assert_eq!(name, format!("i{k}"));
        }
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
