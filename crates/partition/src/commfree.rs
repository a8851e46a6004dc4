//! Communication-free partitions (Ramanujam & Sadayappan \[7\], recovered
//! by the footprint framework — §5, Examples 2 & 10).
//!
//! A hyperplane family `h·ī = const` yields a communication-free loop
//! partition when every pair of uniformly intersecting references has its
//! footprint overlap *internalized*: the iteration-space translation `t̄`
//! that maps one reference's accesses onto the other's (`t̄·G = ā₂ − ā₁`)
//! must be parallel to the tile slabs, i.e. `h·t̄ = 0`.  Collecting the
//! translation vectors of every class and taking the integer nullspace
//! gives all valid normals; an empty nullspace means no communication-free
//! partition exists, and the optimizer of [`crate::rect`] /
//! [`crate::para`] takes over (the case \[7\] does not handle).

use alp_footprint::classify;
use alp_linalg::{integer_nullspace, solve_rational, IMat, IVec};
use alp_loopir::LoopNest;

/// Iteration-space translation vectors for every offset pair of every
/// class (rational in general; scaled to integer vectors).
fn translation_vectors(nest: &LoopNest) -> Vec<IVec> {
    let mut out = Vec::new();
    for class in classify(nest) {
        if class.len() < 2 {
            continue;
        }
        let base = &class.offsets[0];
        for a in &class.offsets[1..] {
            let diff = a.sub(base).expect("dim");
            if diff.is_zero() {
                continue;
            }
            // Solve t·G = diff over the rationals, then clear
            // denominators: only the direction of t matters for h·t = 0.
            if let Some(t) = solve_rational(&class.g, &diff) {
                let lcm = t.iter().fold(1i128, |acc, r| alp_linalg::lcm(acc, r.den()));
                let ivec = IVec(t.iter().map(|r| r.num() * (lcm / r.den())).collect());
                if !ivec.is_zero() {
                    out.push(ivec.primitive());
                }
            }
            // No rational solution means the two references never overlap
            // in the direction of any iteration translation — they only
            // intersect through lattice coincidences that classify()
            // already ruled in; conservatively they impose no constraint.
        }
    }
    out
}

/// All independent hyperplane normals `h` that give a communication-free
/// partition of the nest (empty if none exists).
///
/// Each returned vector is a primitive integer normal; tiling the
/// iteration space into slabs `γ ≤ h·ī < γ + λ` (or intersecting several
/// returned normals) internalizes every footprint overlap.
pub fn communication_free_normals(nest: &LoopNest) -> Vec<IVec> {
    let ts = translation_vectors(nest);
    if ts.is_empty() {
        // No cross-reference reuse at all: every hyperplane is
        // communication-free; return the coordinate normals.
        return (0..nest.depth())
            .map(|k| {
                let mut v = vec![0; nest.depth()];
                v[k] = 1;
                IVec(v)
            })
            .collect();
    }
    // h must satisfy h·t = 0 for all t: left-nullspace of the matrix with
    // the t's as columns, i.e. x·Tᵗ = 0.
    let t_mat = IMat::from_row_vecs(&ts).transpose();
    integer_nullspace(&t_mat)
        .into_iter()
        .map(|h| h.primitive())
        .collect()
}

/// Does a communication-free (non-trivial) partition exist?
pub fn is_communication_free(nest: &LoopNest) -> bool {
    !communication_free_normals(nest).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_footprint::CostModel;
    use alp_linalg::Rat;
    use alp_loopir::parse;

    /// Check a claimed normal: slab tiles orthogonal to `h` must have
    /// shape-independent traffic, i.e. the model traffic of a slab tile along
    /// `h` is zero.
    fn normal_internalizes_all_overlap(nest: &LoopNest, h: &IVec) -> bool {
        let ts = translation_vectors(nest);
        ts.iter().all(|t| t.dot(h).expect("depth") == 0)
    }

    /// Model coherence traffic of the slab partition along `h` for `p`
    /// processors (0 for a true communication-free normal).  Returns `None`
    /// when `h` is not axis-aligned and the rectangular model cannot express
    /// the slab (callers then verify by simulation instead).
    fn slab_traffic_rect(nest: &LoopNest, h: &IVec, p: i128) -> Option<Rat> {
        let k = (0..h.len()).find(|&k| h[k] != 0)?;
        if h.0.iter().enumerate().any(|(i, &x)| i != k && x != 0) {
            return None; // not axis-aligned
        }
        let model = CostModel::from_nest(nest);
        let mut lambda: Vec<i128> = nest.loops.iter().map(|l| l.trip_count() - 1).collect();
        let n = nest.loops[k].trip_count();
        lambda[k] = (n + p - 1) / p - 1;
        Some(model.coherence_traffic_rect(&lambda))
    }

    #[test]
    fn example2_strips_along_i() {
        // Example 2: translation t = (4, 0) -> normals orthogonal to i,
        // i.e. h = (0, 1): slabs of constant j, full i extent.
        let nest = parse(
            "doall (i, 101, 200) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap();
        let normals = communication_free_normals(&nest);
        assert_eq!(normals, vec![IVec::new(&[0, 1])]);
        assert!(is_communication_free(&nest));
        assert!(normal_internalizes_all_overlap(&nest, &normals[0]));
        // The slab partition along h has zero model traffic.
        assert_eq!(slab_traffic_rect(&nest, &normals[0], 100), Some(Rat::ZERO));
    }

    #[test]
    fn full_rank_stencil_has_no_comm_free_partition() {
        // A stencil whose offset translations span all of Z^3: no nonzero
        // normal annihilates them all.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i,j,k] + B[i+1,j,k] + B[i,j+1,k] + B[i,j,k+1];
             } } }",
        )
        .unwrap();
        assert!(!is_communication_free(&nest));
    }

    #[test]
    fn example8_is_comm_free_with_skewed_slabs() {
        // A result the paper's rectangular treatment of Example 8 leaves
        // on the table: the two translation vectors (1,1,-1) and
        // (2,-2,-4) only span a 2-D subspace, so the skewed normal
        // h = (3,-1,2) internalizes all reuse (see EXPERIMENTS.md, E6).
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        )
        .unwrap();
        let normals = communication_free_normals(&nest);
        assert_eq!(normals.len(), 1);
        let h = &normals[0];
        assert_eq!(h.dot(&IVec::new(&[1, 1, -1])).unwrap(), 0);
        assert_eq!(h.dot(&IVec::new(&[1, -1, -2])).unwrap(), 0);
    }

    #[test]
    fn example3_diagonal_normal() {
        // Example 3: B[i,j] and B[i+1,j+3]: t = (1,3); normals h with
        // h·(1,3) = 0: h = (3,-1) — the parallelogram direction.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i,j] + B[i+1,j+3];
             } }",
        )
        .unwrap();
        let normals = communication_free_normals(&nest);
        assert_eq!(normals.len(), 1);
        let h = &normals[0];
        assert_eq!(h.dot(&IVec::new(&[1, 3])).unwrap(), 0);
        assert!(normal_internalizes_all_overlap(&nest, h));
    }

    #[test]
    fn no_reuse_means_all_normals() {
        let nest = parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = B[j,i]; } }").unwrap();
        let normals = communication_free_normals(&nest);
        assert_eq!(normals.len(), 2);
    }

    #[test]
    fn example10_not_comm_free() {
        // Example 10 is the paper's showcase of a case [7] cannot handle:
        // B's translation (solve t·G = (4,2) with G=[[1,1],[1,-1]]) is
        // t = (3,1); C pair gives t·G' = (0,0,2) -> t = (?, 1)... the two
        // directions differ, so no common normal.
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
             } }",
        )
        .unwrap();
        assert!(!is_communication_free(&nest));
    }

    #[test]
    fn two_compatible_classes_share_a_normal() {
        // A[i,j]/A[i+1,j+1] and B[i,j]/B[i+2,j+2]: translations (1,1) and
        // (2,2) are parallel -> normal (1,-1) internalizes both.
        let nest = parse(
            "doall (i, 0, 31) { doall (j, 0, 31) {
               A[i,j] = A[i+1,j+1] + B[i,j] + B[i+2,j+2];
             } }",
        )
        .unwrap();
        let normals = communication_free_normals(&nest);
        assert_eq!(normals.len(), 1);
        assert_eq!(normals[0].dot(&IVec::new(&[1, 1])).unwrap(), 0);
    }
}
