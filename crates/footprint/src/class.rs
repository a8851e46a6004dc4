//! Uniformly intersecting reference classes (Defs. 4–6, Appendix B).

use alp_lattice::Lattice;
use alp_linalg::{IMat, IVec};
use alp_loopir::{AccessKind, ArrayRef, LoopNest};

/// A class of uniformly intersecting references: same array, same `G`,
/// offsets mutually reachable through the image lattice of `G`.
///
/// Footprints of the members are translations of one another (Prop. 1),
/// so the class's cumulative footprint is characterized by `G` plus the
/// spread of the offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefClass {
    /// Array name.
    pub array: String,
    /// The common reference matrix (`l×d`).
    pub g: IMat,
    /// Offset vector of each member reference.
    pub offsets: Vec<IVec>,
    /// Access kind of each member (parallel to `offsets`).
    pub kinds: Vec<AccessKind>,
}

impl RefClass {
    /// Number of member references.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the class has no members (never produced by
    /// [`classify`]).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The spread `â` of this class (Def. 8).
    pub fn spread(&self) -> IVec {
        spread(&self.offsets)
    }

    /// The cumulative spread `a⁺` (footnote 2; data-partitioning variant).
    pub fn cumulative_spread(&self) -> IVec {
        cumulative_spread(&self.offsets)
    }
}

/// Are two references **uniformly generated** (Def. 5)?  Same array and
/// identical `G`.
pub fn uniformly_generated(a: &ArrayRef, b: &ArrayRef) -> bool {
    a.array == b.array && a.g_matrix() == b.g_matrix()
}

/// Are two references **intersecting** (Def. 4)?  There must be integer
/// iteration points `ī₁`, `ī₂` with `ḡ₁(ī₁) = ḡ₂(ī₂)`.
///
/// Writing the condition as `ī₁·G₁ − ī₂·G₂ = ā₂ − ā₁`, it holds iff
/// `ā₂ − ā₁` lies in the lattice generated by the rows of `G₁` stacked
/// over `−G₂`.
pub fn intersecting(a: &ArrayRef, b: &ArrayRef) -> bool {
    if a.array != b.array || a.dim() != b.dim() {
        return false;
    }
    let g1 = a.g_matrix();
    let g2 = b.g_matrix();
    let mut rows: Vec<IVec> = g1.row_vecs();
    rows.extend(g2.scale(-1).row_vecs());
    let stacked = IMat::from_row_vecs(&rows);
    let diff = b.offset().sub(a.offset()).expect("dim checked");
    Lattice::new(stacked).contains(&diff)
}

/// Are two references **uniformly intersecting** (Def. 6)?
pub fn uniformly_intersecting(a: &ArrayRef, b: &ArrayRef) -> bool {
    uniformly_generated(a, b) && intersecting(a, b)
}

/// The spread `â` of a set of offsets (Def. 8):
/// `â_k = max_r a_{r,k} − min_r a_{r,k}`.
///
/// # Panics
/// Panics on an empty set.
pub fn spread(offsets: &[IVec]) -> IVec {
    assert!(!offsets.is_empty(), "spread of empty set");
    let d = offsets[0].len();
    IVec(
        (0..d)
            .map(|k| {
                let mx = offsets.iter().map(|a| a[k]).max().expect("nonempty");
                let mn = offsets.iter().map(|a| a[k]).min().expect("nonempty");
                mx - mn
            })
            .collect(),
    )
}

/// The cumulative spread `a⁺` (footnote 2):
/// `a⁺_k = Σ_r |a_{r,k} − med_r(a_{r,k})|`.
///
/// Used in place of `â` for data partitioning, where remote data is not
/// cached locally and every reference's displacement from the class
/// median costs traffic each time.
///
/// # Panics
/// Panics on an empty set.
pub fn cumulative_spread(offsets: &[IVec]) -> IVec {
    assert!(!offsets.is_empty(), "cumulative spread of empty set");
    let d = offsets[0].len();
    IVec(
        (0..d)
            .map(|k| {
                let mut col: Vec<i128> = offsets.iter().map(|a| a[k]).collect();
                col.sort_unstable();
                let med = col[col.len() / 2];
                col.iter().map(|&x| (x - med).abs()).sum()
            })
            .collect(),
    )
}

/// Partition all references of a loop nest into uniformly intersecting
/// classes (the paper's §3.3 preprocessing).
///
/// Within a uniformly generated set, "intersecting" is an equivalence
/// relation (offset differences live in a lattice, which is closed under
/// addition), so the classes are well defined.
pub fn classify(nest: &LoopNest) -> Vec<RefClass> {
    let mut classes: Vec<(RefClass, ArrayRef)> = Vec::new();
    for r in nest.all_refs() {
        let mut placed = false;
        for (class, witness) in classes.iter_mut() {
            if uniformly_intersecting(witness, r) {
                class.offsets.push(r.offset().clone());
                class.kinds.push(r.kind);
                placed = true;
                break;
            }
        }
        if !placed {
            classes.push((
                RefClass {
                    array: r.array.clone(),
                    g: r.g_matrix().clone(),
                    offsets: vec![r.offset().clone()],
                    kinds: vec![r.kind],
                },
                r.clone(),
            ));
        }
    }
    classes.into_iter().map(|(c, _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn refs_of(src: &str) -> Vec<ArrayRef> {
        parse(src)
            .unwrap()
            .all_refs()
            .into_iter()
            .cloned()
            .collect()
    }

    #[test]
    fn appendix_b_intersecting_sets() {
        // Set 1: A[i,j], A[i+1,j-3], A[i,j+4].
        let rs = refs_of(
            "doall (i, 0, 9) { doall (j, 0, 9) {
               A[i,j] = A[i+1,j-3] + A[i,j+4];
             } }",
        );
        assert!(uniformly_intersecting(&rs[0], &rs[1]));
        assert!(uniformly_intersecting(&rs[0], &rs[2]));
        assert!(uniformly_intersecting(&rs[1], &rs[2]));
    }

    #[test]
    fn appendix_b_non_intersecting_pairs() {
        // A[i,j] vs A[2i,j] — not uniformly generated.
        let rs = refs_of("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = A[2*i,j]; } }");
        assert!(!uniformly_generated(&rs[0], &rs[1]));
        assert!(!uniformly_intersecting(&rs[0], &rs[1]));
        // But they ARE intersecting (i1 = 2*i2 has solutions).
        assert!(intersecting(&rs[0], &rs[1]));

        // A[2i] vs A[2i+1] — uniformly generated, never intersecting.
        let rs = refs_of("doall (i, 0, 9) { A[2*i] = A[2*i+1]; }");
        assert!(uniformly_generated(&rs[0], &rs[1]));
        assert!(!intersecting(&rs[0], &rs[1]));
        assert!(!uniformly_intersecting(&rs[0], &rs[1]));

        // A[i,j] vs B[i,j] — different arrays.
        let rs = refs_of("doall (i, 0, 9) { doall (j, 0, 9) { A[i,j] = B[i,j]; } }");
        assert!(!uniformly_intersecting(&rs[0], &rs[1]));

        // A[i+2,2i+4] vs A[i+3,2i+8]: uniformly generated
        // (G columns (1,2)), offset diff (1,4) not in lattice{(1,2)}.
        let rs = refs_of("doall (i, 0, 9) { A[i+2,2*i+4] = A[i+3,2*i+8]; }");
        assert!(uniformly_generated(&rs[0], &rs[1]));
        assert!(!uniformly_intersecting(&rs[0], &rs[1]));

        // A[j,2,4] vs A[j,3,4]: constant subscripts differ.
        let rs = refs_of("doall (j, 0, 9) { A[j,2,4] = A[j,3,4]; }");
        assert!(uniformly_generated(&rs[0], &rs[1]));
        assert!(!uniformly_intersecting(&rs[0], &rs[1]));
    }

    #[test]
    fn spread_def8() {
        // Example 8's B offsets: (-1,0,1), (0,1,0), (1,-2,-3) -> â = (2,3,4).
        let offsets = vec![
            IVec::new(&[-1, 0, 1]),
            IVec::new(&[0, 1, 0]),
            IVec::new(&[1, -2, -3]),
        ];
        assert_eq!(spread(&offsets), IVec::new(&[2, 3, 4]));
    }

    #[test]
    fn spread_single_ref_is_zero() {
        assert_eq!(spread(&[IVec::new(&[5, -3])]), IVec::new(&[0, 0]));
    }

    #[test]
    fn cumulative_spread_footnote2() {
        // Offsets -2, 0, 2 in one dim: median 0, a+ = 2 + 0 + 2 = 4;
        // â would be 4 as well here. Distinguishing case: -1, 0, 5:
        // â = 6, a+ = 1 + 0 + 5 = 6; try 0, 0, 3: â = 3, a+ = 3.
        // A case where they differ: 0, 1, 2, 3 -> median col[2] = 2,
        // a+ = 2+1+0+1 = 4, â = 3.
        let offs: Vec<IVec> = [0i128, 1, 2, 3].iter().map(|&x| IVec::new(&[x])).collect();
        assert_eq!(spread(&offs), IVec::new(&[3]));
        assert_eq!(cumulative_spread(&offs), IVec::new(&[4]));
    }

    #[test]
    fn classify_example9() {
        // Example 9: three classes (A, B, C).
        let nest = parse(
            "doall (i, 1, 100) { doall (j, 1, 100) {
               A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3];
             } }",
        )
        .unwrap();
        let classes = classify(&nest);
        assert_eq!(classes.len(), 3);
        let by_array = |name: &str| classes.iter().find(|c| c.array == name).unwrap();
        assert_eq!(by_array("A").len(), 1);
        assert_eq!(by_array("B").len(), 2);
        assert_eq!(by_array("B").spread(), IVec::new(&[2, 1]));
        assert_eq!(by_array("C").len(), 2);
        assert_eq!(by_array("C").spread(), IVec::new(&[1, 3]));
    }

    #[test]
    fn classify_example10_splits_c() {
        // Example 10: C(i,2i,i+2j-1) and C(i,2i,i+2j+1) intersect;
        // C(i+1,2i+2,i+2j+1) is uniformly generated with them but does NOT
        // intersect either -> separate class.
        let nest = parse(
            "doall (i, 1, 100) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
             } }",
        )
        .unwrap();
        let classes = classify(&nest);
        // A(1), B(2), C-pair(2), C-lone(1) -> 4 classes.
        assert_eq!(classes.len(), 4);
        let c_classes: Vec<_> = classes.iter().filter(|c| c.array == "C").collect();
        assert_eq!(c_classes.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = c_classes.iter().map(|c| c.len()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![1, 2]);
        let b = classes.iter().find(|c| c.array == "B").unwrap();
        assert_eq!(b.spread(), IVec::new(&[4, 2]));
    }

    #[test]
    fn classify_tracks_kinds() {
        let nest = parse("doall (i, 0, 9) { A[i] = A[i+1]; }").unwrap();
        let classes = classify(&nest);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].kinds, vec![AccessKind::Write, AccessKind::Read]);
    }

    #[test]
    fn intersecting_transposed_indices() {
        // Def. 4's example: A(i+c1, j+c2) and A(j+c3, i+c4) are intersecting.
        let rs = refs_of("doall (i, 0, 9) { doall (j, 0, 9) { A[i+1,j+2] = A[j+3,i+4]; } }");
        assert!(intersecting(&rs[0], &rs[1]));
        assert!(!uniformly_generated(&rs[0], &rs[1]));
    }
}
