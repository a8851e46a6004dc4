//! Static certification of [`PartitionPlan`]s.
//!
//! A [`Certificate`] records four facts about a plan, each proven here
//! by exact integer reasoning (no floats, no sampling):
//!
//! 1. **Exact coverage** — the plan's tiles (its
//!    [`Tiling`]) partition the iteration space with
//!    no gap and no overlap.  Pairwise disjointness of the tile boxes
//!    and, where the boxes are exact, per-tile containment in the loop
//!    bounds are Fourier–Motzkin feasibility questions over the
//!    tile/bound inequalities (the exact integer search of
//!    [`alp_analysis::search`]); exactness then follows from
//!    an integer point count (disjoint + contained + counts summing to
//!    the space's volume ⇒ partition).
//! 2. **Cross-tile write disjointness** — per array, the write
//!    footprints of distinct tiles are disjoint.  This is the PR-1
//!    Diophantine dependence machinery applied pairwise to *symbolic
//!    tile boxes*: the stacked system `x·M = b` over `x = (ī₁ | ī₂)`
//!    with each half constrained to its own tile box instead of the
//!    whole loop-bound box, and no `ī₁ ≠ ī₂` disequality (iterations
//!    in distinct tiles are distinct once coverage holds).
//! 3. **In-bounds accesses** — every affine reference stays inside its
//!    array's extents for every iteration: the exact range of each
//!    subscript over the loop-bound box lies within the extent.
//! 4. **Generalized idempotence** — a dataflow replacement for the
//!    executor's syntactic retry rule: the nest is re-runnable iff no
//!    read of any statement can touch a location any statement writes
//!    (element-precise, via the same Diophantine solve over the full
//!    iteration box, *including* the equal-iteration case: within one
//!    iteration reads happen before writes, so a re-run of `A[i] =
//!    A[i] + A[i]` would observe its own output).
//!
//! [`certify`] computes a certificate (plus human-readable witness
//! notes for every refuted fact); [`recheck`] validates a certificate
//! embedded in a plan against a fresh recomputation, rejecting stale
//! fingerprints and flipped verdict bits — the tamper-evidence the
//! executor's relaxed-store fast path and certified retry rely on.
//!
//! # Two procedures, one set of verdicts
//!
//! The four bits are computed by two procedures that must agree.
//!
//! * The **pairwise prover** (`prove_*`) is the description above: one
//!   feasibility question per unordered pair of tiles, `O(T²)` of them,
//!   each ending in a witness when it is refuted.  [`certify`] runs it:
//!   a certificate is issued once, and only the prover can say *which*
//!   tiles, iterations and elements refute a fact.
//! * The **structural decider** (`decide_*`) reads the same verdicts off
//!   the grid's `Σ g_k` cut points and keeps no witness.  Coverage: the
//!   tiles are a product of per-dimension interval partitions, checked
//!   in `O(Σ g_k + T·l)` integer comparisons.  Write-disjointness: two
//!   points of the gridded box lie in different tiles iff some cut
//!   `lo_k + m·c_k` separates them, so one integer search per ordered
//!   pair of write references and split dimension — over the solution
//!   lattice of `w₁(x) = w₂(y)` and the cut index `m` — replaces one per
//!   pair of tiles.  [`recheck`] runs it: a certificate is re-checked at
//!   every execution, and the tamper check must not cost what the proof
//!   cost.
//!
//! In-bounds (interval arithmetic on the loop-bound box) and idempotence
//! never depended on the tiles, so both procedures share them.
//!
//! [`certify`] has not switched to the decider, and there is no option
//! to make it: the prover is the only producer of counterexample notes,
//! and the benchmark's `compile-cold` window stores one sample per
//! completed operation, so a faster `certify` reads as a memory
//! regression until that window is bounded (ROADMAP, "Certification in
//! time linear in tiles").  Until then `tests/certify_props.rs` holds
//! the two to the same verdicts on random plans.  Every integer question
//! either side asks ends in a point or a proof of emptiness, so the two
//! agree by construction wherever their questions are equivalent.

#![warn(missing_docs)]

use alp_analysis::search::integer_point;
use alp_analysis::ConflictLattice;
use alp_linalg::fm::System;
use alp_linalg::{walk_box, IVec, Rat};
use alp_loopir::{ArrayRef, LoopNest};
use alp_plan::{Certificate, IterBox, PartitionPlan, PlanError, Tiling};

/// Why a plan could not be certified, or why an embedded certificate
/// was rejected on re-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The plan carries no certificate but one was required
    /// (`run --require-cert`, [`recheck`]).
    Missing,
    /// The certificate's fingerprint does not match the plan's: it was
    /// computed for a different nest (or tampered with).
    Stale {
        /// Fingerprint the plan records.
        expected: String,
        /// Fingerprint the certificate records.
        found: String,
    },
    /// A recorded verdict disagrees with recomputation — the
    /// certificate was edited after it was issued.
    Mismatch {
        /// Which fact disagrees (`coverage`, `write_disjoint`,
        /// `in_bounds`, or `idempotent`).
        fact: &'static str,
        /// What the embedded certificate claims.
        claimed: bool,
        /// What recomputation proves.
        proven: bool,
    },
    /// The plan itself could not be interpreted (embedded source,
    /// fingerprint, or grid problems).
    Plan(PlanError),
}

impl CertifyError {
    /// The stable `ALP00xx` diagnostic code: the plan's own code for a
    /// plan that cannot be interpreted, `ALP0011` for a missing, stale
    /// or tampered certificate.
    pub fn code(&self) -> &'static str {
        match self {
            CertifyError::Plan(e) => e.code(),
            _ => "ALP0011",
        }
    }
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Missing => {
                write!(f, "plan carries no certificate (run `alp-cli certify`)")
            }
            CertifyError::Stale { expected, found } => write!(
                f,
                "certificate is stale: plan fingerprint {expected} but certificate \
                 was issued for {found}"
            ),
            CertifyError::Mismatch {
                fact,
                claimed,
                proven,
            } => write!(
                f,
                "certificate tampered: `{fact}` claims {claimed} but recomputation \
                 proves {proven}"
            ),
            CertifyError::Plan(e) => write!(f, "cannot certify plan: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CertifyError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for CertifyError {
    fn from(e: PlanError) -> Self {
        CertifyError::Plan(e)
    }
}

/// A computed certificate plus a deterministic witness note for every
/// refuted fact (empty when all four facts are proven).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyReport {
    /// The four verdicts, bound to the plan's fingerprint.
    pub certificate: Certificate,
    /// One human-readable line per refuted fact, with a concrete
    /// counterexample (tile indices, iterations, array elements).
    pub notes: Vec<String>,
}

impl CertifyReport {
    /// True when every fact needed for the relaxed-store fast path is
    /// proven (coverage and cross-tile write disjointness).
    pub fn unlocks_fastpath(&self) -> bool {
        self.certificate.coverage && self.certificate.write_disjoint
    }
}

/// Compute a certificate for a plan from scratch.
///
/// Never fails on a *refutable* fact — a refuted fact is recorded as
/// `false` with a witness note.  Fails only when the plan itself cannot
/// be interpreted (bad embedded source, fingerprint mismatch, grid that
/// does not fit the nest).
pub fn certify(plan: &PartitionPlan) -> Result<CertifyReport, CertifyError> {
    let nest = plan.nest()?;
    let mut notes = Vec::new();
    // Coverage and write-disjointness are proven in the coordinates the
    // tiles are rectangular in — `j = i·U` for a skewed plan.  In-bounds
    // and idempotence below stay in i-space: the transform is a
    // bijection of the iteration set, so those facts are coordinate-free.
    let tiling = plan.tiling(&nest)?;
    let boxes: Vec<Box128> = tiling.boxes().iter().map(box128).collect();
    let coverage = prove_coverage(&nest, &tiling, &boxes, &mut notes);
    let write_disjoint = match write_refs(&nest, plan) {
        Some(writes) => prove_write_disjoint(&writes, &boxes, &mut notes),
        None => {
            notes.push("write-disjoint: a composed write subscript overflows i128".into());
            false
        }
    };
    let in_bounds = decide_in_bounds(&nest);
    if !in_bounds {
        notes.push("in-bounds: an array extent overflows i128".into());
    }
    let idempotent = prove_idempotent(&nest, &mut notes);
    Ok(CertifyReport {
        certificate: Certificate {
            fingerprint: plan.fingerprint.clone(),
            coverage,
            write_disjoint,
            in_bounds,
            idempotent,
        },
        notes,
    })
}

/// Validate the certificate embedded in a plan: decide all four facts
/// afresh (the structural decider, not the prover — see the module
/// doc) and require exact agreement (a certificate claiming *less* than
/// is decidable is just as tampered as one claiming more).
///
/// **Fails closed:** where the decider and the prover that issued the
/// certificate disagree — tile boxes the decider does not recognise as
/// its grid — the answer is [`CertifyError::Mismatch`] (`ALP0011`),
/// never a silent acceptance.
///
/// Returns the freshly decided certificate on success, so callers gate
/// the fast path on what was *re-decided*, never on the stored bits.
pub fn recheck(plan: &PartitionPlan) -> Result<Certificate, CertifyError> {
    let cert = plan.certificate.as_ref().ok_or(CertifyError::Missing)?;
    if cert.fingerprint != plan.fingerprint {
        return Err(CertifyError::Stale {
            expected: plan.fingerprint.clone(),
            found: cert.fingerprint.clone(),
        });
    }
    let fresh = decide(plan)?;
    for (fact, claimed, proven) in [
        ("coverage", cert.coverage, fresh.coverage),
        ("write_disjoint", cert.write_disjoint, fresh.write_disjoint),
        ("in_bounds", cert.in_bounds, fresh.in_bounds),
        ("idempotent", cert.idempotent, fresh.idempotent),
    ] {
        if claimed != proven {
            return Err(CertifyError::Mismatch {
                fact,
                claimed,
                proven,
            });
        }
    }
    Ok(fresh)
}

/// The four verdict bits by the structural decision procedure: no
/// question per tile pair, no witness notes.
fn decide(plan: &PartitionPlan) -> Result<Certificate, CertifyError> {
    let nest = plan.nest()?;
    let tiling = plan.tiling(&nest)?;
    let boxes: Vec<Box128> = tiling.boxes().iter().map(box128).collect();
    let (grid, chunks) = (&plan.proc_grid, tiling.chunks());
    Ok(Certificate {
        fingerprint: plan.fingerprint.clone(),
        coverage: decide_coverage(&nest, &tiling, grid, chunks, &boxes),
        write_disjoint: write_refs(&nest, plan)
            .is_some_and(|writes| decide_write_disjoint(&writes, tiling.bounds(), grid, chunks)),
        in_bounds: decide_in_bounds(&nest),
        idempotent: prove_idempotent(&nest, &mut Vec::new()),
    })
}

/// The nest's write references in the coordinates the tiles are
/// rectangular in.  Composed with V = U⁻¹ they address the same
/// elements from j-points that the originals address from their
/// pre-images; solving over the *unclipped* j-boxes over-approximates
/// each tile's iterations, which can only refute (never spuriously
/// prove) disjointness.  `None` when a composed coefficient overflows:
/// nothing is proven about such a plan.
fn write_refs(nest: &LoopNest, plan: &PartitionPlan) -> Option<Vec<ArrayRef>> {
    (nest.body.iter())
        .map(|st| {
            let mut w = st.lhs.clone();
            if let Some(t) = &plan.transform {
                for sub in &mut w.subscripts {
                    *sub = sub.composed(t.v())?;
                }
            }
            Some(w)
        })
        .collect()
}

/// An inclusive per-dimension iteration box in exact `i128` arithmetic
/// (tile boxes arrive as `i64` [`IterBox`]es; loop-bound boxes are
/// native `i128`).
type Box128 = Vec<(i128, i128)>;

fn box128(b: &IterBox) -> Box128 {
    b.bounds().collect()
}

fn box_is_empty(b: &Box128) -> bool {
    b.iter().any(|&(l, h)| l > h)
}

/// Fact 1: the tiles partition the iteration space exactly.
///
/// * pairwise disjointness: the conjunction of two tile boxes has no
///   integer point (FM feasibility over the 2·`l` inequalities) —
///   disjoint boxes have disjoint clippings;
/// * containment, for an unclipped tiling: a tile point violating a
///   loop bound is infeasible (a clipped tiling's walk emits in-domain
///   points only: the loop bounds are among the rows it walks, see
///   [`Tiling::loop_rows`](alp_plan::Tiling::loop_rows));
/// * exactness: disjoint + contained tiles whose point counts sum to
///   the space's volume leave no gap (`U` is a bijection, so the count
///   is the same in either space).
fn prove_coverage(
    nest: &LoopNest,
    tiling: &Tiling,
    boxes: &[Box128],
    notes: &mut Vec<String>,
) -> bool {
    let l = nest.depth();
    let mut ok = true;
    for a in 0..boxes.len() {
        if box_is_empty(&boxes[a]) {
            continue;
        }
        for b in (a + 1)..boxes.len() {
            if box_is_empty(&boxes[b]) {
                continue;
            }
            let mut sys = System::new(l);
            constrain_box(&mut sys, &boxes[a], identity_coeffs(l));
            constrain_box(&mut sys, &boxes[b], identity_coeffs(l));
            if let Some(p) = integer_point(&sys) {
                notes.push(format!(
                    "coverage: tiles {a} and {b} both contain iteration {p:?}"
                ));
                ok = false;
            }
        }
    }
    for (t, bx) in boxes.iter().enumerate() {
        if tiling.is_clipped() || box_is_empty(bx) {
            continue;
        }
        for (k, lp) in nest.loops.iter().enumerate() {
            for (bound, side) in [(lp.lower - 1, "below"), (lp.upper + 1, "above")] {
                let mut sys = System::new(l);
                constrain_box(&mut sys, bx, identity_coeffs(l));
                let mut coeffs = vec![Rat::int(0); l];
                coeffs[k] = Rat::int(1);
                if side == "below" {
                    sys.le(coeffs, Rat::int(bound));
                } else {
                    sys.ge(coeffs, Rat::int(bound));
                }
                if let Some(p) = integer_point(&sys) {
                    notes.push(format!(
                        "coverage: tile {t} escapes the `{}` bounds {side} at iteration {p:?}",
                        lp.name
                    ));
                    ok = false;
                }
            }
        }
    }
    let covered = covered_points(tiling, boxes);
    let space = nest.iteration_count().max(0) as u128;
    if covered != space {
        notes.push(format!(
            "coverage: the tiles hold {covered} points but the iteration space has \
             {space} — the tiling leaves a gap"
        ));
        ok = false;
    }
    ok
}

/// Points the tiles hold: box volumes where the boxes are exact, the
/// clipped walk's own counts where they over-approximate.
fn covered_points(tiling: &Tiling, boxes: &[Box128]) -> u128 {
    if tiling.is_clipped() {
        return (0..tiling.len())
            .map(|t| u128::from(tiling.points(t)))
            .sum();
    }
    let volume =
        |b: &Box128| -> u128 { b.iter().map(|&(l, h)| (h - l + 1).max(0) as u128).product() };
    boxes.iter().map(volume).sum()
}

/// Fact 1, decided from the grid's cuts.  Along each dimension with
/// iterations the `g` chunk intervals `[lo + t·c, min(lo + (t+1)·c − 1,
/// hi)]` start at `lo`, follow one another and reach `hi` iff `c ≥ 1`
/// and `g·c ≥ trip`; the tiles are then a product of per-dimension
/// interval partitions — pairwise disjoint, contained, gap-free — iff
/// box `t` (row-major) *is* the product of its coordinates' intervals.
/// The point count stays as the clipped case's exactness step.
fn decide_coverage(
    nest: &LoopNest,
    tiling: &Tiling,
    grid: &[i128],
    chunks: &[i128],
    boxes: &[Box128],
) -> bool {
    let (bounds, l) = (tiling.bounds(), grid.len());
    let cuts_partition = (0..l).all(|k| {
        let trip = bounds[k].1 - bounds[k].0 + 1;
        trip <= 0 || (chunks[k] >= 1 && grid[k] * chunks[k] >= trip)
    });
    if !cuts_partition || boxes.len() as i128 != grid.iter().product::<i128>() {
        return false;
    }
    let mut boxes_in_order = boxes.iter();
    let last: Vec<i128> = grid.iter().map(|g| g - 1).collect();
    // Row-major over the grid (last dim fastest).
    let products = walk_box(&vec![0; l], &last, &mut vec![0; l], |coord| {
        let bx = boxes_in_order.next().expect("one box per grid cell");
        (0..l).all(|k| {
            let lo = bounds[k].0 + coord[k] * chunks[k];
            bx[k] == (lo, (lo + chunks[k] - 1).min(bounds[k].1))
        })
    });
    products && covered_points(tiling, boxes) == nest.iteration_count().max(0) as u128
}

/// Fact 2, decided once per ordered pair of write references instead of
/// once per tile pair.  Two points of the gridded box lie in different
/// tiles iff some cut `lo_k + m·c_k` (`1 ≤ m ≤ g_k − 1`) separates them,
/// so per split dimension one search over the [`ConflictLattice`]'s
/// coefficients and the cut index `m` asks for `x, y ∈ bounds` with
/// `x_k < cut ≤ y_k`; the reverse orientation is the reversed pair's
/// question.  Same coordinates and same over-approximation (unclipped
/// boxes) as [`prove_write_disjoint`].
fn decide_write_disjoint(
    writes: &[ArrayRef],
    bounds: &[(i128, i128)],
    grid: &[i128],
    chunks: &[i128],
) -> bool {
    let l = bounds.len();
    for w1 in writes {
        for w2 in writes.iter().filter(|w2| w2.array == w1.array) {
            let Some(lattice) = ConflictLattice::new(w1, w2, l) else {
                continue;
            };
            // The cut index `m` is the unknown after the lattice's own.
            let m = lattice.rank();
            let mut within = System::new(m + 1);
            for (q, &(lo, hi)) in bounds.iter().chain(bounds).enumerate() {
                lattice.constrain(&mut within, q, lo, hi);
            }
            for k in (0..l).filter(|&k| grid[k] >= 2) {
                // x_k − c_k·m ≤ lo_k − 1, y_k − c_k·m ≥ lo_k, 1 ≤ m ≤ g_k − 1.
                let mut sys = within.clone();
                let mut below = lattice.row(k, m + 1);
                let mut above = lattice.row(l + k, m + 1);
                let mut index = vec![Rat::int(0); m + 1];
                (below[m], above[m], index[m]) =
                    (Rat::int(-chunks[k]), Rat::int(-chunks[k]), Rat::int(1));
                sys.le(below, Rat::int(bounds[k].0 - 1 - lattice.origin(k)));
                sys.ge(above, Rat::int(bounds[k].0 - lattice.origin(l + k)));
                sys.ge(index.clone(), Rat::int(1));
                sys.le(index, Rat::int(grid[k] - 1));
                if integer_point(&sys).is_some() {
                    return false;
                }
            }
        }
    }
    true
}

/// Fact 3, decided by interval arithmetic: the range of an affine
/// subscript over the loop-bound box is exact — and a range or extent
/// beyond `i128` is not in bounds of anything.  The extents are the hull
/// of the nest's own references, so that is the only refutation.
fn decide_in_bounds(nest: &LoopNest) -> bool {
    let Ok(extents) = nest.try_array_extents() else {
        return false;
    };
    let full: Box128 = nest.bounds().collect();
    nest.all_refs().iter().all(|r| {
        extents.get(&r.array).is_none_or(|ext| {
            (r.subscripts.iter().zip(ext)).all(|(sub, &(lo, hi))| {
                (sub.range(full.iter().copied())).is_some_and(|(min, max)| lo <= min && max <= hi)
            })
        })
    })
}

/// Fact 2: per array, the write footprints of distinct tiles are
/// disjoint.  Every ordered pair of write references is tested across
/// every unordered pair of non-empty tiles; a cheap exact interval
/// reject (axis-aligned footprint boxes) filters pairs whose footprints
/// cannot meet, and the Diophantine solve settles the rest.  `writes`
/// and `boxes` must share one coordinate system (original `i`-space for
/// rectangular plans, transformed `j`-space for skewed ones).
fn prove_write_disjoint(writes: &[ArrayRef], boxes: &[Box128], notes: &mut Vec<String>) -> bool {
    for a in 0..boxes.len() {
        if box_is_empty(&boxes[a]) {
            continue;
        }
        for b in (a + 1)..boxes.len() {
            if box_is_empty(&boxes[b]) {
                continue;
            }
            for w1 in writes {
                for w2 in writes {
                    if w1.array != w2.array
                        || footprint_boxes_disjoint(w1, &boxes[a], w2, &boxes[b])
                    {
                        continue;
                    }
                    if let Some(x) = box_conflict(w1, &boxes[a], w2, &boxes[b]) {
                        let (i1, i2) = x.split_at(x.len() / 2);
                        notes.push(format!(
                            "write-disjoint: tiles {a} and {b} both write {}{:?} \
                             (iterations {i1:?} and {i2:?})",
                            w1.array,
                            w1.eval(&IVec(i1.to_vec())).0,
                        ));
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Fact 4: no read can touch a location any statement writes, so
/// re-running any tile (at any repetition) recomputes identical values.
/// Element-precise: `A[i] = A[i+N]` certifies when the bounds keep the
/// read and write regions apart, where the syntactic array-name rule
/// cannot.
fn prove_idempotent(nest: &LoopNest, notes: &mut Vec<String>) -> bool {
    let full: Box128 = nest.bounds().collect();
    let writes: Vec<&ArrayRef> = nest.body.iter().map(|st| &st.lhs).collect();
    for st in &nest.body {
        for r in &st.rhs {
            for w in &writes {
                if r.array != w.array {
                    continue;
                }
                if let Some(x) = box_conflict(r, &full, w, &full) {
                    let (i1, i2) = x.split_at(x.len() / 2);
                    notes.push(format!(
                        "idempotence: iteration {i1:?} reads {}{:?}, which iteration \
                         {i2:?} writes — a re-run could observe partial output",
                        r.array,
                        r.eval(&IVec(i1.to_vec())).0,
                    ));
                    return false;
                }
            }
        }
    }
    true
}

/// The PR-1 stacked Diophantine solve over symbolic boxes: is there
/// `ī₁ ∈ box1`, `ī₂ ∈ box2` with `r1(ī₁) == r2(ī₂)`?  An exact integer
/// search of the [`ConflictLattice`] inside the two boxes; a point is
/// returned as `x = (ī₁ | ī₂)`.  No disequality: equal iterations count
/// as a conflict here (the callers that need distinctness pass disjoint
/// boxes).
fn box_conflict(r1: &ArrayRef, box1: &Box128, r2: &ArrayRef, box2: &Box128) -> Option<Vec<i128>> {
    let l = box1.len();
    debug_assert_eq!(box2.len(), l, "boxes of one nest have equal rank");
    let lattice = ConflictLattice::new(r1, r2, l)?;
    let mut sys = System::new(lattice.rank());
    for (k, &(lo, hi)) in box1.iter().chain(box2).enumerate() {
        lattice.constrain(&mut sys, k, lo, hi);
    }
    integer_point(&sys).map(|c| lattice.point(&c))
}

/// Exact interval image of each subscript over each box; disjoint in
/// some dimension ⇒ the footprints cannot meet (sound fast reject
/// before the Diophantine solve).
fn footprint_boxes_disjoint(r1: &ArrayRef, b1: &Box128, r2: &ArrayRef, b2: &Box128) -> bool {
    if r1.dim() != r2.dim() {
        return true;
    }
    // A range beyond `i128` rejects nothing: the solve settles it.
    (r1.subscripts.iter().zip(&r2.subscripts)).any(|(s1, s2)| {
        let ranges = s1
            .range(b1.iter().copied())
            .zip(s2.range(b2.iter().copied()));
        ranges.is_some_and(|((lo1, hi1), (lo2, hi2))| hi1 < lo2 || hi2 < lo1)
    })
}

/// Coefficient rows selecting each variable in turn (`x_k` alone).
fn identity_coeffs(l: usize) -> Vec<Vec<Rat>> {
    (0..l)
        .map(|k| {
            let mut row = vec![Rat::int(0); l];
            row[k] = Rat::int(1);
            row
        })
        .collect()
}

/// Add `lo_k ≤ selector_k(x) ≤ hi_k` for every dimension of a box.
fn constrain_box(sys: &mut System, b: &Box128, selectors: Vec<Vec<Rat>>) {
    for (k, coeffs) in selectors.into_iter().enumerate() {
        sys.le(coeffs.clone(), Rat::int(b[k].1));
        sys.ge(coeffs, Rat::int(b[k].0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_linalg::IMat;
    use alp_loopir::parse;
    use alp_plan::LegalityVerdict;

    fn plan_for(src: &str, processors: i128) -> PartitionPlan {
        let nest = parse(src).unwrap();
        PartitionPlan::build(&nest, processors, None, LegalityVerdict::Unchecked).unwrap()
    }

    fn plan_with_grid(src: &str, grid: Vec<i128>) -> PartitionPlan {
        let nest = parse(src).unwrap();
        let extents = Tiling::new(&nest, None, &grid).unwrap().extents();
        let partition = alp_partition_stub(grid, extents);
        PartitionPlan::build_with_partition(
            &nest,
            partition.proc_grid.iter().product(),
            None,
            LegalityVerdict::Unchecked,
            partition,
            "test-fixed-grid",
        )
        .unwrap()
    }

    fn alp_partition_stub(
        proc_grid: Vec<i128>,
        tile_extents: Vec<i128>,
    ) -> alp_partition::RectPartition {
        alp_partition::RectPartition {
            tile_extents,
            proc_grid,
            cost: Rat::int(0),
        }
    }

    #[test]
    fn stencil_certifies_all_but_nothing_spurious() {
        // Identity writes, disjoint read array: everything proven.
        let plan = plan_for(
            "doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = B[i,j] + B[i+1,j]; } }",
            4,
        );
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage);
        assert!(report.certificate.write_disjoint);
        assert!(report.certificate.in_bounds);
        assert!(report.certificate.idempotent);
        assert!(report.notes.is_empty(), "{:?}", report.notes);
        assert!(report.unlocks_fastpath());
    }

    #[test]
    fn accumulate_matmul_ij_blocks_are_write_disjoint_but_not_idempotent() {
        let src = "doall (i, 0, 15) { doall (j, 0, 15) { doall (k, 0, 15) {
                     l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
                   } } }";
        let plan = plan_with_grid(src, vec![2, 2, 1]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage);
        // Each (i, j) block owns its C elements: k does not address C.
        assert!(report.certificate.write_disjoint);
        assert!(report.certificate.in_bounds);
        // The accumulate reads its own old value: replay is unsafe.
        assert!(!report.certificate.idempotent);
        assert!(report.unlocks_fastpath());
    }

    #[test]
    fn accumulate_matmul_k_split_is_refuted() {
        let src = "doall (i, 0, 15) { doall (j, 0, 15) { doall (k, 0, 15) {
                     l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
                   } } }";
        let plan = plan_with_grid(src, vec![1, 1, 4]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage);
        // Every k-tile writes every C[i, j]: the Diophantine solve must
        // produce a concrete colliding pair.
        assert!(!report.certificate.write_disjoint);
        assert!(!report.unlocks_fastpath());
        assert!(
            report.notes.iter().any(|n| n.contains("write-disjoint")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn parity_strided_writes_need_the_diophantine_solve() {
        // A[2i] from one tile vs A[2i+1] from another: footprint boxes
        // overlap but the lattices never meet — interval arithmetic
        // alone cannot prove this disjoint.
        let src = "doall (i, 0, 15) { A[2*i] = B[i]; A[2*i+1] = B[i+1]; }";
        let plan = plan_with_grid(src, vec![4]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage, "{:?}", report.notes);
        assert!(report.certificate.write_disjoint, "{:?}", report.notes);
    }

    #[test]
    fn elementwise_self_copy_beyond_bounds_is_idempotent() {
        // A[i] = A[i+32] on i ∈ [0, 15]: reads [32, 47], writes [0, 15].
        // The syntactic rule (array-name granularity) refuses this; the
        // dataflow proof certifies it.
        let plan = plan_for("doall (i, 0, 15) { A[i] = A[i+32]; }", 4);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.idempotent, "{:?}", report.notes);
    }

    #[test]
    fn self_doubling_is_not_idempotent() {
        // A[i] = A[i] + A[i]: the equal-iteration read/write overlap
        // matters — a re-run doubles again.
        let plan = plan_for("doall (i, 0, 15) { A[i] = A[i] + A[i]; }", 4);
        let report = certify(&plan).unwrap();
        assert!(!report.certificate.idempotent);
        assert!(
            report.notes.iter().any(|n| n.contains("idempotence")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn in_bounds_holds_on_ragged_tiles() {
        // 13 iterations on 4 processors: the last tile is short, the
        // one before is clamped.
        let plan = plan_with_grid("doall (i, 0, 12) { A[i] = B[3*i+2]; }", vec![4]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage, "{:?}", report.notes);
        assert!(report.certificate.in_bounds, "{:?}", report.notes);
    }

    #[test]
    fn recheck_accepts_honest_and_rejects_tampered_certificates() {
        let plan = plan_for(
            "doall (i, 0, 31) { doall (j, 0, 31) { A[i,j] = B[i,j]; } }",
            4,
        );
        let report = certify(&plan).unwrap();
        let certified = plan.clone().with_certificate(report.certificate.clone());
        assert_eq!(recheck(&certified).unwrap(), report.certificate);

        // Flipped verdict bit.
        let mut flipped = report.certificate.clone();
        flipped.write_disjoint = false;
        let bad = plan.clone().with_certificate(flipped);
        assert!(matches!(
            recheck(&bad),
            Err(CertifyError::Mismatch {
                fact: "write_disjoint",
                claimed: false,
                proven: true,
            })
        ));

        // Stale fingerprint.
        let mut stale = report.certificate.clone();
        stale.fingerprint = "deadbeefdeadbeef".into();
        let bad = plan.clone().with_certificate(stale);
        assert!(matches!(recheck(&bad), Err(CertifyError::Stale { .. })));

        // No certificate at all.
        assert!(matches!(recheck(&plan), Err(CertifyError::Missing)));
    }

    #[test]
    fn empty_boundary_tiles_do_not_break_coverage() {
        // 3 iterations on 4 processors: tile 3 is empty but numbering
        // and exact coverage still hold.
        let plan = plan_with_grid("doall (i, 0, 2) { A[i] = B[i]; }", vec![4]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage, "{:?}", report.notes);
        assert!(report.certificate.write_disjoint, "{:?}", report.notes);
    }

    /// (decider, prover) on the tiling of `nest` over `grid`, after
    /// `corrupt` has had its way with the boxes and chunks both read.
    fn coverage_verdicts(
        nest: &LoopNest,
        grid: &[i128],
        corrupt: impl FnOnce(&mut Vec<Box128>, &mut Vec<i128>),
    ) -> (bool, bool) {
        let tiling = Tiling::new(nest, None, grid).unwrap();
        let mut boxes: Vec<Box128> = tiling.boxes().iter().map(box128).collect();
        let mut chunks = tiling.chunks().to_vec();
        corrupt(&mut boxes, &mut chunks);
        (
            decide_coverage(nest, &tiling, grid, &chunks, &boxes),
            prove_coverage(nest, &tiling, &boxes, &mut Vec::new()),
        )
    }

    #[test]
    fn coverage_decision_and_proof_agree_on_hand_corrupted_boxes() {
        // `Tiling::new` always partitions, so neither procedure has a
        // reachable refutation: corrupt the boxes by hand.  7×5 on a
        // 2×3 grid, chunks [4, 2]: tile 0 is i∈[0,3] × j∈[10,11], tile 5
        // is i∈[4,6] × j∈[14,14].
        let nest = parse("doall (i, 0, 6) { doall (j, 10, 14) { A[i,j] = B[i,j]; } }").unwrap();
        let verdicts = |corrupt: fn(&mut Vec<Box128>, &mut Vec<i128>)| {
            coverage_verdicts(&nest, &[2, 3], corrupt)
        };
        assert_eq!(verdicts(|_, _| {}), (true, true), "untouched");
        assert_eq!(verdicts(|b, _| b[0][1].1 += 1), (false, false), "overlap");
        assert_eq!(verdicts(|b, _| b[0][1].1 -= 1), (false, false), "gap");
        assert_eq!(verdicts(|b, _| b[5][1].1 += 1), (false, false), "escape");
        assert_eq!(
            verdicts(|b, c| {
                c[0] = 0;
                b.iter_mut().for_each(|bx| bx[0] = (0, -1));
            }),
            (false, false),
            "a chunk of 0 on a dimension that has iterations"
        );
        // Swapped out of row-major order the boxes still partition the
        // space, which is all the prover asks; the decider also holds
        // them to the grid's numbering, and `recheck` fails closed on
        // the difference.
        assert_eq!(verdicts(|b, _| b.swap(0, 1)), (false, true), "swapped");
    }

    #[test]
    fn coverage_holds_on_empty_trailing_tiles_and_a_zero_trip_nest() {
        // 3 iterations on 4 processors: tile 3 is empty.
        let nest = parse("doall (i, 0, 2) { A[i] = B[i]; }").unwrap();
        assert_eq!(coverage_verdicts(&nest, &[4], |_, _| {}), (true, true));
        // The parser refuses `lower > upper`; a nest built in memory
        // can still have a loop with nothing to cover.
        let mut nest = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = B[i,j]; } }").unwrap();
        nest.loops[0].upper = -1;
        assert_eq!(nest.iteration_count(), 0);
        assert_eq!(coverage_verdicts(&nest, &[2, 2], |_, _| {}), (true, true));
        assert!(decide_in_bounds(&nest));
        let writes: Vec<ArrayRef> = nest.body.iter().map(|st| st.lhs.clone()).collect();
        let tiling = Tiling::new(&nest, None, &[2, 2]).unwrap();
        assert!(decide_write_disjoint(
            &writes,
            tiling.bounds(),
            &[2, 2],
            tiling.chunks()
        ));
    }

    /// The integers of a note, in order.
    fn numbers(note: &str) -> Vec<i128> {
        (note.split(|c: char| !c.is_ascii_digit() && c != '-'))
            .filter_map(|w| w.parse().ok())
            .collect()
    }

    #[test]
    fn a_wide_accumulate_is_refuted_with_witnesses() {
        // Every j-tile accumulates into S[0] and every iteration reads
        // it back.  A loop of 2²⁰ iterations is no wider for the exact
        // search than one of four: both facts come back refuted with a
        // tile pair and iterations that really collide.
        let src = "doall (i, 0, 1048575) { doall (j, 0, 1048575) {
                     l$S[0] = l$S[0] + A[0]; } }";
        let plan = plan_with_grid(src, vec![1, 4]);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage && report.certificate.in_bounds);
        assert!(!report.certificate.write_disjoint && !report.certificate.idempotent);
        let note = |fact: &str| {
            let found = report.notes.iter().find(|n| n.starts_with(fact));
            numbers(found.unwrap_or_else(|| panic!("no {fact} note: {:?}", report.notes)))
        };
        let tiling = plan.tiling(&plan.nest().unwrap()).unwrap();
        let within = |t: i128, i: &[i128]| {
            let bx = box128(&tiling.boxes()[t as usize]);
            (bx.iter().zip(i)).all(|(&(lo, hi), v)| (lo..=hi).contains(v))
        };
        // "tiles a and b both write S[0] (iterations [i, j] and [i, j])"
        let w = note("write-disjoint: tiles ");
        assert!(w[0] != w[1] && w[2] == 0, "{w:?}");
        assert!(within(w[0], &w[3..5]) && within(w[1], &w[5..7]), "{w:?}");
        // "iteration [i, j] reads S[0], which iteration [i, j] writes"
        let r = note("idempotence: iteration ");
        assert_eq!(r.len(), 5, "{r:?}");
        // The decider refutes the same facts, and a certificate the
        // capped search once issued (claiming both) is refused.
        let certified = plan.clone().with_certificate(report.certificate.clone());
        assert_eq!(recheck(&certified).unwrap(), report.certificate);
        let mut old = report.certificate;
        (old.write_disjoint, old.idempotent) = (true, true);
        assert!(matches!(
            recheck(&plan.with_certificate(old)),
            Err(CertifyError::Mismatch {
                fact: "write_disjoint",
                claimed: true,
                proven: false,
            })
        ));
    }

    #[test]
    fn coverage_refutes_a_mismatched_grid() {
        // Hand-build a plan whose recorded grid leaves iterations
        // uncovered relative to a *different* nest… not possible via
        // a `Tiling` (it always partitions), so corrupt the grid after
        // the fact: an extra processor axis entry is refused when the
        // plan is read, surfacing as a Plan error rather than a panic.
        let mut plan = plan_for("doall (i, 0, 15) { A[i] = B[i]; }", 4);
        plan.proc_grid = vec![4, 4];
        assert!(matches!(certify(&plan), Err(CertifyError::Plan(_))));
    }

    fn skewed_plan_for(src: &str, processors: i128) -> PartitionPlan {
        let nest = parse(src).unwrap();
        let cands = alp_plan::skewed_candidates(
            &nest,
            processors,
            &alp_partition::ParaSearchConfig::default(),
        )
        .unwrap();
        assert!(!cands.is_empty(), "no skewed candidate for:\n{src}");
        PartitionPlan::build_skewed(
            &nest,
            processors,
            None,
            LegalityVerdict::Unchecked,
            &cands[0],
            "test-skewed",
        )
        .unwrap()
    }

    #[test]
    fn skewed_plan_certifies_in_transformed_coordinates() {
        // A genuinely skewed (H ≠ I) plan re-proves all four facts:
        // coverage and write-disjointness over the clipped j-space
        // tiles, in-bounds and idempotence in the original coordinates.
        let plan = skewed_plan_for(
            "doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = B[i,j] + B[i+1,j+1]; } }",
            4,
        );
        assert!(plan.transform.is_some());
        assert!(!plan.transform.as_ref().unwrap().is_identity());
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage, "{:?}", report.notes);
        assert!(report.certificate.write_disjoint, "{:?}", report.notes);
        assert!(report.certificate.in_bounds, "{:?}", report.notes);
        assert!(report.certificate.idempotent, "{:?}", report.notes);
        assert!(report.unlocks_fastpath());

        // And the certificate survives the embed → recheck round trip.
        let certified = plan.clone().with_certificate(report.certificate.clone());
        assert_eq!(recheck(&certified).unwrap(), report.certificate);
    }

    #[test]
    fn skewed_k_split_accumulate_is_still_refuted() {
        // Transform-space reasoning must not weaken the refutation
        // machinery: an accumulate whose tiles share destination
        // elements is refuted in j-space exactly as in i-space.
        let src = "doall (i, 0, 7) { doall (k, 0, 7) {
                     l$C[i] = l$C[i] + A[i,k];
                   } }";
        let nest = parse(src).unwrap();
        let u = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        let t = alp_plan::Transform::new(u, alp_plan::fingerprint_hex(&nest)).unwrap();
        let plan = plan_with_grid(src, vec![1, 4]).with_transform(t);
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage, "{:?}", report.notes);
        // Splitting k across tiles makes distinct tiles write the same
        // C[i] — refuted with a concrete witness.
        assert!(!report.certificate.write_disjoint);
        assert!(
            report.notes.iter().any(|n| n.contains("write-disjoint")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn doseq_wrapper_certifies_like_the_inner_doall() {
        let plan = plan_for(
            "doseq (t, 0, 3) { doall (i, 0, 15) { A[i] = B[i] + B[i+1]; } }",
            4,
        );
        let report = certify(&plan).unwrap();
        assert!(report.certificate.coverage);
        assert!(report.certificate.write_disjoint);
        assert!(report.certificate.idempotent);
    }
}
