//! The per-loop cost model: total cumulative footprint as a function of
//! tile shape (§3.5–3.6).

use crate::class::{classify, RefClass};
use crate::cumulative::{cumulative_footprint_exact, cumulative_footprint_general, RectFootprint};
use crate::tile::Tile;
use alp_linalg::{IMat, Rat};
use alp_loopir::LoopNest;

/// One uniformly intersecting class together with its optimization
/// status.
#[derive(Debug, Clone)]
pub struct ClassCost {
    /// The class.
    pub class: RefClass,
    /// True when this class's footprint is the same for every tile of a
    /// given volume, so it cannot influence the optimal shape (Example 10,
    /// case 3: single-reference classes whose `G` has independent rows —
    /// their footprint is exactly the iteration count by Theorem 5).
    pub shape_invariant: bool,
    /// The class's Theorem-4 footprint as coefficients of the tile
    /// extents, computed once: [`CostModel::cost_rect`] and
    /// [`CostModel::traffic_rect`] evaluate it for each tile they price.
    pub rect: RectFootprint,
}

/// Total cumulative footprint of a loop nest as a function of the tile.
///
/// The value `cost(tile)` estimates `Σ_classes |cumulative footprint|` —
/// the number of distinct data elements one processor touches, i.e. its
/// cold misses (§3.3).  For a nest wrapped in a sequential loop (Fig. 9)
/// the interesting quantity is [`CostModel::traffic_rect`]: the part of
/// the footprint shared with neighbouring tiles, which is re-communicated
/// every outer iteration.
#[derive(Debug, Clone)]
pub struct CostModel {
    classes: Vec<ClassCost>,
    depth: usize,
    trips: Vec<i128>,
    sync_weight: Rat,
}

impl CostModel {
    /// Build the model: classify references, mark shape-invariant
    /// classes and compute each class's Theorem-4 coefficients.
    pub fn from_nest(nest: &LoopNest) -> Self {
        let depth = nest.depth();
        let trips = nest.loops.iter().map(|l| l.trip_count()).collect();
        let classes = classify(nest)
            .into_iter()
            .map(|class| {
                let rows_independent = class.g.rank() == class.g.rows();
                let zero_spread = class.spread().is_zero();
                ClassCost {
                    shape_invariant: rows_independent && zero_spread,
                    rect: RectFootprint::new(&class),
                    class,
                }
            })
            .collect();
        CostModel {
            classes,
            depth,
            trips,
            sync_weight: Rat::ONE,
        }
    }

    /// Weight fine-grain-synchronized (`l$`/accumulate) classes by
    /// `weight ≥ 1` — Appendix A's "approximately modeled as slightly
    /// more expensive communication than usual".
    ///
    /// With weight 1 (the default) the model is the paper's pure
    /// footprint objective; weights > 1 make the optimizer keep
    /// accumulated data private (e.g. matmul avoids splitting the
    /// reduction dimension).  Shape-invariant accumulate classes become
    /// shape-*dependent* under a weight, because their (constant-volume)
    /// footprint now costs more than other classes' — we conservatively
    /// keep them marked invariant since a uniform scale of a constant
    /// term still cannot change the argmin.
    ///
    /// # Panics
    /// Panics if `weight < 1`.
    pub fn with_sync_weight(mut self, weight: Rat) -> Self {
        assert!(weight >= Rat::ONE, "sync weight must be >= 1");
        self.sync_weight = weight;
        self
    }

    fn class_weight(&self, cc: &ClassCost) -> Rat {
        if cc.class.kinds.contains(&alp_loopir::AccessKind::Accumulate) {
            self.sync_weight
        } else {
            Rat::ONE
        }
    }

    /// Trip count of each parallel loop.
    pub fn trips(&self) -> &[i128] {
        &self.trips
    }

    /// Loop-nest depth (tiles must match it).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// All classes with their status.
    pub fn classes(&self) -> &[ClassCost] {
        &self.classes
    }

    /// Classes that can influence the optimal tile shape.
    pub fn active_classes(&self) -> impl Iterator<Item = &ClassCost> {
        self.classes.iter().filter(|c| !c.shape_invariant)
    }

    /// Total estimated footprint for a rectangular tile with extents
    /// `lambda` (Theorem 4 per class).
    pub fn cost_rect(&self, lambda: &[i128]) -> Rat {
        assert_eq!(lambda.len(), self.depth, "tile depth mismatch");
        let mut total = Rat::ZERO;
        for cc in &self.classes {
            total = total + cc.rect.at(lambda) * self.class_weight(cc);
        }
        total
    }

    /// Total estimated footprint for a general tile (Theorem 2 per
    /// class).  (Accumulate weighting rounds down to stay integral.)
    pub fn cost_general(&self, l: &IMat) -> i128 {
        assert_eq!(l.rows(), self.depth, "tile depth mismatch");
        let tile = Tile::general(l.clone());
        self.classes
            .iter()
            .map(|cc| {
                let base = cumulative_footprint_general(&tile, &cc.class);
                (Rat::int(base) * self.class_weight(cc)).floor()
            })
            .sum()
    }

    /// The **shape-dependent traffic** for a rectangular tile: the
    /// footprint minus each class's base volume term.  For the Fig. 9
    /// pattern (doall nest inside a sequential loop) this is the
    /// per-outer-iteration coherence traffic: `2LjLk + 3LiLk + 4LiLj` in
    /// Example 8's notation.
    pub fn traffic_rect(&self, lambda: &[i128]) -> Rat {
        assert_eq!(lambda.len(), self.depth, "tile depth mismatch");
        let mut base_all = Rat::ZERO;
        for cc in &self.classes {
            // Base term of Theorem 4: Π(λ+1) for full-rank classes; for
            // rank-deficient classes the whole footprint scales with the
            // boundary, so the base is the spread-free footprint.
            base_all = base_all + cc.rect.base_at(lambda);
        }
        self.cost_rect(lambda) - base_all
    }

    /// Exact total footprint by enumeration (validation path; cost is
    /// `O(classes × tile points)`).
    pub fn cost_exact(&self, tile: &Tile) -> usize {
        self.classes
            .iter()
            .map(|cc| cumulative_footprint_exact(tile, &cc.class))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn model(src: &str) -> CostModel {
        CostModel::from_nest(&parse(src).unwrap())
    }

    #[test]
    fn example8_model() {
        let m = model(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        );
        assert_eq!(m.classes().len(), 2);
        // A is shape-invariant (single ref, G = I), B is active.
        let a = m.classes().iter().find(|c| c.class.array == "A").unwrap();
        let b = m.classes().iter().find(|c| c.class.array == "B").unwrap();
        assert!(a.shape_invariant);
        assert!(!b.shape_invariant);
        assert_eq!(m.active_classes().count(), 1);

        // cost = 2·Π(λ+1) + spread terms.
        let (li, lj, lk) = (5i128, 5i128, 5i128);
        let p = 6i128;
        let expected = 2 * p * p * p + 2 * p * p + 3 * p * p + 4 * p * p;
        assert_eq!(m.cost_rect(&[li, lj, lk]), Rat::int(expected));

        // traffic = spread terms only.
        assert_eq!(m.traffic_rect(&[li, lj, lk]), Rat::int((2 + 3 + 4) * p * p));
    }

    #[test]
    fn example10_invariant_classes() {
        let m = model(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
             } }",
        );
        assert_eq!(m.classes().len(), 4);
        // A and the lone C reference are shape-invariant; B and the C pair
        // are active (Example 10's case 3).
        assert_eq!(m.active_classes().count(), 2);
    }

    #[test]
    fn cost_exact_vs_estimate_example2() {
        // Example 2 with partition a (rows of 100): tile 0 x 99 in (i, j).
        let m = model(
            "doall (i, 101, 200) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        );
        // Partition a: strips of 100 iterations of i, single j
        // -> λ = (99, 0).  The paper's per-tile miss counts (104 vs 140)
        // are the B-class cumulative footprints; A adds a constant 100.
        let t_a = Tile::rect(&[99, 0]);
        let exact_a = m.cost_exact(&t_a);
        assert_eq!(exact_a, 100 + 104);
        // Partition b: 10x10 tiles -> λ = (9, 9).
        let t_b = Tile::rect(&[9, 9]);
        let exact_b = m.cost_exact(&t_b);
        assert_eq!(exact_b, 100 + 140);
        // a beats b, as the paper says.
        assert!(exact_a < exact_b);
    }

    #[test]
    #[should_panic(expected = "tile depth mismatch")]
    fn cost_rect_depth_checked() {
        let m = model("doall (i, 0, 9) { A[i] = A[i]; }");
        m.cost_rect(&[1, 2]);
    }

    #[test]
    fn rank_deficient_class_is_active_even_single_ref() {
        // Single reference A[i+j]: footprint depends on the tile shape
        // (λ1 + λ2 + 1), so it must stay active.
        let m = model("doall (i, 0, 9) { doall (j, 0, 9) { A[i+j] = A[i+j]; } }");
        assert_eq!(m.active_classes().count(), 1);
    }
}
