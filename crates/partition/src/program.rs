//! Program-level partitioning: several loop nests over shared arrays.
//!
//! The paper partitions one nest at a time, but §4's compiler has to
//! handle whole programs, where consecutive phases may prefer
//! *conflicting* tile shapes over the same array (the classic case is an
//! ADI-style row sweep followed by a column sweep).  Two strategies
//! compete:
//!
//! * **common grid** — one processor grid for every phase; each phase
//!   pays a possibly sub-optimal footprint, but data never moves;
//! * **per-phase optima** — each phase gets its own best grid; between
//!   phases, every shared array whose layout changed must be
//!   redistributed (cost ≈ the array's size in elements — each element
//!   crosses the network once).
//!
//! [`partition_program`] evaluates both and picks the cheaper total,
//! which is exactly the loop-vs-data-partitioning interplay the paper's
//! §4 alludes to.

use crate::rect::{factorizations, partition_rect, RectPartition};
use alp_footprint::CostModel;
use alp_linalg::Rat;
use alp_loopir::LoopNest;
use std::collections::HashMap;

/// Which strategy won.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramStrategy {
    /// One grid shared by every phase; zero redistribution.
    CommonGrid,
    /// Each phase uses its own optimum and pays redistribution.
    PerPhase,
}

/// The chosen program partition.
#[derive(Debug, Clone)]
pub struct ProgramPartition {
    /// Per-phase partitions (all equal grids under `CommonGrid`).
    pub phases: Vec<RectPartition>,
    /// The winning strategy.
    pub strategy: ProgramStrategy,
    /// Modeled total footprint cost of the winner (per processor,
    /// summed over phases, including redistribution).
    pub total_cost: Rat,
    /// Total cost the losing strategy would have paid.
    pub alternative_cost: Rat,
    /// Elements redistributed between phases under `PerPhase`.
    pub redistribution: i128,
}

/// Size (in elements) of every array touched by a nest, saturated at
/// `u64::MAX`: no layout holds a larger array, and a nest with an
/// extent beyond `i128` counts every array it touches as that large.
fn array_sizes(nest: &LoopNest) -> HashMap<String, i128> {
    const CAP: i128 = u64::MAX as i128;
    let Ok(extents) = nest.try_array_extents() else {
        return nest.arrays().into_iter().map(|a| (a, CAP)).collect();
    };
    (extents.into_iter())
        .map(|(a, ext)| {
            let widths = ext
                .iter()
                .map(|&(lo, hi)| hi.saturating_sub(lo).saturating_add(1));
            (a, widths.fold(1, |n: i128, w| n.saturating_mul(w).min(CAP)))
        })
        .collect()
}

/// Redistribution cost between consecutive phases: each shared array
/// whose grid changed moves once (its full size).
fn redistribution_cost(nests: &[LoopNest], parts: &[RectPartition]) -> i128 {
    let mut total = 0i128;
    for w in 0..nests.len().saturating_sub(1) {
        if parts[w].proc_grid == parts[w + 1].proc_grid {
            continue;
        }
        let a = array_sizes(&nests[w]);
        let b = array_sizes(&nests[w + 1]);
        for (name, size) in &a {
            if b.contains_key(name) {
                total += size;
            }
        }
    }
    total
}

/// Partition a multi-phase program for `p` processors.
///
/// # Panics
/// Panics if `nests` is empty or `p < 1`.
pub fn partition_program(nests: &[LoopNest], p: i128) -> ProgramPartition {
    assert!(!nests.is_empty(), "empty program");
    assert!(p >= 1, "need at least one processor");

    // Strategy A: per-phase optima + redistribution.
    let per_phase: Vec<RectPartition> = nests.iter().map(|n| partition_rect(n, p)).collect();
    let per_phase_footprint: Rat = per_phase
        .iter()
        .fold(Rat::ZERO, |acc, part| acc + part.cost);
    let redistribution = redistribution_cost(nests, &per_phase);
    // Redistribution moves whole arrays; amortize per processor to stay
    // in the same per-tile units as the footprint model.
    let per_phase_total = per_phase_footprint + Rat::new(redistribution, p);

    // Strategy B: a single common grid (only when all depths agree).
    let depth = nests[0].depth();
    let common = if nests.iter().all(|n| n.depth() == depth) {
        let models: Vec<CostModel> = nests.iter().map(CostModel::from_nest).collect();
        let mut best: Option<(Vec<i128>, Rat, Vec<RectPartition>)> = None;
        'grids: for grid in factorizations(p, depth) {
            let mut phases = Vec::with_capacity(nests.len());
            let mut total = Rat::ZERO;
            for (nest, model) in nests.iter().zip(&models) {
                let trips: Vec<i128> = nest.loops.iter().map(|l| l.trip_count()).collect();
                if grid.iter().zip(&trips).any(|(&g, &n)| g > n) {
                    continue 'grids;
                }
                let extents: Vec<i128> = grid
                    .iter()
                    .zip(&trips)
                    .map(|(&g, &n)| (n + g - 1) / g - 1)
                    .collect();
                let cost = model.cost_rect(&extents);
                total = total + cost;
                phases.push(RectPartition {
                    proc_grid: grid.clone(),
                    tile_extents: extents,
                    cost,
                });
            }
            match &best {
                Some((_, t, _)) if *t <= total => {}
                _ => best = Some((grid, total, phases)),
            }
        }
        best
    } else {
        None
    };

    match common {
        Some((_, common_total, phases)) if common_total <= per_phase_total => ProgramPartition {
            phases,
            strategy: ProgramStrategy::CommonGrid,
            total_cost: common_total,
            alternative_cost: per_phase_total,
            redistribution,
        },
        Some((_, common_total, _)) => ProgramPartition {
            phases: per_phase,
            strategy: ProgramStrategy::PerPhase,
            total_cost: per_phase_total,
            alternative_cost: common_total,
            redistribution,
        },
        None => ProgramPartition {
            phases: per_phase,
            strategy: ProgramStrategy::PerPhase,
            total_cost: per_phase_total,
            alternative_cost: per_phase_total,
            redistribution,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse_program;

    #[test]
    fn single_phase_degenerates_to_partition_rect() {
        let nests =
            parse_program("doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+2,j]; } }").unwrap();
        let prog = partition_program(&nests, 16);
        let solo = partition_rect(&nests[0], 16);
        assert_eq!(prog.phases[0].proc_grid, solo.proc_grid);
        assert_eq!(prog.redistribution, 0);
    }

    #[test]
    fn adi_phases_prefer_common_grid_for_small_conflict() {
        // Phase 1 spreads along j, phase 2 along i — mild conflict over a
        // large array: redistribution (4096 elements each way) dwarfs the
        // footprint differences, so the common square grid wins.
        let nests = parse_program(
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+1]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i+1,j]; } }",
        )
        .unwrap();
        assert_eq!(nests.len(), 2);
        let prog = partition_program(&nests, 16);
        assert_eq!(prog.strategy, ProgramStrategy::CommonGrid);
        assert_eq!(prog.phases[0].proc_grid, prog.phases[1].proc_grid);
        assert!(prog.total_cost <= prog.alternative_cost);
    }

    #[test]
    fn disjoint_arrays_allow_per_phase() {
        // Phases over different arrays: redistribution is zero, so the
        // per-phase optima always (weakly) win or tie the common grid.
        let nests = parse_program(
            "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = A[i,j+3]; } }
             doall (i, 0, 63) { doall (j, 0, 63) { B[i,j] = B[i+3,j]; } }",
        )
        .unwrap();
        let prog = partition_program(&nests, 16);
        assert_eq!(prog.redistribution, 0);
        // Each phase's grid is its solo optimum under PerPhase; under
        // CommonGrid the costs must still be minimal-total.
        let s0 = partition_rect(&nests[0], 16);
        let s1 = partition_rect(&nests[1], 16);
        let solo_total = s0.cost + s1.cost;
        assert!(prog.total_cost <= solo_total + Rat::int(1));
    }

    #[test]
    fn unsizeable_arrays_saturate_the_redistribution_cost() {
        // 2^126·7 does not fit i128: both arrays of phase 1 count as
        // u64::MAX elements, and the common grid wins without a panic.
        let nests = parse_program(
            "doall (i, 0, 7) { doall (j, 0, 7) {
               A[85070591730234615865843651857942052864*i, j] = B[i, j]; } }
             doall (i, 0, 7) { doall (j, 0, 7) {
               B[i, j] = A[i, j] + A[i, j+1] + A[i, j+2] + A[i, j+3]; } }",
        )
        .unwrap();
        let sizes = array_sizes(&nests[0]);
        assert_eq!(sizes["A"], u64::MAX as i128);
        assert_eq!(array_sizes(&nests[1])["B"], 64);
        let prog = partition_program(&nests, 4);
        assert_eq!(prog.strategy, ProgramStrategy::CommonGrid);
        assert_eq!(prog.redistribution, 2 * u64::MAX as i128);
    }

    #[test]
    fn mixed_depth_programs_fall_back() {
        let nests = parse_program(
            "doall (i, 0, 63) { A[i] = A[i+1]; }
             doall (i, 0, 63) { doall (j, 0, 63) { B[i,j] = B[i+1,j]; } }",
        )
        .unwrap();
        let prog = partition_program(&nests, 8);
        assert_eq!(prog.strategy, ProgramStrategy::PerPhase);
        assert_eq!(prog.phases.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty program")]
    fn empty_program_panics() {
        partition_program(&[], 4);
    }
}
