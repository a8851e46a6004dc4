//! Home-node assignment over the shared array layout.

/// The row-major array layout, shared with the planner and the runtime
/// (it lives in `alp-loopir`, the lowest crate all three depend on).
pub use alp_loopir::ArrayLayout;

/// Maps a line to the processor whose memory module stores it (the
/// "home" node in a distributed-memory machine).
pub trait HomeMap: Sync {
    /// Home processor of a line.
    fn home(&self, line: u64) -> usize;
}

/// Monolithic memory: every line is equidistant from every processor
/// (the uniform-access model of §2.2).  Home is processor 0 by
/// convention; remote/local accounting is meaningless and reported as
/// all-remote.
#[derive(Debug, Clone, Copy)]
pub struct UniformHome;

impl HomeMap for UniformHome {
    fn home(&self, _line: u64) -> usize {
        0
    }
}

/// Distribute lines in contiguous equal blocks across processors — the
/// default "dumb" distribution that data alignment improves on.
#[derive(Debug, Clone)]
pub struct BlockRowMajorHome {
    processors: usize,
    block: u64,
}

impl BlockRowMajorHome {
    /// Evenly split `total_lines` across `processors`.
    pub fn new(processors: usize, total_lines: u64) -> Self {
        let block = total_lines.div_ceil(processors as u64).max(1);
        BlockRowMajorHome { processors, block }
    }
}

impl HomeMap for BlockRowMajorHome {
    fn home(&self, line: u64) -> usize {
        ((line / self.block) as usize).min(self.processors - 1)
    }
}

/// A home map backed by an explicit closure (used by the alignment
/// experiments, which place array tiles on the processors that own the
/// matching loop tiles).
pub struct FnHome<F: Fn(u64) -> usize + Sync>(pub F);

impl<F: Fn(u64) -> usize + Sync> HomeMap for FnHome<F> {
    fn home(&self, line: u64) -> usize {
        (self.0)(line)
    }
}

/// Per-array description for [`TiledHome`]: how one array's elements are
/// tiled onto the **loop** processor grid.
#[derive(Debug, Clone)]
pub struct TiledArrayHome {
    /// First line id of the array.
    pub base: u64,
    /// Number of lines.
    pub size: u64,
    /// Inclusive extents per dimension (same as the layout's).
    pub extents: Vec<(i128, i128)>,
    /// Elements per data tile along each dimension (≥ 1).
    pub chunks: Vec<i128>,
    /// For each data dimension, the loop-grid dimension whose coordinate
    /// this data dimension determines (`None` = not distributed).  This
    /// handles transposed references (`A[j, i]`): data dim 0 can feed
    /// loop-grid dim 1.
    pub owner_dim: Vec<Option<usize>>,
}

/// Aligned data distribution (§4): each array is cut into tiles with the
/// same aspect ratio as the loop tiles, and the tile whose coordinates
/// match loop tile `(c₀, c₁, …)` lives on that loop tile's processor.
///
/// Lines outside every described array (or data dimensions with no
/// owner) default toward processor 0's coordinates.
#[derive(Debug, Clone)]
pub struct TiledHome {
    arrays: Vec<TiledArrayHome>,
    /// The loop-partition processor grid (row-major linearization).
    grid: Vec<i128>,
    processors: usize,
}

impl TiledHome {
    /// Build from the loop grid and per-array tilings.
    ///
    /// # Panics
    /// Panics if shapes disagree, a chunk is < 1, or an owner dimension
    /// is out of range.
    pub fn new(grid: Vec<i128>, arrays: Vec<TiledArrayHome>) -> Self {
        let processors: i128 = grid.iter().product();
        assert!(processors >= 1, "empty grid");
        for a in &arrays {
            assert_eq!(a.extents.len(), a.chunks.len(), "chunk rank mismatch");
            assert_eq!(a.extents.len(), a.owner_dim.len(), "owner rank mismatch");
            assert!(a.chunks.iter().all(|&c| c >= 1), "chunks must be >= 1");
            for od in a.owner_dim.iter().flatten() {
                assert!(*od < grid.len(), "owner dim out of range");
            }
        }
        TiledHome {
            arrays,
            processors: processors as usize,
            grid,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.processors
    }
}

impl HomeMap for TiledHome {
    fn home(&self, line: u64) -> usize {
        for a in &self.arrays {
            if line < a.base || line >= a.base + a.size {
                continue;
            }
            // Unflatten row-major.
            let mut rem = line - a.base;
            let dims: Vec<u64> = a
                .extents
                .iter()
                .map(|&(lo, hi)| (hi - lo + 1).max(1) as u64)
                .collect();
            let mut idx = vec![0i128; dims.len()];
            for k in (0..dims.len()).rev() {
                idx[k] = (rem % dims[k]) as i128 + a.extents[k].0;
                rem /= dims[k];
            }
            // Loop-grid coordinates implied by the owned data dimensions.
            let mut coords = vec![0i128; self.grid.len()];
            for (k, &i) in idx.iter().enumerate() {
                if let Some(r) = a.owner_dim[k] {
                    let c = ((i - a.extents[k].0) / a.chunks[k]).min(self.grid[r] - 1);
                    coords[r] = c.max(0);
                }
            }
            let mut p = 0i128;
            for (r, &c) in coords.iter().enumerate() {
                p = p * self.grid[r] + c;
            }
            return (p as usize).min(self.processors - 1);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_home_covers_all_processors() {
        let h = BlockRowMajorHome::new(4, 100);
        let homes: Vec<usize> = (0..100).map(|l| h.home(l)).collect();
        assert_eq!(homes[0], 0);
        assert_eq!(homes[99], 3);
        for p in 0..4 {
            assert!(homes.contains(&p));
        }
        // Monotone non-decreasing.
        assert!(homes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn uniform_home() {
        assert_eq!(UniformHome.home(42), 0);
    }

    #[test]
    fn fn_home() {
        let h = FnHome(|l| (l % 3) as usize);
        assert_eq!(h.home(7), 1);
    }

    #[test]
    fn tiled_home_2d() {
        // 8x8 array, 2x2 grid, 4x4 tiles.
        let th = TiledHome::new(
            vec![2, 2],
            vec![TiledArrayHome {
                base: 0,
                size: 64,
                extents: vec![(0, 7), (0, 7)],
                chunks: vec![4, 4],
                owner_dim: vec![Some(0), Some(1)],
            }],
        );
        // (0,0) -> p0; (0,4) -> p1; (4,0) -> p2; (7,7) -> p3.
        assert_eq!(th.home(0), 0);
        assert_eq!(th.home(4), 1);
        assert_eq!(th.home(4 * 8), 2);
        assert_eq!(th.home(7 * 8 + 7), 3);
        // Out-of-array lines default to 0.
        assert_eq!(th.home(100), 0);
    }

    #[test]
    fn tiled_home_transposed_reference() {
        // Data dim 0 feeds loop-grid dim 1 and vice versa (A[j,i]).
        let th = TiledHome::new(
            vec![2, 2],
            vec![TiledArrayHome {
                base: 0,
                size: 64,
                extents: vec![(0, 7), (0, 7)],
                chunks: vec![4, 4],
                owner_dim: vec![Some(1), Some(0)],
            }],
        );
        // Element (0, 4): data dim 1 tile 1 -> loop coord 0 = 1 -> p2.
        assert_eq!(th.home(4), 2);
        // Element (4, 0): data dim 0 tile 1 -> loop coord 1 = 1 -> p1.
        assert_eq!(th.home(4 * 8), 1);
    }

    #[test]
    fn tiled_home_clamps_ragged_edge() {
        // 10 elements, chunks of 4, grid 3: element 9 is in tile 2 (not 3).
        let th = TiledHome::new(
            vec![3],
            vec![TiledArrayHome {
                base: 0,
                size: 10,
                extents: vec![(0, 9)],
                chunks: vec![4],
                owner_dim: vec![Some(0)],
            }],
        );
        assert_eq!(th.home(9), 2);
        assert_eq!(th.home(0), 0);
        assert_eq!(th.home(4), 1);
    }

    #[test]
    fn tiled_home_negative_extents() {
        let th = TiledHome::new(
            vec![2],
            vec![TiledArrayHome {
                base: 0,
                size: 10,
                extents: vec![(-5, 4)],
                chunks: vec![5],
                owner_dim: vec![Some(0)],
            }],
        );
        assert_eq!(th.home(0), 0); // element -5
        assert_eq!(th.home(5), 1); // element 0
    }

    #[test]
    fn tiled_home_undistributed_dim() {
        let th = TiledHome::new(
            vec![2, 2],
            vec![TiledArrayHome {
                base: 0,
                size: 16,
                extents: vec![(0, 3), (0, 3)],
                chunks: vec![2, 4],
                owner_dim: vec![Some(0), None],
            }],
        );
        // Only data dim 0 distributes: rows 0-1 -> loop coord (0,0) = p0,
        // rows 2-3 -> (1,0) = p2.
        assert_eq!(th.home(0), 0);
        assert_eq!(th.home(3), 0);
        assert_eq!(th.home(2 * 4), 2);
    }

    #[test]
    #[should_panic(expected = "owner dim out of range")]
    fn tiled_home_owner_bound() {
        TiledHome::new(
            vec![2],
            vec![TiledArrayHome {
                base: 0,
                size: 4,
                extents: vec![(0, 3)],
                chunks: vec![1],
                owner_dim: vec![Some(3)],
            }],
        );
    }
}
