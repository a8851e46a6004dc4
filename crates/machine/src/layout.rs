//! Home-node assignment over the shared array layout.

/// The row-major array layout, shared with the planner and the runtime
/// (it lives in `alp-loopir`, the lowest crate all three depend on).
pub use alp_loopir::ArrayLayout;
use alp_loopir::ArrayPartition;

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

/// A home map backed by an explicit closure (E12's scrambled layout, the
/// worst case alignment is measured against).
pub struct FnHome<F: Fn(u64) -> usize + Sync>(pub F);

impl<F: Fn(u64) -> usize + Sync> HomeMap for FnHome<F> {
    fn home(&self, line: u64) -> usize {
        (self.0)(line)
    }
}

/// Aligned data distribution (§4): each array's data tiles, as its
/// [`ArrayPartition`] describes them, live on the processor of the
/// matching loop tile.  Along a distributed dimension the data tile is
/// clamped to the grid, so indices beyond the loop's image stay with the
/// edge tile that reads them; every other dimension sits at grid
/// coordinate 0, and so do lines of arrays without a partition.
#[derive(Debug, Clone)]
pub struct TiledHome {
    layout: ArrayLayout,
    /// The partition of each layout array, by array id.
    arrays: Vec<Option<ArrayPartition>>,
    /// The loop-partition processor grid (row-major linearization).
    grid: Vec<i128>,
}

impl TiledHome {
    /// Lay `layout`'s arrays out by `partitions` over the processor
    /// `grid`.
    ///
    /// # Panics
    /// Panics if an owner dimension is out of the grid's range.
    pub fn new(grid: Vec<i128>, layout: ArrayLayout, partitions: &[ArrayPartition]) -> Self {
        let mut arrays = vec![None; layout.array_count()];
        for part in partitions {
            assert!(
                part.owner.iter().all(|&r| r < grid.len()),
                "owner dim out of range"
            );
            if let Some(id) = layout.array_id(&part.array) {
                arrays[id] = Some(part.clone());
            }
        }
        TiledHome {
            layout,
            arrays,
            grid,
        }
    }
}

impl HomeMap for TiledHome {
    fn home(&self, line: u64) -> usize {
        let Some((id, index)) = self.layout.element(line) else {
            return 0;
        };
        let Some(part) = &self.arrays[id] else {
            return 0;
        };
        let mut coords = vec![0i128; self.grid.len()];
        for (j, (&k, &r)) in part.dims.iter().zip(&part.owner).enumerate() {
            coords[r] = part.tile(j, index[k]).clamp(0, self.grid[r] - 1);
        }
        (coords.iter().zip(&self.grid)).fold(0, |p, (&c, &g)| p * g + c) as usize
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

    /// A home over the one array `A` of `src`, partitioned along `dims`
    /// (owned by `owner`) with the given origins and periods.
    fn tiled(
        src: &str,
        grid: &[i128],
        dims: &[usize],
        owner: &[usize],
        origin: &[i128],
        period: &[i128],
    ) -> TiledHome {
        let layout = ArrayLayout::from_nest(&alp_loopir::parse(src).unwrap()).unwrap();
        let part = ArrayPartition {
            array: "A".into(),
            tile_extents: vec![],
            dims: dims.to_vec(),
            offset: alp_linalg::IVec::new(&vec![0; layout.extents(0).len()]),
            owner: owner.to_vec(),
            origin: origin.to_vec(),
            period: period.to_vec(),
        };
        TiledHome::new(grid.to_vec(), layout, &[part])
    }

    const SQUARE: &str = "doall (i, 0, 7) { doall (j, 0, 7) { A[i,j] = A[i,j]; } }";

    #[test]
    fn tiled_home_2d() {
        // 8x8 array, 2x2 grid, 4x4 tiles.
        let th = tiled(SQUARE, &[2, 2], &[0, 1], &[0, 1], &[0, 0], &[4, 4]);
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
        let th = tiled(SQUARE, &[2, 2], &[0, 1], &[1, 0], &[0, 0], &[4, 4]);
        // Element (0, 4): data dim 1 tile 1 -> loop coord 0 = 1 -> p2.
        assert_eq!(th.home(4), 2);
        // Element (4, 0): data dim 0 tile 1 -> loop coord 1 = 1 -> p1.
        assert_eq!(th.home(4 * 8), 1);
    }

    #[test]
    fn tiled_home_clamps_to_the_grid() {
        // Elements 0..=9, tiles of 4 from 1, grid 3: element 0 lies before
        // tile 0 and element 9 in tile 2; both stay on the grid.
        let th = tiled(
            "doall (i, 0, 9) { A[i] = A[i]; }",
            &[3],
            &[0],
            &[0],
            &[1],
            &[4],
        );
        let homes: Vec<usize> = (0..10).map(|l| th.home(l)).collect();
        assert_eq!(homes, [0, 0, 0, 0, 0, 1, 1, 1, 1, 2]);
    }

    #[test]
    fn tiled_home_negative_extents_and_periods() {
        let src = "doall (i, -5, 4) { A[i] = A[i]; }";
        let th = tiled(src, &[2], &[0], &[0], &[-5], &[5]);
        assert_eq!(th.home(0), 0); // element -5
        assert_eq!(th.home(5), 1); // element 0
                                   // Counted down from element 4: 4..0 on p0, -1..-5 on p1.
        let th = tiled(src, &[2], &[0], &[0], &[4], &[-5]);
        assert_eq!(th.home(9), 0); // element 4
        assert_eq!(th.home(5), 0); // element 0
        assert_eq!(th.home(4), 1); // element -1
    }

    #[test]
    fn tiled_home_undistributed_dim() {
        let src = "doall (i, 0, 3) { doall (j, 0, 3) { A[i,j] = A[i,j]; } }";
        let th = tiled(src, &[2, 2], &[0], &[0], &[0], &[2]);
        // Only data dim 0 distributes: rows 0-1 -> loop coord (0,0) = p0,
        // rows 2-3 -> (1,0) = p2.
        assert_eq!(th.home(0), 0);
        assert_eq!(th.home(3), 0);
        assert_eq!(th.home(2 * 4), 2);
    }

    #[test]
    #[should_panic(expected = "owner dim out of range")]
    fn tiled_home_owner_bound() {
        tiled(
            "doall (i, 0, 3) { A[i] = A[i]; }",
            &[2],
            &[0],
            &[3],
            &[0],
            &[1],
        );
    }
}
