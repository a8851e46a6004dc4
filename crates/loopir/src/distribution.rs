//! Where a partitioned nest's data and processors live (§4): an
//! [`ArrayPartition`] cuts one array into data tiles aligned with the
//! loop tiles, and a [`MeshPlacement`] puts the processor grid on a 2-D
//! mesh.
//!
//! `alp-partition` decides both (`align_arrays`, [`mesh_placement`]);
//! they live here, beside [`ArrayLayout`](crate::ArrayLayout), so the
//! simulator measures exactly the distribution the compiler emits.

use alp_linalg::{walk_box, IVec};

/// The data tiling chosen for one array: data tile `c` along a
/// distributed dimension holds what the class's median-offset reference
/// touches from loop tile `c` along its owner dimension, and lives on
/// the processor of that loop tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPartition {
    /// Array name.
    pub array: String,
    /// Extent `λ_r·|G_rk|` of one data tile along each distributed
    /// dimension (parallel to `dims`).
    pub tile_extents: Vec<i128>,
    /// The distributed array dimensions, increasing.  The others are
    /// not distributed: constant, mixed (several loop indices) or
    /// repeated-index subscripts.
    pub dims: Vec<usize>,
    /// Alignment offset `ā`: the class's component-wise median offset
    /// (footnote 2's minimizer of the spread `a⁺`).
    pub offset: IVec,
    /// The loop dimension `r` (and processor-grid dimension) that owns
    /// each distributed dimension.
    pub owner: Vec<usize>,
    /// Index where data tile 0 starts along each distributed dimension:
    /// `lo_r·G_rk + ā_k`.
    pub origin: Vec<i128>,
    /// Signed index step from one data tile to the next along each
    /// distributed dimension: `(λ_r+1)·G_rk`.
    pub period: Vec<i128>,
}

impl ArrayPartition {
    /// The data tile, counted along grid dimension `owner[j]`, holding
    /// index `x` of dimension `dims[j]`.  Unclamped: indices outside the
    /// image of the loop bounds land below 0 or past the grid.
    pub fn tile(&self, j: usize, x: i128) -> i128 {
        let (from, step) = (x - self.origin[j], self.period[j]);
        (from * step.signum()).div_euclid(step.abs())
    }
}

/// An embedding of virtual processors (grid coordinates) into a 2-D mesh.
#[derive(Debug, Clone)]
pub struct MeshPlacement {
    /// Mesh width and height.
    pub mesh: (usize, usize),
    /// Processor-grid shape being embedded.
    pub grid: Vec<i128>,
    /// `coords[p] = (x, y)` mesh position of virtual processor `p`
    /// (row-major over the grid).
    pub coords: Vec<(usize, usize)>,
}

impl MeshPlacement {
    /// Manhattan distance between two virtual processors.
    pub fn hops(&self, p: usize, q: usize) -> usize {
        let (ax, ay) = self.coords[p];
        let (bx, by) = self.coords[q];
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Average hop distance between grid neighbours, weighted per grid
    /// dimension (weights = per-dimension boundary traffic, e.g. the
    /// spread coefficients).  Lower is better; the communication latency
    /// on the mesh is proportional to this.
    pub fn weighted_neighbor_hops(&self, weights: &[f64]) -> f64 {
        let dims = self.grid.len();
        assert_eq!(weights.len(), dims, "one weight per grid dimension");
        let mut sum = 0.0;
        let mut count = 0.0;
        let last: Vec<i128> = self.grid.iter().map(|g| g - 1).collect();
        // Processor ids are row-major: the walk visits them in order, and
        // the neighbour one step along `k` is the stride of `k` further.
        let mut p = 0;
        walk_box(&vec![0; dims], &last, &mut vec![0; dims], |gp| {
            for k in 0..dims {
                if gp[k] + 1 < self.grid[k] {
                    let q = p + self.grid[k + 1..].iter().product::<i128>() as usize;
                    sum += weights[k] * self.hops(p, q) as f64;
                    count += weights[k];
                }
            }
            p += 1;
            true
        });
        if count == 0.0 {
            0.0
        } else {
            sum / count
        }
    }
}

/// Embed an l-dimensional processor grid into a `mesh_w × mesh_h` mesh.
///
/// 1-D and 2-D grids embed directly (2-D grids must fit the mesh after
/// an optional transpose); higher-dimensional grids are linearized in
/// row-major order and laid out boustrophedon (snake) so consecutive
/// virtual processors — which share the most boundary — are mesh
/// neighbours.
///
/// Fails, with the message to show, when the mesh has fewer nodes than
/// the grid has processors.
pub fn mesh_placement(grid: &[i128], mesh: (usize, usize)) -> Result<MeshPlacement, String> {
    let total: i128 = grid.iter().product();
    if total > mesh.0 as i128 * mesh.1 as i128 {
        return Err(format!(
            "a {}x{} mesh is too small for the {total} processors of grid {grid:?}",
            mesh.0, mesh.1
        ));
    }

    // Direct 2-D embedding when the grid matches the mesh orientation.
    let active: Vec<i128> = grid.iter().copied().filter(|&g| g > 1).collect();
    if active.len() == 2 {
        let (a, b) = (active[0] as usize, active[1] as usize);
        let fits = |w: usize, h: usize| a <= w && b <= h;
        let transpose = if fits(mesh.0, mesh.1) {
            Some(false)
        } else if fits(mesh.1, mesh.0) {
            Some(true)
        } else {
            None
        };
        if let Some(t) = transpose {
            let mut it = grid.iter().enumerate().filter(|(_, &g)| g > 1);
            let (i0, _) = it.next().expect("two active dims");
            let (i1, _) = it.next().expect("two active dims");
            let mut coords = Vec::with_capacity(total as usize);
            // The grid in processor order: row-major, last dim fastest.
            let (n, last): (usize, Vec<i128>) = (grid.len(), grid.iter().map(|g| g - 1).collect());
            walk_box(&vec![0; n], &last, &mut vec![0; n], |full| {
                let (x, y) = (full[i0] as usize, full[i1] as usize);
                coords.push(if t { (y, x) } else { (x, y) });
                true
            });
            return Ok(MeshPlacement {
                mesh,
                grid: grid.to_vec(),
                coords,
            });
        }
    }

    // Snake layout of the linearized order.
    let mut coords = Vec::with_capacity(total as usize);
    for p in 0..total as usize {
        let row = p / mesh.0;
        let col = if row.is_multiple_of(2) {
            p % mesh.0
        } else {
            mesh.0 - 1 - (p % mesh.0)
        };
        coords.push((col, row));
    }
    Ok(MeshPlacement {
        mesh,
        grid: grid.to_vec(),
        coords,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_direct_2d() {
        let pl = mesh_placement(&[4, 4], (4, 4)).unwrap();
        // Grid neighbours are mesh neighbours: average weighted hops = 1.
        assert!((pl.weighted_neighbor_hops(&[1.0, 1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_transposed_2d() {
        let pl = mesh_placement(&[8, 2], (2, 8)).unwrap();
        assert!((pl.weighted_neighbor_hops(&[1.0, 1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_snake_1d() {
        let pl = mesh_placement(&[16], (4, 4)).unwrap();
        // Snake keeps consecutive processors adjacent.
        assert!((pl.weighted_neighbor_hops(&[1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_3d_grid_snakes() {
        let pl = mesh_placement(&[2, 2, 4], (4, 4)).unwrap();
        // Not all neighbours can be adjacent; hops stay bounded.
        let h = pl.weighted_neighbor_hops(&[1.0, 1.0, 1.0]);
        assert!((1.0..=4.0).contains(&h), "hops {h}");
    }

    #[test]
    fn mesh_capacity_checked() {
        let err = mesh_placement(&[8, 8], (4, 4)).unwrap_err();
        assert!(err.contains("too small"), "{err}");
        assert!(mesh_placement(&[4, 6], (4, 4)).is_err());
        assert!(mesh_placement(&[4, 6], (3, 8)).is_ok(), "24 on 24, snaked");
    }

    #[test]
    fn tiles_count_from_the_origin_in_the_period_s_direction() {
        let part = |origin, period| ArrayPartition {
            array: "B".into(),
            tile_extents: vec![],
            dims: vec![0],
            offset: IVec::new(&[0]),
            owner: vec![0],
            origin: vec![origin],
            period: vec![period],
        };
        // Forward: tiles [1, 16], [17, 32], … ; 0 lies before tile 0.
        let fwd = part(1, 16);
        let tiles: Vec<i128> = [0, 1, 16, 17, 64, 65].map(|x| fwd.tile(0, x)).to_vec();
        assert_eq!(tiles, [-1, 0, 0, 1, 3, 4]);
        // Reversed (`B[257-i]`, loop tiles of 64): [256, 193], [192, 129], …
        let rev = part(256, -64);
        let tiles: Vec<i128> = [257, 256, 193, 192, 1, 0].map(|x| rev.tile(0, x)).to_vec();
        assert_eq!(tiles, [-1, 0, 0, 1, 3, 4]);
    }
}
