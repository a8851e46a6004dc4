//! Data partitioning, alignment and placement (§4's other two compiler
//! phases).
//!
//! * **Data partitioning & alignment** — arrays are tiled with the same
//!   aspect ratio as the loop tiles that touch them, aligned so that the
//!   tile a processor's iterations mostly reference is the tile stored in
//!   its local memory module.  The alignment offset per class is the
//!   component-wise median of the offsets — the minimizer of the
//!   cumulative spread `a⁺` (footnote 2).
//! * **Placement** — virtual processors (grid coordinates) are embedded
//!   in Alewife's 2-D mesh; neighbouring tiles exchange boundary data,
//!   so the embedding should keep grid neighbours at small hop distance.

use alp_footprint::classify;
use alp_linalg::{max_independent_columns, walk_box, IVec};
use alp_loopir::LoopNest;
use std::collections::HashMap;

/// The data-space tiling chosen for one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPartition {
    /// Array name.
    pub array: String,
    /// Extents of one data tile per (kept) array dimension.
    pub tile_extents: Vec<i128>,
    /// Which array dimensions the extents apply to (others are
    /// replicated/sequential — constant subscripts).
    pub dims: Vec<usize>,
    /// Alignment offset added before tiling: data element `x` goes to the
    /// tile of `x − offset`.
    pub offset: IVec,
}

/// Derive aligned data partitions from a rectangular loop partition
/// (tile extents `lambda`, one loop tile per processor).
///
/// For each array we use its *first* uniformly intersecting class (the
/// one carrying most reuse) to map the loop tile into the data space:
/// dimension `k` of the array gets extent `Σ_r λ_r·|G_{r,k}|` (the image
/// of the loop tile edge lengths), and the alignment offset is the
/// median member offset.
pub fn align_arrays(nest: &LoopNest, lambda: &[i128]) -> Vec<ArrayPartition> {
    let mut seen: HashMap<String, ArrayPartition> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for class in classify(nest) {
        if seen.contains_key(&class.array) {
            continue;
        }
        let keep = max_independent_columns(&class.g);
        let d = class.g.cols();
        // Image extents: loop tile edge r has length λ_r along iteration
        // axis r; its data-space image along array dim k is λ_r·|G_{r,k}|.
        let extents: Vec<i128> = keep
            .iter()
            .map(|&k| {
                (0..class.g.rows())
                    .map(|r| lambda[r].abs() * class.g[(r, k)].abs())
                    .sum()
            })
            .collect();
        // Median offset per dimension (minimizes a⁺).
        let offset = IVec(
            (0..d)
                .map(|k| {
                    let mut col: Vec<i128> = class.offsets.iter().map(|a| a[k]).collect();
                    col.sort_unstable();
                    col[col.len() / 2]
                })
                .collect(),
        );
        order.push(class.array.clone());
        seen.insert(
            class.array.clone(),
            ArrayPartition {
                array: class.array.clone(),
                tile_extents: extents,
                dims: keep,
                offset,
            },
        );
    }
    order
        .into_iter()
        .map(|a| seen.remove(&a).expect("inserted"))
        .collect()
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
        walk_box(&vec![0; dims], &last, &mut vec![0; dims], |gp| {
            let p = self.linear(gp);
            for k in 0..dims {
                if (gp[k] + 1) < self.grid[k] {
                    let mut gq = gp.to_vec();
                    gq[k] += 1;
                    let q = self.linear(&gq);
                    sum += weights[k] * self.hops(p, q) as f64;
                    count += weights[k];
                }
            }
            true
        });
        if count == 0.0 {
            0.0
        } else {
            sum / count
        }
    }

    /// Grid coordinates of virtual processor `p` (row-major).
    pub fn grid_coords(&self, p: usize) -> Vec<i128> {
        let mut rem = p as i128;
        let mut out = vec![0i128; self.grid.len()];
        for k in (0..self.grid.len()).rev() {
            out[k] = rem % self.grid[k];
            rem /= self.grid[k];
        }
        out
    }

    /// Linear id of grid coordinates.
    pub fn linear(&self, g: &[i128]) -> usize {
        let mut p = 0i128;
        for (k, &gk) in g.iter().enumerate() {
            p = p * self.grid[k] + gk;
        }
        p as usize
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
    use alp_loopir::parse;

    #[test]
    fn align_stencil() {
        let nest = parse(
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
             } }",
        )
        .unwrap();
        let parts = align_arrays(&nest, &[7, 15]);
        assert_eq!(parts.len(), 1);
        let a = &parts[0];
        assert_eq!(
            a.tile_extents,
            vec![7, 15],
            "same aspect ratio as loop tiles"
        );
        assert_eq!(
            a.offset,
            IVec::new(&[0, 0]),
            "median of {{-1,0,0,0,1}} per dim"
        );
    }

    #[test]
    fn align_skewed_reference() {
        // B[i+j, j]: loop tile (λi, λj) images to (λi+λj, λj).
        let nest = parse("doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i+j,j]; } }").unwrap();
        let parts = align_arrays(&nest, &[8, 4]);
        let b = parts.iter().find(|p| p.array == "B").unwrap();
        assert_eq!(b.tile_extents, vec![12, 4]);
    }

    #[test]
    fn align_offset_median() {
        let nest = parse("doall (i, 1, 64) { A[i] = A[i+4] + A[i+6]; }").unwrap();
        let parts = align_arrays(&nest, &[15]);
        assert_eq!(parts[0].offset, IVec::new(&[4]), "median of 0,4,6");
    }

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
    fn grid_coords_roundtrip() {
        let pl = mesh_placement(&[3, 4], (4, 4)).unwrap();
        for p in 0..12usize {
            assert_eq!(pl.linear(&pl.grid_coords(p)), p);
        }
    }
}
