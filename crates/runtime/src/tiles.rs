//! Tiles for the executor.
//!
//! The rectangular enumerator lives in [`alp_plan::tiles`] — the single
//! implementation shared with `alp-codegen`'s `assign_rect` and the
//! machine simulator, so tile `t` here encloses precisely the iterations
//! every other layer gives processor `t`.  This module re-exports it.

pub use alp_plan::{rect_tiles, IterBox};

#[cfg(test)]
mod tests {
    use super::*;
    use alp_codegen::assign_rect;
    use alp_linalg::IVec;
    use alp_loopir::parse;

    #[test]
    fn tiles_mirror_assign_rect() {
        // 7×5 space on a 2×3 grid: boundary tiles shrink, numbering
        // must match assign_rect's processor numbering exactly.  Both
        // sides now derive from alp_plan::rect_tiles, so this pins the
        // conversion paths, not two parallel implementations.
        let nest = parse("doall (i, 0, 6) { doall (j, 10, 14) { A[i, j] = A[i, j]; } }").unwrap();
        let grid = [2i128, 3];
        let assignment = assign_rect(&nest, &grid);
        let (tiles, chunks) = rect_tiles(&nest, &grid).unwrap();
        assert_eq!(chunks, vec![4, 2]);
        assert_eq!(tiles.len(), assignment.len());
        for (tile, pts) in tiles.iter().zip(&assignment) {
            let mut mine: Vec<IVec> = Vec::new();
            tile.for_each_point(|i| {
                mine.push(IVec(i.iter().map(|&x| x as i128).collect()));
            });
            assert_eq!(&mine, pts);
        }
    }

    #[test]
    fn empty_boundary_tiles_preserved() {
        // 3 iterations on 4 processors: chunk 1, tile 3 is empty.
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        let (tiles, _) = rect_tiles(&nest, &[4]).unwrap();
        assert_eq!(tiles.len(), 4);
        assert!(tiles[3].is_empty());
        let total: u64 = tiles.iter().map(IterBox::volume).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn grid_dim_mismatch_rejected() {
        let nest = parse("doall (i, 0, 2) { A[i] = A[i]; }").unwrap();
        assert!(rect_tiles(&nest, &[2, 2]).is_err());
        assert!(rect_tiles(&nest, &[0]).is_err());
    }
}
