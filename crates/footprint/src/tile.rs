//! Iteration-space tiles (Defs. 1–2, Props. 2–3).

use alp_lattice::Parallelepiped;
use alp_linalg::{walk_box, IMat, IVec};

/// A hyperparallelepiped loop tile, represented by the paper's `L` matrix
/// (Def. 2): the rows of `L` are the edge vectors of the tile at the
/// origin, so the tile's iterations are the integer points of `S(L)`
/// (Def. 7) and its volume is `|det L|` (Prop. 2).
///
/// A rectangular tile (Example 4) is the special case `L = Λ = diag(λ)`;
/// its iterations are the box `0 ≤ i_k ≤ λ_k` and their number is
/// `Π(λ_k + 1)` (Prop. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    l: IMat,
}

impl Tile {
    /// Rectangular tile with inclusive extents `λ` (side `λ_k` spans
    /// `λ_k + 1` iterations).
    ///
    /// # Panics
    /// Panics if any extent is negative.
    pub fn rect(lambda: &[i128]) -> Self {
        assert!(lambda.iter().all(|&x| x >= 0), "negative tile extent");
        Tile {
            l: IMat::diag(lambda),
        }
    }

    /// General hyperparallelepiped tile from its `L` matrix (rows = edge
    /// vectors).
    ///
    /// # Panics
    /// Panics if `l` is not square.
    pub fn general(l: IMat) -> Self {
        assert!(l.is_square(), "tile matrix must be square");
        Tile { l }
    }

    /// The `L` matrix.
    pub fn l_matrix(&self) -> &IMat {
        &self.l
    }

    /// Loop-nest depth this tile partitions.
    pub fn depth(&self) -> usize {
        self.l.rows()
    }

    /// True when `L` is diagonal (rectangular partition).
    pub fn is_rect(&self) -> bool {
        let n = self.l.rows();
        (0..n).all(|i| (0..n).all(|j| i == j || self.l[(i, j)] == 0))
    }

    /// The diagonal extents, if rectangular.
    pub fn rect_extents(&self) -> Option<Vec<i128>> {
        self.is_rect()
            .then(|| (0..self.l.rows()).map(|i| self.l[(i, i)]).collect())
    }

    /// Continuous tile volume `|det L|` (Prop. 2).
    pub fn volume(&self) -> i128 {
        self.l.det().expect("square").abs()
    }

    /// Number of iterations in the tile, counted exactly: integer points
    /// of the closed parallelepiped `S(L)` (for a rectangular tile this is
    /// `Π(λ_k + 1)`, Prop. 3).
    pub fn iteration_count_exact(&self) -> i128 {
        if let Some(ext) = self.rect_extents() {
            return ext.iter().map(|&x| x + 1).product();
        }
        Parallelepiped::new(self.l.clone()).integer_points().len() as i128
    }

    /// Enumerate the iterations of the tile at the origin.
    pub fn points(&self) -> Vec<IVec> {
        let Some(ext) = self.rect_extents() else {
            return Parallelepiped::new(self.l.clone()).integer_points();
        };
        let mut out = Vec::new();
        walk_box(&vec![0; ext.len()], &ext, &mut vec![0; ext.len()], |x| {
            out.push(IVec(x.to_vec()));
            true
        });
        out
    }

    /// The data-space parallelepiped `S(LG)` for a reference matrix `G`.
    pub fn image(&self, g: &IMat) -> Parallelepiped {
        Parallelepiped::new(self.l.mul(g).expect("depth mismatch"))
    }
}

impl std::fmt::Display for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(ext) = self.rect_extents() {
            write!(f, "rect{:?}", ext)
        } else {
            write!(f, "tile L=\n{}", self.l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_tile_basics() {
        let t = Tile::rect(&[3, 4]);
        assert!(t.is_rect());
        assert_eq!(t.rect_extents(), Some(vec![3, 4]));
        assert_eq!(t.volume(), 12);
        assert_eq!(t.iteration_count_exact(), 20); // (3+1)(4+1), Prop. 3
        assert_eq!(t.points().len(), 20);
    }

    #[test]
    fn general_tile_example6() {
        // Example 6's skewed tile L = [[L1, L1], [L2, 0]].
        let t = Tile::general(IMat::from_rows(&[&[4, 4], &[3, 0]]));
        assert!(!t.is_rect());
        assert_eq!(t.rect_extents(), None);
        assert_eq!(t.volume(), 12);
        // Exact count >= volume (boundary points included).
        assert!(t.iteration_count_exact() >= 12);
    }

    #[test]
    fn image_parallelepiped() {
        // Example 6: L = [[L1, L1],[L2, 0]], G = [[1,0],[1,1]]
        // => LG = [[2L1, L1], [L2, 0]].
        let t = Tile::general(IMat::from_rows(&[&[4, 4], &[3, 0]]));
        let g = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let img = t.image(&g);
        assert_eq!(img.matrix(), &IMat::from_rows(&[&[8, 4], &[3, 0]]));
        assert_eq!(img.volume().unwrap(), 12);
    }

    #[test]
    fn zero_extent_tile() {
        let t = Tile::rect(&[0, 5]);
        assert_eq!(t.volume(), 0);
        assert_eq!(t.iteration_count_exact(), 6);
    }

    #[test]
    #[should_panic(expected = "negative tile extent")]
    fn negative_extent_panics() {
        Tile::rect(&[-1]);
    }

    #[test]
    fn points_of_skewed_tile_are_inside() {
        let t = Tile::general(IMat::from_rows(&[&[2, 1], &[0, 3]]));
        let para = Parallelepiped::new(t.l_matrix().clone());
        for p in t.points() {
            assert!(para.contains(&p));
        }
    }
}
