//! The one walk over a coordinate box.
//!
//! Most of the paper's exact quantities are counts over an inclusive
//! box of integer coordinates: the `Π(λ_k + 1)` points of a rectangular
//! tile (Prop. 3), the coefficient box `0 ≤ l_i ≤ λ_i` of a bounded
//! lattice (Def. 9), the bounding box of `S(Q)` (Def. 7), a processor
//! grid.  [`walk_box`] is the only loop in the workspace that steps
//! through one.

use std::ops::AddAssign;

/// Visit every point of the inclusive box `lo..=hi` in lexicographic
/// order, last index fastest, until `f` returns `false`.  Returns `true`
/// when every point was visited (a box with some `lo > hi` has none),
/// `false` when `f` stopped the walk.
///
/// Each point is written into `point[..lo.len()]`, a scratch point the
/// caller owns, and `f` receives the whole of `point`: the entries past
/// the walked dimensions are never touched, so `f` may use them (a row
/// walk fills in the innermost index there).  `f` must leave the walked
/// entries as it found them.  A box of dimension 0 has one point, the
/// empty one.
///
/// # Panics
/// Panics if `hi` and `lo` differ in length or `point` is shorter.
pub fn walk_box<T>(lo: &[T], hi: &[T], point: &mut [T], mut f: impl FnMut(&mut [T]) -> bool) -> bool
where
    T: Copy + PartialOrd + AddAssign + From<u8>,
{
    let d = lo.len();
    assert_eq!(hi.len(), d, "box corners differ in dimension");
    assert!(point.len() >= d, "scratch point shorter than the box");
    if lo.iter().zip(hi).any(|(l, h)| l > h) {
        return true;
    }
    point[..d].copy_from_slice(lo);
    loop {
        if !f(point) {
            return false;
        }
        // The last index still below its bound steps, and every index
        // after it restarts; comparing before stepping never overflows.
        // An element loop, not `copy_from_slice`: the restart is empty
        // on most steps, and a `memcpy` call per point made
        // `LoopNest::iteration_points` 7 % slower (2-vCPU x86-64 host).
        let Some(k) = (0..d).rev().find(|&k| point[k] < hi[k]) else {
            return true;
        };
        point[k] += T::from(1);
        (point[k + 1..d].iter_mut().zip(&lo[k + 1..])).for_each(|(x, &l)| *x = l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The box's points by definition: nested ranges, outermost first.
    fn nested(dims: &[(i64, i64)]) -> Vec<Vec<i64>> {
        dims.iter().fold(vec![vec![]], |points, &(lo, hi)| {
            (points.into_iter())
                .flat_map(|p| (lo..=hi).map(move |x| [&p[..], &[x]].concat()))
                .collect()
        })
    }

    /// Walk `dims` in `T`, with `pad` sentinel entries past the box, and
    /// stop after `stop` points: the points seen, whether the walk
    /// finished, and the sentinels as the walk left them.
    fn walk_as<T>(dims: &[(i64, i64)], pad: usize, stop: usize) -> (Vec<Vec<i64>>, bool, Vec<T>)
    where
        T: Copy + PartialOrd + AddAssign + From<u8> + From<i32> + Into<i128>,
    {
        let narrow = |x: i64| T::from(i32::try_from(x).expect("small test coordinate"));
        let lo: Vec<T> = dims.iter().map(|&(l, _)| narrow(l)).collect();
        let hi: Vec<T> = dims.iter().map(|&(_, h)| narrow(h)).collect();
        let mut point = vec![narrow(-99); dims.len() + pad];
        let mut seen = Vec::new();
        let finished = walk_box(&lo, &hi, &mut point, |p| {
            let walked = p[..dims.len()].iter().map(|&x| x.into() as i64);
            seen.push(walked.collect());
            seen.len() < stop
        });
        let tail = point[dims.len()..].to_vec();
        (seen, finished, tail)
    }

    #[test]
    fn the_last_value_of_the_type_is_a_bound_not_an_overflow() {
        let mut seen = Vec::new();
        let lo = [i64::MAX - 1, i64::MAX - 1];
        assert!(walk_box(&lo, &[i64::MAX; 2], &mut [0; 2], |p| {
            seen.push(p.to_vec());
            true
        }));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[3], [i64::MAX; 2]);
    }

    proptest! {
        /// Against nested ranges, in `i64` and `i128`: depth 0–4, empty,
        /// single-point and negative dimensions, the exact number of
        /// points visited before a stop, and the scratch entries past
        /// the walked prefix left alone.
        #[test]
        fn walk_is_the_nested_ranges(
            dims in proptest::collection::vec((-3i64..=3, -1i64..=3), 0..=4),
            pad in 0usize..=2,
            stop in 1usize..=80,
        ) {
            let dims: Vec<(i64, i64)> = dims.iter().map(|&(lo, n)| (lo, lo + n - 1)).collect();
            let want = nested(&dims);
            let finished = want.len() < stop;
            let visited = want.len().min(stop);

            let (seen, done, tail) = walk_as::<i64>(&dims, pad, stop);
            prop_assert_eq!(&seen[..], &want[..visited]);
            prop_assert_eq!(done, finished);
            prop_assert!(tail.iter().all(|&x| x == -99));

            let (seen, done, tail) = walk_as::<i128>(&dims, pad, stop);
            prop_assert_eq!(&seen[..], &want[..visited]);
            prop_assert_eq!(done, finished);
            prop_assert!(tail.iter().all(|&x| x == -99));
        }
    }
}
