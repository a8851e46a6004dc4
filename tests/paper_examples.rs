//! Integration tests: every numbered example of the paper, end to end
//! through the public facade.

mod common;

use alp::prelude::*;
use common::{grid_plan, slab_plan};

/// Simulate a plan on its own processors: infinite caches, unit lines.
fn simulate(plan: &PartitionPlan) -> TrafficReport {
    run_plan(plan, MachineConfig::uniform(0), &UniformHome).unwrap()
}

/// Example 1: `(G, ā)` extraction and zero-column elimination.
#[test]
fn example1_reference_model() {
    let nest = parse(
        "doall (i1, 0, 9) { doall (i2, 0, 9) { doall (i3, 0, 9) {
           A[i3+2, 5, i2-1, 4] = A[i3+2, 5, i2-1, 4];
         } } }",
    )
    .unwrap();
    let r = &nest.body[0].lhs;
    assert_eq!(
        *r.g_matrix(),
        IMat::from_rows(&[&[0, 0, 0, 0], &[0, 0, 1, 0], &[1, 0, 0, 0]])
    );
    assert_eq!(*r.offset(), IVec::new(&[2, 5, -1, 4]));
    let (reduced, kept) = r.drop_constant_subscripts();
    assert_eq!(kept, vec![0, 2]);
    assert_eq!(reduced.dim(), 2);
}

/// Example 2: partition a (strips) gives 104 B-misses per tile and zero
/// coherence traffic; partition b (blocks) gives 140; the optimizer and
/// the communication-free analysis both pick a.
#[test]
fn example2_end_to_end() {
    let src = "doall (i, 101, 200) { doall (j, 1, 100) {
                 A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
               } }";
    let nest = parse(src).unwrap();

    // Simulated per-tile misses match the paper's counts.
    for (grid, expected_b_misses) in [(vec![1i128, 100], 104u64), (vec![10, 10], 140)] {
        let report = simulate(&grid_plan(&nest, &grid));
        assert!(report.check_conservation());
        let per_tile = report.total_cold_misses() / 100;
        assert_eq!(per_tile - 100, expected_b_misses, "grid {grid:?}");
        assert_eq!(report.total_invalidations(), 0);
    }

    // Pipeline picks the strip partition.
    let result = Compiler::new(100).compile(nest).unwrap();
    assert_eq!(result.plan.proc_grid, vec![1, 100]);
    assert_eq!(result.plan.comm_free_normals, vec![IVec::new(&[0, 1])]);
}

/// Example 3: the parallelogram beats every rectangle, in the model and
/// in simulation.
#[test]
fn example3_parallelogram() {
    let src = "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i,j] + B[i+1,j+3];
               } }";
    let nest = parse(src).unwrap();
    let p = 16i128;
    let rect = partition_rect(&nest, p);
    let para = optimize_parallelepiped(&nest, p, &ParaSearchConfig::default());
    assert!(
        Rat::int(para.cost) < rect.cost,
        "para {} rect {}",
        para.cost,
        rect.cost
    );

    // Simulated: the plan of the slabs along the communication-free
    // normal beats the rectangle's.
    let normals = communication_free_normals(&nest);
    assert_eq!(normals.len(), 1);
    let rect_r = simulate(&grid_plan(&nest, &rect.proc_grid));
    let slab_r = simulate(&slab_plan(&nest, &normals[0], p));
    assert!(slab_r.total_cold_misses() < rect_r.total_cold_misses());
}

/// Examples 4 & 6: footprint geometry of the skewed tile.
#[test]
fn example6_footprint() {
    let nest = parse(
        "doall (i, 0, 99) { doall (j, 0, 99) {
           A[i,j] = B[i+j,j] + B[i+j+1,j+2];
         } }",
    )
    .unwrap();
    let classes = classify(&nest);
    let b = classes.iter().find(|c| c.array == "B").unwrap();
    assert_eq!(b.g, IMat::from_rows(&[&[1, 0], &[1, 1]]));
    assert_eq!(b.spread(), IVec::new(&[1, 2]));

    // L = [[L1, L1], [L2, 0]] with L1 = 5, L2 = 4:
    // |det LG| = L1*L2 = 20; exact closed count = L1L2 + L1 + L2 + 1.
    let tile = Tile::general(IMat::from_rows(&[&[5, 5], &[4, 0]]));
    assert_eq!(single_footprint_estimate(&tile, &b.g), 20);
    assert_eq!(single_footprint_exact(&tile, &b.g), 20 + 5 + 4 + 1);
}

/// Example 7: dependent columns reduce to a unimodular G'.
#[test]
fn example7_column_reduction() {
    let nest =
        parse("doall (i, 0, 9) { doall (j, 0, 9) { A[i, 2*i, i+j] = A[i, 2*i, i+j]; } }").unwrap();
    let r = &nest.body[0].lhs;
    let g = r.g_matrix();
    assert_eq!(*g, IMat::from_rows(&[&[1, 2, 1], &[0, 0, 1]]));
    let keep = alp::linalg::max_independent_columns(g);
    let g_red = g.select_columns(&keep);
    assert!(g_red.is_unimodular());
    // Footprint = tile size (Theorem 5: rows of G independent).
    let tile = Tile::rect(&[4, 6]);
    assert_eq!(single_footprint_exact(&tile, g), 5 * 7);
}

/// Example 8: aspect ratio 2:3:4, agreement with Abraham & Hudak, and
/// the Doseq coherence-traffic variant (Fig. 9).
#[test]
fn example8_end_to_end() {
    let src = "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
                 A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
               } } }";
    let nest = parse(src).unwrap();
    let model = CostModel::from_nest(&nest);
    assert_eq!(
        optimal_aspect_ratio(&model).unwrap(),
        vec![Rat::int(2), Rat::int(3), Rat::int(4)]
    );

    // Single-array variant for A&H agreement.
    let ah_nest = parse(
        "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
         } } }",
    )
    .unwrap();
    let ours = partition_rect(&ah_nest, 64);
    let ah = abraham_hudak_rect(&ah_nest, 64).unwrap();
    assert_eq!(ours.proc_grid, ah.proc_grid);

    // Fig. 9: wrapped in doseq, repeated sweeps expose coherence misses.
    let seq = parse(
        "doseq (t, 1, 3) {
           doall (i, 1, 16) { doall (j, 1, 16) { doall (k, 1, 16) {
             A[i,j,k] = A[i-1,j,k+1] + A[i,j+1,k] + A[i+1,j-2,k-3];
           } } }
         }",
    )
    .unwrap();
    let r = simulate(&grid_plan(&seq, &partition_rect(&seq, 8).proc_grid));
    assert!(
        r.total_coherence_misses() > 0,
        "repeated sweeps share tile halos"
    );
    assert!(r.check_conservation());
}

/// Example 9: both classes decompose; optimal rectangle.
#[test]
fn example9_model() {
    let src = "doall (i, 1, 100) { doall (j, 1, 100) {
                 A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3];
               } }";
    let nest = parse(src).unwrap();
    let classes = classify(&nest);
    assert_eq!(classes.len(), 3);

    // Exact enumeration adjudicates the memo's printed objective (see
    // EXPERIMENTS.md): spread terms are 4L11 + 4L22, so equal-side tiles
    // are optimal among rectangles of fixed area.
    let model = CostModel::from_nest(&nest);
    let square = model.cost_rect(&[9, 9]);
    let tall = model.cost_rect(&[4, 19]);
    let wide = model.cost_rect(&[19, 4]);
    assert!(square < tall && square < wide);

    // Cross-check with exact footprint enumeration.
    let exact = |lam: &[i128]| -> usize {
        let tile = Tile::rect(lam);
        classes
            .iter()
            .map(|c| cumulative_footprint_exact(&tile, c))
            .sum()
    };
    assert!(exact(&[9, 9]) < exact(&[4, 19]));
    assert!(exact(&[9, 9]) < exact(&[19, 4]));
}

/// Example 10: the G matrices beyond previous algorithms.
#[test]
fn example10_end_to_end() {
    let src = "doall (i, 1, 64) { doall (j, 1, 64) {
                 A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                        + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
               } }";
    let nest = parse(src).unwrap();
    let classes = classify(&nest);
    assert_eq!(classes.len(), 4, "A, B, C-pair, C-lone");

    // B: nonsingular but not unimodular G.
    let b = classes.iter().find(|c| c.array == "B").unwrap();
    assert!(b.g.is_nonsingular());
    assert!(!b.g.is_unimodular());

    // Cumulative footprints match the paper's closed forms.
    let (li, lj) = (6i128, 4i128);
    assert_eq!(
        cumulative_footprint_rect(&[li, lj], b),
        Rat::int((li + 1) * (lj + 1) + 3 * (lj + 1) + (li + 1))
    );

    // Optimal ratio 3:2 (λ_i : λ_j), i.e. traffic 3(L_j+1) + 2(L_i+1)
    // minimized — the paper's "2L_i = 3L_j + 1" optimality condition.
    let model = CostModel::from_nest(&nest);
    assert_eq!(
        optimal_aspect_ratio(&model).unwrap(),
        vec![Rat::int(3), Rat::int(2)]
    );

    // No communication-free partition exists (the case [7] cannot
    // handle), yet the optimizer still returns the best rectangle.
    assert!(!is_communication_free(&nest));
    let part = partition_rect(&nest, 16);
    assert_eq!(part.tiles(), 16);
    // Continuous optimum is 3:2; with power-of-two grids the discrete
    // choice is λ ratios {1, 4, …}, and 1 (square) beats 4.  Never worse
    // in the j direction than in i.
    assert!(part.tile_extents[0] >= part.tile_extents[1]);
    assert_eq!(part.proc_grid, vec![4, 4]);
    // With a divisor structure that can express 3:2 (P = 24 on 48x48),
    // the optimizer picks the skewed grid.
    let nest2 = parse(
        "doall (i, 1, 48) { doall (j, 1, 48) {
           A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                  + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1];
         } }",
    )
    .unwrap();
    let part2 = partition_rect(&nest2, 24);
    // grid (4, 6): tiles 12x8 — exactly 3:2.
    assert_eq!(part2.proc_grid, vec![4, 6]);
    assert_eq!(part2.tile_extents, vec![11, 7]);
}

/// Fig. 11 / Appendix A: accumulates are write-like.
#[test]
fn fig11_accumulate_semantics() {
    let nest = parse(
        "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
           l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
         } } }",
    )
    .unwrap();
    assert_eq!(nest.body[0].lhs.kind, AccessKind::Accumulate);
    assert!(nest.body[0].lhs.kind.is_write_like());

    // Splitting k shares C tiles: invalidations appear.
    let r = simulate(&grid_plan(&nest, &[1, 1, 8]));
    assert!(r.total_invalidations() > 0);

    // Splitting (i, j) keeps C private: no invalidations.
    let r = simulate(&grid_plan(&nest, &[4, 2, 1]));
    assert_eq!(r.total_invalidations(), 0);
}

/// The full pipeline runs on every paper example without error.
#[test]
fn pipeline_smoke_all_examples() {
    let sources = [
        "doall (i, 101, 200) { doall (j, 1, 100) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
        "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j+3]; } }",
        "doall (i, 0, 99) { doall (j, 0, 99) { A[i,j] = B[i+j,j] + B[i+j+1,j+2]; } }",
        "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
           A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
        "doall (i, 1, 64) { doall (j, 1, 64) {
           A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3]; } }",
        "doall (i, 1, 64) { doall (j, 1, 64) {
           A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                  + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } }",
        "doall (i, 1, 16) { doall (j, 1, 16) { doall (k, 1, 16) {
           l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]; } } }",
    ];
    for src in sources {
        let result = Compiler::new(16)
            .with_mesh(4, 4)
            .compile(parse(src).unwrap())
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(result.plan.tiles(), 16, "{src}");
        let report = run_plan(&result.plan, MachineConfig::uniform(0), &UniformHome).unwrap();
        assert!(report.check_conservation(), "{src}");
        assert!(report.total_accesses() > 0, "{src}");
        assert!(!result.code.is_empty());
    }
}

/// The §4 data partitions `lower` emits for the paper's examples on 16
/// processors (4x4 mesh).  An array whose every column follows one loop
/// index of its own keeps the same tile extents, dimensions and median
/// offset it always had; a mixed (`B[i+j, …]`) or repeated-index
/// (`C[i, 2*i, …]`) column is not distributed.
#[test]
fn aligned_data_partitions_on_the_paper_examples() {
    /// Array, tile extents, distributed dimensions, offset.
    type Partition<'a> = (&'a str, &'a [i128], &'a [usize], &'a [i128]);
    let examples: [(&str, &[Partition]); 5] = [
        (
            "doall (i, 101, 200) { doall (j, 1, 100) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
            &[("A", &[24, 24], &[0, 1], &[0, 0]), ("B", &[], &[], &[4, 3])],
        ),
        (
            "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j+3]; } }",
            &[
                ("A", &[7, 31], &[0, 1], &[0, 0]),
                ("B", &[7, 31], &[0, 1], &[1, 3]),
            ],
        ),
        (
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
            &[
                ("A", &[15, 31, 31], &[0, 1, 2], &[0, 0, 0]),
                ("B", &[15, 31, 31], &[0, 1, 2], &[0, 0, 0]),
            ],
        ),
        (
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } }",
            &[
                ("A", &[15, 15], &[0, 1], &[0, 0]),
                ("B", &[], &[], &[4, 2]),
                ("C", &[15], &[0], &[0, 0, 1]),
            ],
        ),
        (
            "doseq (t, 1, 4) { doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1]; } } }",
            &[("A", &[15, 15], &[0, 1], &[0, 0])],
        ),
    ];
    for (src, want) in examples {
        let result = Compiler::new(16)
            .with_mesh(4, 4)
            .unchecked()
            .compile(parse(src).unwrap())
            .unwrap();
        let got: Vec<_> = (result.data_partitions.iter())
            .map(|p| {
                (
                    p.array.as_str(),
                    &p.tile_extents[..],
                    &p.dims[..],
                    &p.offset.0[..],
                )
            })
            .collect();
        assert_eq!(got, want, "{src}");
    }
}
