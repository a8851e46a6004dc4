//! E12: §4 / Fig. 10 — the full pipeline on distributed memory: data
//! alignment turns remote misses into local ones, and mesh placement
//! keeps the halo exchange short.

use crate::{header, pct, Table};
use alp::machine::{FnHome, HomeMap};
use alp::prelude::*;
use std::collections::{HashMap, HashSet};

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E12",
        "data partitioning, alignment and placement (§4)",
    );
    let src = "doseq (t, 1, 4) {
                 doall (i, 1, 64) { doall (j, 1, 64) {
                   A[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1];
                 } }
               }";
    // The in-place relaxation races across iterations; the paper
    // partitions it anyway (convergence tolerates stale reads).
    let compiler = Compiler::new(16).with_mesh(4, 4).unchecked();
    let lowered = compiler.compile(parse(src).unwrap()).unwrap();
    let (nest, plan) = (&lowered.nest, &lowered.plan);
    outln!(
        out,
        "loop partition: grid {:?}, tile λ {:?}",
        plan.proc_grid,
        plan.tile_extents
    );
    for ap in &lowered.data_partitions {
        outln!(
            out,
            "data partition: {} tile {:?} over dims {:?}, origin {:?}, period {:?}",
            ap.array,
            ap.tile_extents,
            ap.dims,
            ap.origin,
            ap.period
        );
    }
    outln!(out);

    // Three data layouts: block row-major (naive), aligned (what
    // `lower` emits, §4), and a deliberately scrambled layout (worst
    // case).  Infinite caches, unit lines, the plan's 4x4 mesh.
    let simulate = |home: &dyn HomeMap| run_plan(plan, MachineConfig::uniform(0), home).unwrap();
    let layout = ArrayLayout::from_nest(nest).expect("arrays fit");
    let r_block = simulate(&BlockRowMajorHome::new(16, layout.total_lines()));
    let r_aligned = simulate(&alp::aligned_home(plan).unwrap());
    let r_scrambled = simulate(&FnHome(move |line: u64| ((line * 7 + 3) % 16) as usize));

    let t = Table::new(
        &mut out,
        &[
            ("data layout", 18),
            ("misses", 8),
            ("remote", 8),
            ("remote frac", 11),
            ("hop traffic", 11),
        ],
    );
    for (name, r) in [
        ("scrambled", &r_scrambled),
        ("block row-major", &r_block),
        ("aligned (ours)", &r_aligned),
    ] {
        t.row(
            &mut out,
            &[
                &name,
                &r.total_misses(),
                &r.total_remote_misses(),
                &pct(r.total_remote_misses(), r.total_misses()),
                &r.total_hop_traffic(),
            ],
        );
    }
    assert!(r_aligned.total_remote_misses() < r_block.total_remote_misses());
    assert!(r_block.total_remote_misses() < r_scrambled.total_remote_misses());

    // The halo, counted from the tiles alone: each sweep, a tile re-reads
    // every element a neighbouring tile wrote since.
    let tiles = plan.tiling(nest).unwrap().assignment();
    let stmt = &nest.body[0];
    let mut writer = HashMap::new();
    for (t, points) in tiles.iter().enumerate() {
        for i in points {
            writer.insert(stmt.lhs.eval(i), t);
        }
    }
    let halo_per_sweep: usize = (tiles.iter().enumerate())
        .map(|(t, points)| {
            let foreign = |x: &IVec| writer.get(x).is_some_and(|&w| w != t);
            let reads = points
                .iter()
                .flat_map(|i| stmt.rhs.iter().map(|r| r.eval(i)));
            reads.filter(foreign).collect::<HashSet<_>>().len()
        })
        .sum();
    let halo = halo_per_sweep as u64 * nest.seq_repetitions() as u64;
    assert_eq!(r_aligned.total_remote_misses(), halo);

    // Placement ablation: snake vs direct embedding of the grid.
    outln!(
        out,
        "\nplacement: average weighted neighbour hops on a 4x4 mesh"
    );
    let weights = vec![1.0, 1.0];
    let direct = lowered.placement.as_ref().expect("the plan has a mesh");
    outln!(
        out,
        "  grid-aware embedding: {:.2}",
        direct.weighted_neighbor_hops(&weights)
    );
    outln!(out,
        "\nalignment reduces remote misses {} -> {} ({} of misses stay local);\nthe remote misses are the halo, {} boundary reads in each of {} sweeps.",
        r_block.total_remote_misses(),
        r_aligned.total_remote_misses(),
        pct(
            r_aligned.total_misses() - r_aligned.total_remote_misses(),
            r_aligned.total_misses()
        ),
        halo_per_sweep,
        nest.seq_repetitions()
    );
    out
}
