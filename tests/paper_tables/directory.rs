//! E16 (extension): limited directories — the design point the Alewife
//! machine's LimitLESS directory addresses.  The paper's framework
//! minimizes the *number* of shared boundary elements; how much each
//! shared element costs depends on the directory.  Here: full-map vs
//! Dir_i-NB (pointer eviction) vs Dir_i-B (broadcast) on a widely-read
//! boundary.

use crate::{grid_plan, header, simulate, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E16",
        "directory organization under wide read-sharing",
    );
    // A broadcast-heavy kernel: every processor reads row 0 of B (a
    // shared coefficient row) each sweep, then updates its own tile.
    let src = "doseq (t, 1, 4) {
                 doall (i, 0, 31) { doall (j, 0, 31) {
                   A[i,j] = A[i,j] + B[0,j];
                 } }
               }";
    let nest = parse(src).unwrap();
    let p = 16usize;
    // Split i only: all 16 processors share every B[0,j] element.
    let plan = grid_plan(&nest, &[16, 1]);

    let t = Table::new(
        &mut out,
        &[
            ("directory", 22),
            ("misses", 8),
            ("coherence", 9),
            ("invalidations", 13),
            ("overflows", 9),
        ],
    );
    let mut results = Vec::new();
    for (name, dir) in [
        ("full-map", DirectoryKind::FullMap),
        (
            "Dir4-NB (evict)",
            DirectoryKind::LimitedNoBroadcast { pointers: 4 },
        ),
        (
            "Dir4-B (broadcast)",
            DirectoryKind::LimitedBroadcast { pointers: 4 },
        ),
        (
            "Dir1-NB (evict)",
            DirectoryKind::LimitedNoBroadcast { pointers: 1 },
        ),
    ] {
        let report = simulate(
            &plan,
            MachineConfig::uniform(p).with_directory(dir),
            &UniformHome,
        );
        assert!(report.check_conservation());
        t.row(
            &mut out,
            &[
                &name,
                &report.total_misses(),
                &report.total_coherence_misses(),
                &report.total_invalidations(),
                &report.total_directory_overflows(),
            ],
        );
        results.push((name, report));
    }
    let full = &results[0].1;
    let nb4 = &results[1].1;
    let b4 = &results[2].1;
    let nb1 = &results[3].1;
    assert_eq!(full.total_directory_overflows(), 0);
    assert!(nb4.total_directory_overflows() > 0);
    assert!(
        nb1.total_misses() >= nb4.total_misses(),
        "fewer pointers, more thrash"
    );
    assert!(
        nb4.total_misses() > full.total_misses(),
        "pointer eviction must cost misses on 16-way read sharing"
    );
    assert!(
        b4.total_misses() <= nb4.total_misses(),
        "broadcast never evicts readers of a read-only line"
    );
    outln!(
        out,
        "\n16 readers per line of B[0,*]: with 4 pointers, eviction (NB) thrashes\n\
         ({} misses vs {} full-map); the broadcast variant keeps readers cached\n\
         ({} misses) at the cost of imprecise invalidations — the trade-off\n\
         LimitLESS resolves in software.  The loop partitioner's job is to\n\
         make such widely-shared data rare in the first place.",
        nb4.total_misses(),
        full.total_misses(),
        b4.total_misses()
    );

    // And the partitioner indeed avoids it: splitting j gives each
    // processor a private slice of B[0,*].
    outln!(out, "\nwith the optimizer's grid (splits j too):");
    let part = partition_rect(&nest, p as i128);
    let opt_plan = grid_plan(&nest, &part.proc_grid);
    let t = Table::new(
        &mut out,
        &[("directory", 22), ("misses", 8), ("overflows", 9)],
    );
    for (name, dir) in [
        ("full-map", DirectoryKind::FullMap),
        (
            "Dir4-NB (evict)",
            DirectoryKind::LimitedNoBroadcast { pointers: 4 },
        ),
    ] {
        let report = simulate(
            &opt_plan,
            MachineConfig::uniform(p).with_directory(dir),
            &UniformHome,
        );
        t.row(
            &mut out,
            &[
                &name,
                &report.total_misses(),
                &report.total_directory_overflows(),
            ],
        );
    }
    outln!(
        out,
        "\ngrid {:?}: B[0,*] sharing drops to the j-boundary only.",
        part.proc_grid
    );
    out
}
