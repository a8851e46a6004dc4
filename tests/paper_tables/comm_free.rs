//! E10: communication-free partitions (Ramanujam & Sadayappan) —
//! whenever their conditions hold, the framework finds a zero-coherence
//! partition; when they don't, it still returns a traffic-minimal one.

use crate::{grid_plan, header, simulate, slab_plan, Table};
use alp::prelude::*;

pub fn run() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "E10",
        "communication-free partitions (R&S [7]) and beyond",
    );
    let cases: Vec<(&str, &str, bool)> = vec![
        (
            "Example 2 (diagonal refs)",
            "doall (i, 101, 200) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
            true,
        ),
        (
            "Example 3 (skew translation)",
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i,j] + B[i+1,j+3]; } }",
            true,
        ),
        (
            "1-D wave (t = (1,1))",
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i+1,j+1] + B[i,j] + B[i+2,j+2]; } }",
            true,
        ),
        (
            "full 2-D stencil",
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = A[i+1,j] + A[i,j+1]; } }",
            false,
        ),
        (
            "Example 10",
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } }",
            false,
        ),
    ];

    let t = Table::new(
        &mut out,
        &[
            ("nest", 28),
            ("comm-free?", 10),
            ("paper/R&S", 9),
            ("normals", 16),
            ("sim coherence", 13),
            ("sim invalid.", 12),
        ],
    );
    for (name, src, expected) in cases {
        let nest = parse(src).unwrap();
        let normals = communication_free_normals(&nest);
        let found = !normals.is_empty();
        assert_eq!(found, expected, "{name}");

        // Simulate: comm-free cases as the plan of the slabs along the
        // first normal; others as the optimizer's rectangle.  Wrap in 2
        // repetitions so coherence traffic (if any) is visible.
        let wrapped = parse(&format!("doseq (t, 1, 2) {{ {src} }}")).unwrap();
        let p = 8i128;
        let plan = if found {
            slab_plan(&wrapped, &normals[0], p)
        } else {
            grid_plan(&wrapped, &partition_rect(&wrapped, p).proc_grid)
        };
        let report = simulate(&plan, MachineConfig::uniform(p as usize), &UniformHome);
        if found {
            assert_eq!(
                report.total_coherence_misses(),
                0,
                "{name} should be coherence-free"
            );
            assert_eq!(report.total_invalidations(), 0, "{name}");
        }
        t.row(
            &mut out,
            &[
                &name,
                &found,
                &expected,
                &format!(
                    "{:?}",
                    normals.iter().map(|h| h.to_string()).collect::<Vec<_>>()
                ),
                &report.total_coherence_misses(),
                &report.total_invalidations(),
            ],
        );
    }
    outln!(out, "\ncomm-free cases simulate to exactly zero coherence traffic;\nnon-comm-free cases still get the traffic-minimal rectangle (the case\n[7] does not handle — §5).");
    out
}
