//! Property tests: conservation laws of the coherence protocol on random
//! partitioned nests.  The multi-processor properties drive the public
//! [`Machine`] from explicit point lists, round-robin or contiguous
//! (neither is a plan's tiling); one processor runs a plan.

use alp_linalg::IVec;
use alp_loopir::{parse, ArrayLayout, LoopNest};
use alp_machine::{run_plan, DirectoryKind, Machine, MachineConfig, TrafficReport, UniformHome};
use alp_plan::{LegalityVerdict, PartitionPlan};
use proptest::prelude::*;

/// A random small stencil nest (with a doseq wrapper half the time).
fn arb_nest() -> impl Strategy<Value = LoopNest> {
    (
        0i128..=2,     // doseq repetitions - 1 (0 = no wrapper)
        -2i128..=2,    // offset o1
        -2i128..=2,    // o2
        any::<bool>(), // second rhs ref?
    )
        .prop_map(|(reps, o1, o2, second)| {
            let body = format!(
                "A[i,j] = A[i{}{o1}, j{}{o2}]{};",
                if o1 >= 0 { "+" } else { "" },
                if o2 >= 0 { "+" } else { "" },
                if second { " + B[i,j]" } else { "" },
            );
            let inner = format!("doall (i, 2, 13) {{ doall (j, 2, 13) {{ {body} }} }}");
            let src = if reps > 0 {
                format!("doseq (t, 1, {}) {{ {inner} }}", reps + 1)
            } else {
                inner
            };
            parse(&src).expect("generated source parses")
        })
}

/// Run processor `p`'s points in the order `lists[p]` gives them, the
/// accesses interleaved one per processor per round, every outer
/// `doseq` iteration replaying the lists with warm caches.
fn run_lists(nest: &LoopNest, lists: &[Vec<IVec>], config: MachineConfig) -> TrafficReport {
    let layout = ArrayLayout::from_nest(nest).unwrap();
    let accesses = layout.accesses(nest, None).unwrap();
    let traces: Vec<Vec<(u64, bool)>> = (lists.iter())
        .map(|points| {
            let mut trace = Vec::new();
            for i in points {
                let j: Vec<i64> = i.0.iter().map(|&x| i64::try_from(x).unwrap()).collect();
                let x = j[j.len() - 1];
                accesses.for_each(&j, x, x, |element, write| trace.push((element, write)));
            }
            trace
        })
        .collect();
    let reps = nest.seq_repetitions().max(1) as u64;
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut machine = Machine::new(config, None, &UniformHome);
    for _ in 0..reps {
        for k in 0..longest {
            for (p, trace) in traces.iter().enumerate() {
                if let Some(&(element, write)) = trace.get(k) {
                    machine.access(p, element, write);
                }
            }
        }
    }
    machine.into_report(reps)
}

/// The nest on one processor: its one-tile plan, simulated.
fn run_alone(nest: &LoopNest, config: MachineConfig) -> TrafficReport {
    let plan = PartitionPlan::build(nest, 1, None, LegalityVerdict::Unchecked).unwrap();
    run_plan(&plan, config, &UniformHome).unwrap()
}

/// Split iterations across `p` processors round-robin (an adversarial,
/// locality-free assignment — good for stressing the protocol).
fn round_robin(nest: &LoopNest, p: usize) -> Vec<Vec<IVec>> {
    let mut out = vec![Vec::new(); p];
    for (k, i) in nest.iteration_points().into_iter().enumerate() {
        out[k % p].push(i);
    }
    out
}

/// Contiguous split.
fn contiguous(nest: &LoopNest, p: usize) -> Vec<Vec<IVec>> {
    let pts = nest.iteration_points();
    let chunk = pts.len().div_ceil(p);
    let mut out: Vec<Vec<IVec>> = pts.chunks(chunk).map(<[IVec]>::to_vec).collect();
    out.resize(p, Vec::new());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_bounds(nest in arb_nest(), p in 1usize..=6, rr in any::<bool>()) {
        let assignment = if rr { round_robin(&nest, p) } else { contiguous(&nest, p) };
        for dir in [
            DirectoryKind::FullMap,
            DirectoryKind::LimitedNoBroadcast { pointers: 2 },
            DirectoryKind::LimitedBroadcast { pointers: 2 },
        ] {
            let r = run_lists(&nest, &assignment, MachineConfig::uniform(p).with_directory(dir));
            // hits + misses == accesses, per processor.
            prop_assert!(r.check_conservation(), "{dir:?}");
            // Every access is either a hit or one of the three miss kinds.
            let accesses = nest.iteration_count()
                * nest.seq_repetitions()
                * nest.body.iter().map(|s| 1 + s.rhs.len()).sum::<usize>() as i128;
            prop_assert_eq!(r.total_accesses() as i128, accesses);
            // Invalidations sent == invalidations received.
            let sent: u64 = r.per_processor.iter().map(|c| c.invalidations_sent).sum();
            let recv: u64 = r.per_processor.iter().map(|c| c.invalidations_received).sum();
            prop_assert_eq!(sent, recv, "{:?}", dir);
            // With infinite caches, capacity misses are impossible.
            prop_assert_eq!(r.total_capacity_misses(), 0);
            // Full-map never overflows.
            if dir == DirectoryKind::FullMap {
                prop_assert_eq!(r.total_directory_overflows(), 0);
            }
        }
    }

    #[test]
    fn cold_misses_bounded_by_footprint_times_p(nest in arb_nest(), p in 1usize..=6) {
        let assignment = contiguous(&nest, p);
        let r = run_lists(&nest, &assignment, MachineConfig::uniform(p));
        // Each processor cold-misses each distinct element at most once.
        let total_elems: i128 = nest
            .try_array_extents()
            .unwrap()
            .values()
            .map(|e| e.iter().map(|&(lo, hi)| hi - lo + 1).product::<i128>())
            .sum();
        prop_assert!(r.total_cold_misses() as i128 <= total_elems * p as i128);
        // And at least the union of data touched (every element touched
        // once somewhere).
        prop_assert!(r.total_cold_misses() as i128 >= 1);
    }

    #[test]
    fn single_processor_never_invalidates(nest in arb_nest()) {
        let r = run_alone(&nest, MachineConfig::uniform(1));
        prop_assert_eq!(r.total_invalidations(), 0);
        prop_assert_eq!(r.total_coherence_misses(), 0);
        // Second and later repetitions hit entirely.
        let unique: u64 = r.total_cold_misses();
        prop_assert_eq!(r.total_misses(), unique);
    }

    #[test]
    fn line_size_monotonicity_single_proc(nest in arb_nest()) {
        // For one processor, larger lines can only reduce (or keep) cold
        // misses: every line fetch covers at least as many elements.
        let mut prev = u64::MAX;
        for ls in [1u64, 2, 4, 8] {
            let r = run_alone(&nest, MachineConfig::uniform(1).with_line_size(ls));
            prop_assert!(r.total_cold_misses() <= prev,
                "line {ls}: {} > previous {prev}", r.total_cold_misses());
            prev = r.total_cold_misses();
        }
    }
}
