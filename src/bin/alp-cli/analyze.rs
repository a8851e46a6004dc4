//! The default mode: analyze and partition a DSL program (or report a
//! saved plan), optionally printing the SPMD code and simulating the
//! machine.

use crate::args::{self, switch, Args, Command, Positional};
use crate::front;
use crate::report::{fail, fail_in, EXIT_ILLEGAL, EXIT_WARNINGS};
use alp::prelude::*;
use std::process::ExitCode;

pub const COMMAND: Command = Command {
    name: "",
    flags: &[
        args::PROCESSORS,
        args::MESH,
        args::PARAM,
        switch(&["--simulate"], "simulate the machine, report traffic"),
        switch(&["--para"], "also search parallelepiped tiles (2-D nests)"),
        args::LINE_SIZE,
        switch(&["--code"], "print the generated SPMD code"),
        switch(&["--check"], "legality analysis only (exit 0/3/4)"),
        args::NO_CHECK,
        args::FROM_PLAN,
    ],
    positional: Positional::RequiredUnless("--from-plan"),
    synopsis: "[OPTIONS] <FILE|->",
    run,
};

fn ratio_line(ratio: &[Rat]) -> String {
    let parts: Vec<String> = ratio.iter().map(ToString::to_string).collect();
    parts.join(" : ")
}

/// The `== analysis ==` block: reference classes, the optimal aspect
/// ratios, and whether a communication-free partition exists.
fn print_analysis(nest: &LoopNest) {
    println!("== analysis ==");
    for c in &classify(nest) {
        println!(
            "  class {:<3} refs {}  rank {}/{}  â = {}  a+ = {}",
            c.array,
            c.len(),
            c.g.rank(),
            c.g.rows(),
            c.spread(),
            c.cumulative_spread()
        );
    }
    let model = CostModel::from_nest(nest);
    if let Some(ratio) = optimal_aspect_ratio(&model) {
        println!("  cache aspect ratio : {}", ratio_line(&ratio));
    }
    if let Some(ratio) = aspect_ratio_with_spread(&model, SpreadKind::Cumulative) {
        println!("  data  aspect ratio : {}", ratio_line(&ratio));
    }
    let normals = communication_free_normals(nest);
    if normals.is_empty() {
        println!("  communication-free : no");
    } else {
        println!(
            "  communication-free : yes, normals {:?}",
            normals.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}

fn print_partition(result: &CompileResult) {
    println!(
        "  grid {:?}, tile λ {:?}, modeled cost {}",
        result.plan.proc_grid, result.plan.tile_extents, result.plan.cost
    );
    for ap in &result.data_partitions {
        println!(
            "  data {:<3} tile {:?} over dims {:?}, offset {}",
            ap.array, ap.tile_extents, ap.dims, ap.offset
        );
    }
}

/// A multi-phase program: one partition per phase under a common grid
/// or with redistribution, whichever is cheaper.
fn print_program(nests: &[LoopNest], processors: i128) {
    println!("program with {} phases", nests.len());
    let prog = partition_program(nests, processors);
    println!(
        "strategy: {:?} (total cost {}, alternative {}, redistribution {})",
        prog.strategy, prog.total_cost, prog.alternative_cost, prog.redistribution
    );
    for (k, phase) in prog.phases.iter().enumerate() {
        println!(
            "  phase {}: grid {:?}, tile λ {:?}, cost {}",
            k + 1,
            phase.proc_grid,
            phase.tile_extents,
            phase.cost
        );
    }
}

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let compiler = front::compiler_from(args);
    let mesh = compiler.mesh;
    let line_size = args.get_or("--line-size", 1u64);

    let result = if let Some(path) = args.get::<String>("--from-plan") {
        // Report a saved plan without re-running analysis or the
        // optimizer; the plan's own processor count and mesh apply.
        let result = Compiler::lower(front::load_plan(&path)?).map_err(fail)?;
        let plan = &result.plan;
        println!("== plan {} (P = {}) ==", plan.fingerprint, plan.processors);
        print_partition(&result);
        result
    } else {
        let (src, mut nests) = front::load_program(args)?;
        // One program-level analysis: the whole answer under --check,
        // the gate otherwise (a multi-phase program never reaches the
        // Compiler's own per-nest gate).
        let check_only = args.has("--check");
        if check_only || compiler.check {
            let report = analyze_program(&nests);
            if !check_only && report.has_errors() {
                return Err(fail_in(&src, AlpError::Illegal(report)));
            }
            eprint!("{}", report.render(&src));
            if check_only {
                return Ok(if report.has_errors() {
                    ExitCode::from(EXIT_ILLEGAL)
                } else if report.has_warnings() {
                    ExitCode::from(EXIT_WARNINGS)
                } else {
                    println!(
                        "ok: {} nest{} pass{} the doall legality analysis",
                        nests.len(),
                        front::plural(nests.len()),
                        if nests.len() == 1 { "es" } else { "" }
                    );
                    ExitCode::SUCCESS
                });
            }
        }
        if nests.len() > 1 {
            print_program(&nests, compiler.processors);
            return Ok(ExitCode::SUCCESS);
        }
        let nest = nests.remove(0);
        print_analysis(&nest);
        println!("\n== partition (P = {}) ==", compiler.processors);
        let result = compiler.unchecked().compile(nest).map_err(fail)?;
        print_partition(&result);
        if let Some(pl) = &result.placement {
            println!(
                "  mesh {:?}: avg neighbour hops {:.2}",
                pl.mesh,
                pl.weighted_neighbor_hops(&vec![1.0; result.plan.proc_grid.len()])
            );
        }
        if args.has("--para") && result.nest.depth() >= 2 {
            let para = optimize_parallelepiped(
                &result.nest,
                result.plan.processors,
                &ParaSearchConfig::default(),
            );
            println!(
                "  parallelepiped: basis rows {:?}, modeled cost {} (rect: {})",
                (0..para.basis.rows())
                    .map(|r| para.basis.row(r).0.clone())
                    .collect::<Vec<_>>(),
                para.cost,
                result.plan.cost
            );
        }
        result
    };

    if args.has("--code") {
        println!("\n== code ==\n{}", result.code);
    }
    if args.has("--simulate") {
        println!("\n== simulation ==");
        let machine = MachineConfig {
            mesh,
            line_size,
            // `run_plan` sets the processor count to the plan's processors.
            ..MachineConfig::uniform(0)
        };
        let report = run_plan(&result.plan, machine.clone(), &UniformHome).map_err(fail)?;
        front::print_traffic(&report);
        // Memory laid out by the data partitions `lower` printed, for a
        // rectangular plan on a mesh.
        let on_mesh = mesh.or(result.plan.mesh).is_some();
        if on_mesh && result.plan.transform.is_none() {
            let home = alp::aligned_home(&result.plan).map_err(fail)?;
            let aligned = run_plan(&result.plan, machine, &home).map_err(fail)?;
            println!(
                "  aligned memory  : {} remote misses / {} total, {} hops",
                aligned.total_remote_misses(),
                aligned.total_misses(),
                aligned.total_hop_traffic()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
