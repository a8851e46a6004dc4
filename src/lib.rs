//! # `alp` — Automatic Loop Partitioning for Cache-Coherent Multiprocessors
//!
//! A Rust implementation of the loop- and data-partitioning framework of
//! Agarwal, Kranz & Natarajan, *Automatic Partitioning of Parallel Loops
//! for Cache-Coherent Multiprocessors* (ICPP 1993 / MIT-LCS-TM-481).
//!
//! Given a `doall` loop nest whose array subscripts are affine in the
//! loop indices, the framework chooses the iteration-space tile shape
//! that minimizes the data each processor touches — and therefore the
//! cache-miss and coherence traffic on a cache-coherent shared-memory
//! machine.
//!
//! ```
//! use alp::prelude::*;
//!
//! // Example 8 of the paper: a 3-D stencil.
//! let nest = alp::loopir::parse(
//!     "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
//!        A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
//!      } } }",
//! ).unwrap();
//!
//! // The paper's headline result: tiles in proportion 2 : 3 : 4.
//! let model = CostModel::from_nest(&nest);
//! let ratio = optimal_aspect_ratio(&model).unwrap();
//! assert_eq!(ratio, vec![Rat::int(2), Rat::int(3), Rat::int(4)]);
//!
//! // End-to-end: partition for 64 processors, then lower the plan to
//! // data partitions, placement and SPMD code.
//! let result = Compiler::new(64).compile(nest).unwrap();
//! assert_eq!(result.plan.tiles(), 64);
//! ```
//!
//! [`Compiler`] is the §4 pipeline split at its one decision: the front
//! half ([`Compiler::plan`]) chooses a [`PartitionPlan`], and everything
//! after it — [`Compiler::lower`], [`Compiler::execute`], the simulator's
//! [`run_plan`](alp_machine::run_plan) — is a function of the plan alone.
//!
//! The workspace crates, re-exported here:
//!
//! * [`linalg`] — exact integer/rational matrices, HNF/SNF, nullspaces;
//! * [`analysis`] — exact doall legality & race detection with
//!   witness iterations and rustc-style diagnostics;
//! * [`lattice`] — bounded lattices (Thm. 3, Lemma 3), parallelepiped
//!   point counting;
//! * [`loopir`] — the loop-nest IR and `doall` DSL;
//! * [`footprint`] — uniformly intersecting classes, footprint sizes,
//!   cumulative footprints (Thms. 2 & 4), the cost model;
//! * [`partition`] — rectangular/parallelepiped optimizers,
//!   communication-free partitions, Abraham–Hudak baseline, data
//!   alignment, mesh placement;
//! * [`plan`] — the [`PartitionPlan`] artifact: stable nest
//!   fingerprints, the single tile enumerator
//!   ([`Tiling`](alp_plan::Tiling), rectangular and skewed plans
//!   alike), a versioned JSON schema, and the memoizing
//!   [`ShardedPlanCache`](alp_plan::ShardedPlanCache);
//! * [`machine`] — a deterministic cache-coherent multiprocessor
//!   simulator (full-map MSI directory);
//! * [`codegen`] — iteration assignment and per-processor code emission;
//! * [`runtime`] — a native multithreaded executor that actually runs
//!   partitioned nests on OS threads, with per-thread footprint metrics
//!   validated against the model and the simulator;
//! * [`serve`] — the pipeline as a long-running service: a Unix-socket
//!   daemon over a sharded, request-coalescing plan cache with bounded
//!   admission and `ALP0012` load shedding.

pub use alp_analysis as analysis;
pub use alp_calibrate as calibrate;
pub use alp_certify as certify;
pub use alp_codegen as codegen;
pub use alp_footprint as footprint;
pub use alp_lattice as lattice;
pub use alp_linalg as linalg;
pub use alp_loopir as loopir;
pub use alp_machine as machine;
pub use alp_partition as partition;
pub use alp_plan as plan;
pub use alp_runtime as runtime;
pub use alp_serve as serve;

use alp_loopir::{IrError, LoopNest, ParseError};
use alp_machine::ArrayLayout;
use alp_partition::{align_arrays, mesh_placement, ArrayPartition, MeshPlacement};
use alp_plan::{LegalityVerdict, PartitionPlan, PlanError, PlanKey};
use std::sync::Arc;

/// Things that can go wrong in the pipeline.
///
/// Every variant has a stable machine-readable code ([`AlpError::code`])
/// and chains to its underlying cause through
/// [`std::error::Error::source`]; wrapped parse/IR errors keep their
/// source spans intact.  `Clone`, so a
/// [`ShardedPlanCache<AlpError>`](alp_plan::ShardedPlanCache) can hand
/// one failed plan to every caller that waited on it.
#[derive(Debug, Clone)]
pub enum AlpError {
    /// DSL parse failure (`ALP0001`).
    Parse(ParseError),
    /// IR validation failure (`ALP0002`).
    Ir(IrError),
    /// The nest is not a legal doall (`ALP0003`): the legality analysis
    /// found races (or other errors).  The report carries the full
    /// diagnostics; [`Compiler::unchecked`] opts out of the gate.
    Illegal(alp_analysis::Report),
    /// The nest cannot be partitioned as requested (`ALP0004`).
    Infeasible(String),
    /// The nest cannot be lowered for native execution (`ALP0005`), or a
    /// run was stopped by the hardened executor: `ALP0007` for a missed
    /// deadline or caller cancellation, `ALP0008` for a contained tile
    /// fault, `ALP0009` for an exceeded memory budget.  A plan the
    /// executor cannot interpret (`RuntimeError::BadPlan`) keeps the
    /// plan error's own code.
    Runtime(alp_runtime::RuntimeError),
    /// A saved partition plan could not be decoded or no longer matches
    /// its embedded source (`ALP0006`).  Structural transform damage
    /// ([`PlanError::Transform`]: non-unimodular matrix, det ≠ ±1,
    /// wrong rank, stale fingerprint) reports `ALP0013` instead.
    Plan(PlanError),
    /// A plan certificate is missing, stale, or disagrees with fresh
    /// recomputation (`ALP0011`).  Structural certificate damage caught
    /// at decode time ([`PlanError::Certificate`]) reports the same
    /// code.
    Certify(alp_certify::CertifyError),
    /// The plan service shed this request under load (`ALP0012`): its
    /// bounded admission queue was beyond the shedding threshold for
    /// this request class.  Retrying later is always safe — nothing was
    /// compiled or executed.
    Overloaded {
        /// Queue depth observed at admission time.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
}

impl AlpError {
    /// The stable error code: `ALP0001` parse, `ALP0002` IR, `ALP0003`
    /// illegal doall, `ALP0004` infeasible, `ALP0005` runtime lowering,
    /// `ALP0006` plan artifact, `ALP0007` deadline exceeded / run
    /// cancelled, `ALP0008` contained tile fault, `ALP0009` memory
    /// budget exceeded, `ALP0011` certificate missing / stale / tampered, `ALP0012`
    /// request shed by an overloaded plan service, `ALP0013` plan
    /// transform invalid (non-unimodular, wrong rank, or stale
    /// fingerprint).
    /// `ALP0010` (calibration artifact) is retired with the calibrated
    /// planner and never reused.  Codes never change meaning across
    /// releases; new variants get new codes.  Each wrapped error type
    /// owns its part of the table (`PlanError::code`,
    /// `RuntimeError::code`, `CertifyError::code`), and the plan service
    /// answers with the same methods.
    pub fn code(&self) -> &'static str {
        match self {
            AlpError::Parse(_) => "ALP0001",
            AlpError::Ir(_) => "ALP0002",
            AlpError::Illegal(_) => "ALP0003",
            AlpError::Infeasible(_) => PlanError::INFEASIBLE_CODE,
            AlpError::Runtime(e) => e.code(),
            AlpError::Plan(e) => e.code(),
            AlpError::Certify(e) => e.code(),
            AlpError::Overloaded { .. } => "ALP0012",
        }
    }
}

impl std::fmt::Display for AlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlpError::Parse(e) => write!(f, "{e}"),
            AlpError::Ir(e) => write!(f, "{e}"),
            AlpError::Illegal(r) => write!(f, "{}", r.render("").trim_end()),
            AlpError::Infeasible(m) => write!(f, "infeasible: {m}"),
            AlpError::Runtime(e) => write!(f, "{e}"),
            AlpError::Plan(e) => write!(f, "{e}"),
            AlpError::Certify(e) => write!(f, "{e}"),
            AlpError::Overloaded { depth, capacity } => write!(
                f,
                "server overloaded: admission queue at depth {depth} of {capacity}; \
                 request shed — retry later"
            ),
        }
    }
}

impl std::error::Error for AlpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlpError::Parse(e) => Some(e),
            AlpError::Ir(e) => Some(e),
            AlpError::Runtime(e) => Some(e),
            AlpError::Plan(e) => Some(e),
            AlpError::Certify(e) => Some(e),
            // A Report is diagnostics, not an error value; Infeasible
            // and Overloaded are leaf messages.
            AlpError::Illegal(_) | AlpError::Infeasible(_) | AlpError::Overloaded { .. } => None,
        }
    }
}

impl From<ParseError> for AlpError {
    fn from(e: ParseError) -> Self {
        AlpError::Parse(e)
    }
}

impl From<IrError> for AlpError {
    fn from(e: IrError) -> Self {
        AlpError::Ir(e)
    }
}

impl From<alp_runtime::RuntimeError> for AlpError {
    fn from(e: alp_runtime::RuntimeError) -> Self {
        AlpError::Runtime(e)
    }
}

impl From<PlanError> for AlpError {
    fn from(e: PlanError) -> Self {
        match e {
            // Planner infeasibility keeps the established variant (and
            // its `infeasible: …` rendering).
            PlanError::Infeasible(m) => AlpError::Infeasible(m),
            e => AlpError::Plan(e),
        }
    }
}

impl From<alp_certify::CertifyError> for AlpError {
    fn from(e: alp_certify::CertifyError) -> Self {
        match e {
            // An uninterpretable plan is a plan problem, whichever layer
            // noticed it (and Infeasible keeps its own variant/code).
            alp_certify::CertifyError::Plan(p) => AlpError::from(p),
            e => AlpError::Certify(e),
        }
    }
}

/// The compiler pipeline of §4 (Fig. 10), split at its one decision.
/// The **front half** is a request: [`Compiler::plan`] runs the legality
/// analysis and the tile-shape search under this compiler's parameters
/// and returns the [`PartitionPlan`].  The **back half** reads nothing
/// but a plan — its own processors, mesh, transform and certificate —
/// so [`Compiler::lower`] (data alignment, placement, code),
/// [`Compiler::execute`] (native run) and the simulator's
/// [`run_plan`](alp_machine::run_plan) take no compiler at all, and a
/// plan loaded from a file lowers exactly like a fresh one.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Number of processors to partition for.
    pub processors: i128,
    /// Optional 2-D mesh for the placement phase and simulator hop
    /// accounting.
    pub mesh: Option<(usize, usize)>,
    /// Run the doall legality analysis and refuse racy nests (default
    /// on; [`Compiler::unchecked`] turns it off).
    pub check: bool,
    /// Partition the nest's *transformed* space instead of the original
    /// one ([`Compiler::with_skewed_tiles`]): search the §3.6
    /// parallelepiped candidates, realize the winner as rectangular
    /// tiles in `j = i·U`, and record the unimodular transform in the
    /// plan (schema v4).
    pub skewed: bool,
}

/// What [`Compiler::lower`] makes of a plan: the plan itself, its nest,
/// and what lowering adds.  The partition, the reference classes and
/// the communication-free normals are the plan's own fields
/// (`plan.proc_grid`, `plan.tile_extents`, `plan.cost`,
/// `plan.class_footprints`, `plan.comm_free_normals`).
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The plan's nest ([`PartitionPlan::nest`]).
    pub nest: LoopNest,
    /// The partitioning decision as a serializable artifact — shared
    /// (via [`Arc`]) with any
    /// [`ShardedPlanCache`](alp_plan::ShardedPlanCache) it came out of.
    pub plan: Arc<PartitionPlan>,
    /// Legality analysis findings of [`Compiler::compile`] (empty when
    /// compiled with [`Compiler::unchecked`] or lowered from a cached /
    /// saved plan — the plan's [`LegalityVerdict`] records the original
    /// verdict); never contains errors — those abort the compile with
    /// [`AlpError::Illegal`].
    pub report: alp_analysis::Report,
    /// Aligned data partitions, one per array (none for a skewed plan:
    /// §4's alignment is rectangular).
    pub data_partitions: Vec<ArrayPartition>,
    /// Mesh placement of the processor grid (when a mesh is configured).
    pub placement: Option<MeshPlacement>,
    /// The SPMD loops processor `(p0, …)` runs
    /// ([`emit_code`](alp_codegen::emit_code)): its tile of the plan's
    /// own [`Tiling`](alp_plan::Tiling), rectangular or skewed, in the
    /// order the runtime walks it, inside the nest's `doseq` loops.
    pub code: String,
}

/// What [`Compiler::execute`] produces: the native run's outcome plus
/// the model-versus-measured footprint comparison.
#[derive(Debug)]
pub struct ExecutionSummary {
    /// The run report and the bitwise check against the sequential
    /// reference.
    pub outcome: alp_runtime::ExecOutcome,
    /// Measured max per-tile distinct-line count versus the cost model's
    /// cumulative-footprint prediction (`None` when touch tracking was
    /// off, the partition has no rectangular tile extents, or the plan
    /// partitions a transformed space — skewed tile extents live in
    /// `j`-coordinates the i-space model does not predict).
    pub model_comparison: Option<alp_runtime::ModelComparison>,
    /// True when the plan carried a certificate whose re-proven coverage
    /// and write-disjointness verdicts unlocked the relaxed (non-atomic)
    /// accumulate store path for this run.
    pub certified_fastpath: bool,
}

impl Compiler {
    /// A compiler for `processors` processors, no mesh.
    pub fn new(processors: i128) -> Self {
        Compiler {
            processors,
            mesh: None,
            check: true,
            skewed: false,
        }
    }

    /// Partition with skewed parallelepiped tiles: the plan carries a
    /// unimodular [`Transform`](alp_plan::Transform) and every
    /// downstream layer (runtime, certifier, simulator) works with
    /// rectangular tiles in the transformed space.  The analytic
    /// parallelepiped objective picks among the skewed candidates.
    pub fn with_skewed_tiles(mut self) -> Self {
        self.skewed = true;
        self
    }

    /// Configure an Alewife-style 2-D mesh.
    pub fn with_mesh(mut self, w: usize, h: usize) -> Self {
        self.mesh = Some((w, h));
        self
    }

    /// Skip the doall legality analysis: partition the nest even when
    /// distinct iterations race.  Useful for studying the paper's
    /// relaxation examples, whose convergence tolerates races, and for
    /// benchmarking the partitioner in isolation.
    pub fn unchecked(mut self) -> Self {
        self.check = false;
        self
    }

    /// The cache key this compiler would use for a nest: the nest's
    /// structural fingerprint plus every parameter that can change the
    /// plan.
    pub fn plan_key(&self, nest: &LoopNest) -> PlanKey {
        PlanKey {
            fingerprint: alp_plan::fingerprint(nest),
            processors: self.processors,
            mesh: self.mesh,
            checked: self.check,
            calibrated: false,
            skewed: self.skewed,
            // The facade certifies *after* compilation (certify is a
            // plan-to-certificate pass, not a compile parameter), so
            // its cache stores uncertified artifacts.
            certified: false,
        }
    }

    /// Run the analysis and partitioning phases only, producing the
    /// serializable [`PartitionPlan`] artifact (what `alp-cli plan
    /// --emit` writes).
    pub fn plan(&self, nest: &LoopNest) -> Result<PartitionPlan, AlpError> {
        self.plan_with_report(nest).map(|(plan, _)| plan)
    }

    /// [`plan`](Compiler::plan) plus the legality findings behind the
    /// plan's verdict (warnings only — errors are [`AlpError::Illegal`];
    /// empty when [`unchecked`](Compiler::unchecked)).
    pub fn plan_with_report(
        &self,
        nest: &LoopNest,
    ) -> Result<(PartitionPlan, alp_analysis::Report), AlpError> {
        let (report, verdict) = if self.check {
            let report = alp_analysis::analyze(nest);
            if report.has_errors() {
                return Err(AlpError::Illegal(report));
            }
            let warnings = report.count(alp_analysis::Severity::Warning);
            (report, LegalityVerdict::Checked { warnings })
        } else {
            (alp_analysis::Report::default(), LegalityVerdict::Unchecked)
        };
        let plan = PartitionPlan::choose(nest, self.processors, self.mesh, verdict, self.skewed)?;
        Ok((plan, report))
    }

    /// Run the full pipeline on a nest: plan it, then
    /// [`lower`](Compiler::lower) the plan.  To memoize the expensive
    /// half, plan through a cache ([`ShardedPlanCache::new(1,
    /// n)`](alp_plan::ShardedPlanCache::new) is the single-threaded one)
    /// — `cache.get_or_compute(compiler.plan_key(&nest), ||
    /// compiler.plan(&nest))` — and lower what comes out; lowering is
    /// tens of microseconds, there is nothing to cache separately.
    pub fn compile(&self, nest: LoopNest) -> Result<CompileResult, AlpError> {
        let (plan, report) = self.plan_with_report(&nest)?;
        Ok(CompileResult {
            report,
            ..Self::lower(plan)?
        })
    }

    /// The cheap backend phases, for a fresh, cached or saved plan
    /// alike: code emission, data alignment and mesh placement, from the
    /// plan's own nest (embedded source, fingerprint re-verified), grid,
    /// transform and mesh.  Every plan gets the loops of its own tiles
    /// ([`CompileResult::code`]); a rectangular one also gets its data
    /// partitions.  The emitter tiles the nest first (a
    /// [`Tiling`](alp_plan::Tiling) must exist for the grid), so a
    /// damaged plan file is an `ALP0006` here and never reaches a
    /// backend that indexes by it.
    pub fn lower(plan: impl Into<Arc<PartitionPlan>>) -> Result<CompileResult, AlpError> {
        Ok(lower_plan(plan.into())?)
    }

    /// Natively execute a plan on OS threads and check the parallel
    /// result bitwise against a sequential reference run.
    ///
    /// Arrays are materialized as real `f64` buffers seeded from `seed`
    /// (small integer values, so floating-point addition stays exact and
    /// order-independent).  The returned summary carries the executor's
    /// [`RunReport`](alp_runtime::RunReport) — per-thread iteration and
    /// distinct-cache-line counts — plus a comparison of the measured
    /// per-tile footprint against the cost model's cumulative-footprint
    /// prediction for the chosen tile shape.
    ///
    /// A plan carrying a certificate is **re-checked** first
    /// ([`alp_certify::recheck`]): a stale or tampered certificate
    /// aborts with [`AlpError::Certify`] (`ALP0011`), and the re-proven
    /// verdicts — never the stored bits — configure the executor's
    /// relaxed-store fast path and certified retry policy.
    pub fn execute(
        plan: &PartitionPlan,
        opts: &alp_runtime::ExecOptions,
        seed: u64,
    ) -> Result<ExecutionSummary, AlpError> {
        let mut exec = alp_runtime::Executor::from_plan(plan)?;
        if plan.certificate.is_some() {
            let proven = alp_certify::recheck(plan)?;
            exec.apply_certificate(proven.coverage && proven.write_disjoint, proven.idempotent);
        }
        let certified_fastpath = exec.uses_relaxed_stores();
        let outcome = exec.verify(seed, opts)?;
        // A transformed plan's tile extents are `j`-space quantities; the
        // cost model predicts i-space rectangular footprints, so the
        // comparison would be apples to oranges.
        let model_comparison = if plan.transform.is_some() {
            None
        } else {
            let model = alp_footprint::CostModel::from_nest(exec.nest());
            (outcome.report).compare_with_model(&model, exec.tile_extents())
        };
        Ok(ExecutionSummary {
            outcome,
            model_comparison,
            certified_fastpath,
        })
    }
}

/// [`Compiler::lower`], in the plan's own error type.
fn lower_plan(plan: Arc<PartitionPlan>) -> Result<CompileResult, PlanError> {
    let nest = plan.nest()?;
    // The emitter tiles the nest by the plan's own grid and transform
    // first, so a grid that does not fit is refused here.
    let code = alp_codegen::emit_code(&nest, plan.transform.as_ref(), &plan.proc_grid)?;
    // §4's alignment is rectangular: a transformed plan's grid and
    // extents live in `j`-space, and its arrays get no partition yet.
    let data_partitions = match &plan.transform {
        None => align_arrays(&nest, &plan.tile_extents),
        Some(_) => Vec::new(),
    };
    // The planner refuses a mesh its grid does not fit; a plan file
    // can still carry one.
    let placement = (plan.mesh)
        .map(|mesh| mesh_placement(&plan.proc_grid, mesh).map_err(PlanError::BadGrid))
        .transpose()?;
    Ok(CompileResult {
        nest,
        plan,
        report: alp_analysis::Report::default(),
        data_partitions,
        placement,
        code,
    })
}

/// The memory distribution [`Compiler::lower`] emits for a rectangular
/// plan, to simulate it with [`run_plan`](alp_machine::run_plan): each
/// array's data tiles, as its
/// [`data_partitions`](CompileResult::data_partitions) entry describes
/// them, live on the processor of the matching loop tile.
///
/// A transformed plan lowers to no data partition, so it is refused
/// ([`PlanError::Infeasible`]) rather than homed at processor 0.
pub fn aligned_home(plan: &PartitionPlan) -> Result<alp_machine::TiledHome, PlanError> {
    if plan.transform.is_some() {
        return Err(PlanError::Infeasible(
            "a skewed plan has no aligned data partition: §4's alignment is rectangular".into(),
        ));
    }
    let lowered = lower_plan(Arc::new(plan.clone()))?;
    let layout = ArrayLayout::from_nest(&lowered.nest)?;
    Ok(alp_machine::TiledHome::new(
        plan.proc_grid.clone(),
        layout,
        &lowered.data_partitions,
    ))
}

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::{AlpError, CompileResult, Compiler, ExecutionSummary};
    pub use alp_analysis::{analyze, analyze_program, pair_conflict, Report, Witness};
    pub use alp_certify::{certify, recheck, CertifyError, CertifyReport};
    pub use alp_codegen::{assign_para, assign_rect, assign_slabs, emit_code, emit_rect_code};
    pub use alp_footprint::{
        classify, cumulative_footprint_exact, cumulative_footprint_general,
        cumulative_footprint_rect, single_footprint_estimate, single_footprint_exact, CostModel,
        RefClass, Tile,
    };
    pub use alp_lattice::{BoundedLattice, Lattice, Parallelepiped};
    pub use alp_linalg::{IMat, IVec, Rat};
    pub use alp_loopir::{
        parse, parse_program, parse_program_with_params, parse_with_params, AccessKind, ArrayRef,
        LoopNest,
    };
    pub use alp_machine::{
        run_nest, run_plan, ArrayLayout, BlockRowMajorHome, CacheConfig, DirectoryKind,
        MachineConfig, TrafficReport, UniformHome,
    };
    pub use alp_partition::{
        abraham_hudak_rect, align_arrays, aspect_ratio_with_spread, communication_free_normals,
        is_communication_free, mesh_placement, naive_partition, optimal_aspect_ratio,
        optimize_parallelepiped, partition_program, partition_rect, NaiveShape, ParaSearchConfig,
        ProgramPartition, ProgramStrategy, RectPartition, SpreadKind,
    };
    pub use alp_plan::{
        fingerprint, fingerprint_hex, skewed_candidates, Certificate, ChosenBy, Fetched, IterBox,
        LatencyCoefficients, LegalityVerdict, PartitionPlan, PlanError, PlanKey, ShardedPlanCache,
        SkewedCandidate, Tiling, Transform,
    };
    pub use alp_runtime::{
        syntactic_retry_safe, CancelToken, ExecOptions, ExecOutcome, Executor, ModelComparison,
        RunReport, RuntimeError, Schedule,
    };
}
