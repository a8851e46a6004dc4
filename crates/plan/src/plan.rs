//! The [`PartitionPlan`] artifact and its versioned JSON schema.

use crate::fingerprint::fingerprint_hex;
use crate::json::{self, FieldError, Item, ObjWriter, ValueWriter};
use crate::tiles::Tiling;
use crate::transform::{skewed_candidates, SkewedCandidate, Transform};
use crate::PlanError;
use alp_footprint::{cumulative_footprint_general, ClassCost, CostModel, Tile};
use alp_linalg::{IMat, IVec, Rat};
use alp_loopir::{ArrayLayout, LoopNest};
use alp_partition::{
    communication_free_normals, mesh_placement, try_partition_rect, ParaSearchConfig, RectPartition,
};

/// Current plan schema version.  Bump when the JSON layout changes;
/// decoders refuse versions they do not understand (never panic).
///
/// Version history:
/// * **1** — the original schema.
/// * **2** — adds `chosen_by` (which ranking picked the partition) and
///   the optional `calibration` provenance block (fitted latency
///   coefficients as exact rationals).
/// * **3** — adds the optional `certificate` provenance block (the
///   `alp-certify` verdicts: coverage, write disjointness, in-bounds,
///   idempotence, bound to the plan's fingerprint).
/// * **4** — adds the optional `transform` block (a unimodular loop
///   transform `U`, bound to the plan's fingerprint): the plan's
///   `proc_grid`/`tile_extents` then describe the **transformed**
///   `j = i·U` space, where skewed parallelepiped tiles are
///   rectangular.
///
/// Decoding accepts [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`].  One
/// rule (`PartitionPlan::version`) picks the version a plan is written
/// at: the lowest that can carry what the plan holds, never below the
/// version it was decoded at or built with.  So pre-calibration and
/// pre-certificate plans stay byte-stable through a decode/encode round
/// trip, a plan without a transform stays at version 3 (older readers
/// and golden snapshots keep working), and attaching a block an old
/// version cannot carry raises the version instead of dropping the
/// block.
pub const SCHEMA_VERSION: u32 = 4;

/// Version freshly built plans start at.
const BASE_VERSION: u32 = 3;

/// Oldest plan schema version this build still decodes.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// What the legality analysis said about the nest when the plan was
/// made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegalityVerdict {
    /// The doall legality analysis ran and found no errors (`warnings`
    /// lints fired).
    Checked {
        /// Number of warning-severity lints.
        warnings: usize,
    },
    /// The analysis was skipped (`Compiler::unchecked`); the plan may
    /// describe a racy nest.
    Unchecked,
}

/// Which cost ranking picked the plan's partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChosenBy {
    /// The paper's analytic Theorem-4 footprint ranking (the default,
    /// and the only option before schema version 2).
    #[default]
    Analytic,
    /// A measured-latency hybrid ranking (see the plan's
    /// [`calibration`](PartitionPlan::calibration) block).  Older
    /// builds wrote it; this one decodes and re-encodes it but never
    /// ranks by it.
    Calibrated,
}

impl ChosenBy {
    fn as_str(self) -> &'static str {
        match self {
            ChosenBy::Analytic => "analytic",
            ChosenBy::Calibrated => "calibrated",
        }
    }
}

/// Per-machine latency coefficients: the model
/// [`hybrid_cost`](LatencyCoefficients::hybrid_cost) scores candidate
/// tilings with ([`choose_calibrated`](crate::choose_calibrated)), and
/// the provenance a schema-2 calibrated plan carries (all in
/// nanoseconds, non-negative exact rationals so the codec stays
/// float-free and byte-deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyCoefficients {
    /// `a`: fixed overhead per tile visit (scheduling, startup).
    pub per_tile_ns: Rat,
    /// `b`: cost per distinct cache line in a tile's footprint.
    pub per_line_ns: Rat,
    /// `s`: cost per line of a tile's address *span* (the envelope
    /// between its lowest and highest touched line, which bounds how
    /// much reuse the hardware hierarchy can extract).
    pub per_span_line_ns: Rat,
    /// `d`: cost per loop iteration (compute).
    pub per_iter_ns: Rat,
    /// `c`: synchronization cost per sequential repetition (barrier).
    pub per_rep_ns: Rat,
    /// Number of measured tile samples the fit used.
    pub samples: u64,
}

impl LatencyCoefficients {
    /// Append the six coefficient fields of a plan's `calibration`
    /// block, in schema order.
    fn write_fields(&self, w: &mut ObjWriter<'_>) {
        w.field("per_tile_ns").str(&rat_str(&self.per_tile_ns));
        w.field("per_line_ns").str(&rat_str(&self.per_line_ns));
        w.field("per_span_line_ns")
            .str(&rat_str(&self.per_span_line_ns));
        w.field("per_iter_ns").str(&rat_str(&self.per_iter_ns));
        w.field("per_rep_ns").str(&rat_str(&self.per_rep_ns));
        w.field("samples").int(self.samples);
    }

    /// Decode the six coefficient fields from the object holding them
    /// (the inverse of [`write_fields`](Self::write_fields)); other
    /// fields of `v` are ignored.
    fn from_json(v: Item<'_>) -> Result<LatencyCoefficients, FieldError> {
        Ok(LatencyCoefficients {
            per_tile_ns: v.req("per_tile_ns", rat)?,
            per_line_ns: v.req("per_line_ns", rat)?,
            per_span_line_ns: v.req("per_span_line_ns", rat)?,
            per_iter_ns: v.req("per_iter_ns", rat)?,
            per_rep_ns: v.req("per_rep_ns", rat)?,
            samples: v.req("samples", Item::int)?,
        })
    }
}

/// The `alp-certify` verdicts embedded in a plan (schema ≥ 3): four
/// independently proven facts about the plan's tiling, bound to the
/// plan's structural fingerprint so a certificate cannot be grafted
/// onto a different nest.  The *semantics* (provers and the re-checker)
/// live in `alp-certify`; this crate only carries and serializes the
/// verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Fingerprint of the nest the certificate was issued for; must
    /// equal the plan's own fingerprint (enforced at decode).
    pub fingerprint: String,
    /// The tiles partition the iteration space with no gap or overlap.
    pub coverage: bool,
    /// Per array, write footprints of distinct tiles are disjoint —
    /// the fact that unlocks the executor's relaxed-store fast path.
    pub write_disjoint: bool,
    /// Every affine reference stays inside its array extents.
    pub in_bounds: bool,
    /// No read can observe any write: tiles are re-runnable (retry
    /// eligibility beyond the syntactic rule).
    pub idempotent: bool,
}

/// Predicted Eq.-2 cumulative footprint of one uniformly intersecting
/// class at the plan's tile shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassFootprint {
    /// Array the class references.
    pub array: String,
    /// Number of member references.
    pub refs: usize,
    /// True when the class cannot influence the optimal tile shape.
    pub shape_invariant: bool,
    /// Theorem-4 cumulative footprint of one interior tile.
    pub footprint: Rat,
}

/// The canonical, serializable partitioning decision — the single
/// currency every pipeline layer consumes.
///
/// A plan bundles the structural fingerprint of the nest it was made
/// for, the chosen rectangular partition, the model's per-class
/// footprint predictions, the legality verdict, and provenance
/// (processor count, mesh, optimizer).  It serializes to a versioned
/// JSON schema ([`PartitionPlan::to_json_string`]) whose encoding is
/// byte-deterministic, and embeds the canonical nest source so a saved
/// plan is sufficient to re-execute the computation
/// ([`PartitionPlan::nest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Schema version the plan was written with.
    pub schema_version: u32,
    /// Structural fingerprint of the nest (hex, invariant under loop
    /// index renaming).
    pub fingerprint: String,
    /// Processor count the partition targets.
    pub processors: i128,
    /// Optional 2-D mesh for placement/hop accounting.
    pub mesh: Option<(usize, usize)>,
    /// Legality verdict at plan time.
    pub legality: LegalityVerdict,
    /// Which optimizer chose the partition (provenance).
    pub optimizer: String,
    /// Which cost ranking picked the partition (schema ≥ 2; decoded
    /// v1 plans default to [`ChosenBy::Analytic`]).
    pub chosen_by: ChosenBy,
    /// Fitted latency coefficients behind a calibrated choice (absent
    /// on analytic plans and on plans written before schema 2).
    pub calibration: Option<LatencyCoefficients>,
    /// The `alp-certify` verdicts (absent on uncertified plans and on
    /// plans written before schema 3).
    pub certificate: Option<Certificate>,
    /// The unimodular loop transform behind a skewed plan (schema ≥ 4).
    /// When present, [`proc_grid`](PartitionPlan::proc_grid) and
    /// [`tile_extents`](PartitionPlan::tile_extents) describe the
    /// transformed `j = i·U` space.
    pub transform: Option<Transform>,
    /// Processors along each loop dimension.
    pub proc_grid: Vec<i128>,
    /// Interior tile extent λ per dimension (inclusive convention).
    pub tile_extents: Vec<i128>,
    /// Modeled cumulative footprint of one tile (the optimizer's
    /// objective value).
    pub cost: Rat,
    /// Bytes the nest's arrays occupy at execution time (8 bytes per
    /// f64 element), for pre-flight resource budgeting.  `None` when
    /// decoding a plan written before the field existed.
    pub store_bytes: Option<u64>,
    /// Per-class footprint predictions at the chosen tile shape.
    pub class_footprints: Vec<ClassFootprint>,
    /// Communication-free hyperplane normals, if any exist.
    pub comm_free_normals: Vec<IVec>,
    /// The nest in DSL form (round-trips through `alp_loopir::parse`).
    pub source: String,
}

impl PartitionPlan {
    /// The planner: run the §4 planning phases on a nest and persist the
    /// decision.  This one function owns the tile-shape policy every
    /// caller (facade, CLI, daemon) shares:
    ///
    /// * the **candidate set** — every feasible processor-grid
    ///   factorization ([`feasible_grids`](alp_partition::feasible_grids)),
    ///   or with `skewed` the non-identity parallelepiped bases of
    ///   [`skewed_candidates`] under [`ParaSearchConfig::default`];
    /// * the **pick** — the paper's objective: the least Theorem-4
    ///   cumulative footprint, or the parallelepiped Eq.-2 cost the
    ///   skewed candidates arrive sorted by;
    /// * the **label** — `rect-exhaustive` / `para-exhaustive`.
    ///
    /// The caller supplies the legality verdict (the analysis lives a
    /// layer above this crate).  Fails with [`PlanError::Infeasible`]
    /// when the candidate set is empty, or when `mesh` has fewer nodes
    /// than the picked grid has processors.
    pub fn choose(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        skewed: bool,
    ) -> Result<PartitionPlan, PlanError> {
        feasible(nest, processors)?;
        let model = CostModel::from_nest(nest);
        if skewed {
            let cands = skewed_candidates(nest, processors, &ParaSearchConfig::default())?;
            let Some(best) = cands.first() else {
                return Err(PlanError::Infeasible(
                    "nest has no skewed parallelepiped candidate bases".into(),
                ));
            };
            Self::skewed(
                nest,
                processors,
                mesh,
                legality,
                best,
                "para-exhaustive",
                &model,
            )
        } else {
            let partition = try_partition_rect(nest, processors, &model)
                .ok_or_else(|| no_factorization(processors))?;
            Self::rect(
                nest,
                processors,
                mesh,
                legality,
                partition,
                "rect-exhaustive",
                &model,
            )
        }
    }

    /// [`choose`](Self::choose) with rectangular tiles under the
    /// analytic Theorem-4 objective.
    pub fn build(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
    ) -> Result<PartitionPlan, PlanError> {
        Self::choose(nest, processors, mesh, legality, false)
    }

    /// Persist a caller-chosen rectangular partition under a
    /// caller-chosen optimizer name, with the same footprint predictions
    /// and provenance [`choose`](Self::choose) records.
    pub fn build_with_partition(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        partition: RectPartition,
        optimizer: &str,
    ) -> Result<PartitionPlan, PlanError> {
        feasible(nest, processors)?;
        let model = CostModel::from_nest(nest);
        Self::rect(
            nest, processors, mesh, legality, partition, optimizer, &model,
        )
    }

    /// [`build_with_partition`](Self::build_with_partition) of a nest
    /// already found feasible, under the `model` already built from it.
    fn rect(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        partition: RectPartition,
        optimizer: &str,
        model: &CostModel,
    ) -> Result<PartitionPlan, PlanError> {
        let grid = &partition.proc_grid;
        let base = Self::base(nest, processors, mesh, legality, optimizer, grid)?;
        Ok(PartitionPlan {
            class_footprints: class_footprints(model, |cc| cc.rect.at(&partition.tile_extents)),
            tile_extents: partition.tile_extents,
            cost: partition.cost,
            ..base
        })
    }

    /// The grid checks and the fields every plan fills the same way;
    /// the shape-specific ones (`tile_extents`, `cost`,
    /// `class_footprints`, `transform`) are left for the caller, who
    /// has found the nest feasible.
    fn base(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        optimizer: &str,
        grid: &[i128],
    ) -> Result<PartitionPlan, PlanError> {
        if grid.len() != nest.depth() {
            return Err(PlanError::BadGrid(format!(
                "partition rank {} does not match nest depth {}",
                grid.len(),
                nest.depth()
            )));
        }
        if let Some(mesh) = mesh {
            mesh_placement(grid, mesh).map_err(PlanError::Infeasible)?;
        }
        Ok(PartitionPlan {
            schema_version: BASE_VERSION,
            fingerprint: fingerprint_hex(nest),
            processors,
            mesh,
            legality,
            optimizer: optimizer.into(),
            chosen_by: ChosenBy::Analytic,
            calibration: None,
            certificate: None,
            transform: None,
            proc_grid: grid.to_vec(),
            tile_extents: Vec::new(),
            cost: Rat::ZERO,
            // 8 bytes per f64 element; saturates when the arrays have no
            // `u64` layout at all.
            store_bytes: Some(
                ArrayLayout::from_nest(nest)
                    .map_or(u64::MAX, |layout| layout.total_lines().saturating_mul(8)),
            ),
            class_footprints: Vec::new(),
            comm_free_normals: communication_free_normals(nest),
            source: nest.display(),
        })
    }

    /// The schema version this plan is written at: the lowest one that
    /// can carry what the plan holds (see [`SCHEMA_VERSION`]'s history),
    /// never below the version it was decoded at or built with.  The
    /// next optional field is one more arm here.
    fn version(&self) -> u32 {
        let carries = if self.transform.is_some() {
            4
        } else if self.certificate.is_some() {
            3
        } else if self.calibration.is_some() || self.chosen_by != ChosenBy::Analytic {
            2
        } else {
            MIN_SCHEMA_VERSION
        };
        carries.max(self.schema_version)
    }

    /// Attach a certificate (schema ≥ 3: a silently dropped certificate
    /// would defeat the tamper evidence).
    pub fn with_certificate(mut self, certificate: Certificate) -> Self {
        self.certificate = Some(certificate);
        self.schema_version = self.version();
        self
    }

    /// Attach a unimodular transform, re-interpreting `proc_grid` and
    /// `tile_extents` in the transformed `j = i·U` space (schema ≥ 4: a
    /// silently dropped transform would change which iterations each
    /// tile owns).
    pub fn with_transform(mut self, transform: Transform) -> Self {
        self.transform = Some(transform);
        self.schema_version = self.version();
        self
    }

    /// Build a **skewed** plan from a [`SkewedCandidate`]: the §3.6
    /// parallelepiped tile realized as a rectangular grid over the
    /// transformed space, with per-class footprints predicted by the
    /// general (parallelepiped) Eq.-2 form at the candidate's actual
    /// chunk sizes.
    pub fn build_skewed(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        candidate: &SkewedCandidate,
        optimizer: &str,
    ) -> Result<PartitionPlan, PlanError> {
        feasible(nest, processors)?;
        let model = CostModel::from_nest(nest);
        Self::skewed(
            nest, processors, mesh, legality, candidate, optimizer, &model,
        )
    }

    /// [`build_skewed`](Self::build_skewed) of a nest already found
    /// feasible, under the `model` already built from it.
    fn skewed(
        nest: &LoopNest,
        processors: i128,
        mesh: Option<(usize, usize)>,
        legality: LegalityVerdict,
        candidate: &SkewedCandidate,
        optimizer: &str,
        model: &CostModel,
    ) -> Result<PartitionPlan, PlanError> {
        let base = Self::base(nest, processors, mesh, legality, optimizer, &candidate.grid)?;
        // The tile actually executed: edge k is chunk_k · basis_k.
        let rows: Vec<IVec> = candidate
            .tile_extents
            .iter()
            .enumerate()
            .map(|(k, &e)| candidate.basis.row(k).scale(e + 1))
            .collect();
        let lmat = IMat::from_row_vecs(&rows);
        let tile = Tile::general(lmat.clone());
        let plan = PartitionPlan {
            class_footprints: class_footprints(model, |cc| {
                Rat::int(cumulative_footprint_general(&tile, &cc.class))
            }),
            tile_extents: candidate.tile_extents.clone(),
            cost: Rat::int(model.cost_general(&lmat)),
            ..base
        };
        Ok(plan.with_transform(candidate.transform.clone()))
    }

    /// The tiles this plan gives its processors: `proc_grid` over
    /// `nest`, through the plan's transform when it has one.  `nest` is
    /// the plan's own nest ([`PartitionPlan::nest`]).
    pub fn tiling(&self, nest: &LoopNest) -> Result<Tiling, PlanError> {
        Tiling::new(nest, self.transform.as_ref(), &self.proc_grid)
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> i128 {
        self.proc_grid.iter().product()
    }

    /// Reconstruct the nest from the embedded source and verify it
    /// still matches the recorded fingerprint and the grid's rank
    /// (integrity checks against hand-edited plan files).
    pub fn nest(&self) -> Result<LoopNest, PlanError> {
        let nest = alp_loopir::parse(&self.source)
            .map_err(|e| PlanError::Schema(format!("embedded source does not parse: {e}")))?;
        let found = fingerprint_hex(&nest);
        if found != self.fingerprint {
            return Err(PlanError::FingerprintMismatch {
                expected: self.fingerprint.clone(),
                found,
            });
        }
        if self.proc_grid.len() != nest.depth() {
            return Err(PlanError::BadGrid(format!(
                "grid has {} dims, nest has {} parallel loops",
                self.proc_grid.len(),
                nest.depth()
            )));
        }
        Ok(nest)
    }

    /// Encode as the versioned JSON schema.  Byte-deterministic: the
    /// same plan always yields the same text (golden-snapshot safe).
    pub fn to_json_string(&self) -> String {
        let version = self.version();
        json::pretty(|w| {
            w.field("alp-plan").int(version);
            w.field("fingerprint").str(&self.fingerprint);
            w.field("processors").int(self.processors);
            match self.mesh {
                Some((width, height)) => w.field("mesh").ints([width, height]),
                None => w.field("mesh").null(),
            }
            let (checked, warnings) = match self.legality {
                LegalityVerdict::Checked { warnings } => (true, warnings),
                LegalityVerdict::Unchecked => (false, 0),
            };
            w.field("legality").obj(|legality| {
                legality.field("checked").bool(checked);
                legality.field("warnings").int(warnings);
            });
            w.field("optimizer").str(&self.optimizer);
            // A plan decoded from a version-1 file re-encodes as version
            // 1, without the field, byte-stably.
            let chosen_by = (version >= 2).then_some(self.chosen_by.as_str());
            w.opt("chosen_by", chosen_by, ValueWriter::str);
            w.field("proc_grid").ints(self.proc_grid.iter().copied());
            w.field("tile_extents")
                .ints(self.tile_extents.iter().copied());
            w.field("cost").str(&rat_str(&self.cost));
            w.opt("store_bytes", self.store_bytes, ValueWriter::int);
            w.opt("calibration", self.calibration.as_ref(), |block, c| {
                block.obj(|block| c.write_fields(block))
            });
            w.opt("certificate", self.certificate.as_ref(), |block, c| {
                block.obj(|block| {
                    block.field("fingerprint").str(&c.fingerprint);
                    block.field("coverage").bool(c.coverage);
                    block.field("write_disjoint").bool(c.write_disjoint);
                    block.field("in_bounds").bool(c.in_bounds);
                    block.field("idempotent").bool(c.idempotent);
                })
            });
            w.opt("transform", self.transform.as_ref(), |block, t| {
                block.obj(|block| {
                    block.field("fingerprint").str(t.fingerprint());
                    let rows = t.u().row_vecs();
                    block.field("u").list(rows, |row, r| row.ints(r.0));
                })
            });
            w.field("class_footprints")
                .list(&self.class_footprints, |class, c| {
                    class.obj(|class| {
                        class.field("array").str(&c.array);
                        class.field("refs").int(c.refs);
                        class.field("shape_invariant").bool(c.shape_invariant);
                        class.field("footprint").str(&rat_str(&c.footprint));
                    })
                });
            w.field("comm_free_normals")
                .list(&self.comm_free_normals, |normal, n| {
                    normal.ints(n.0.iter().copied())
                });
            w.field("source").str(&self.source);
        })
    }

    /// Decode a plan from JSON text.
    ///
    /// Fails with a diagnostic (never panics) on malformed or truncated
    /// JSON, an unknown schema version, or missing/mistyped fields.
    pub fn from_json_str(src: &str) -> Result<PartitionPlan, PlanError> {
        let v = json::parse(src)?;
        let f = Item::root(&v);
        let found: i128 = f.req("alp-plan", Item::int)?;
        let schema_version = u32::try_from(found)
            .ok()
            .filter(|v| (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(v))
            .ok_or(PlanError::UnsupportedVersion {
                found,
                supported: SCHEMA_VERSION,
            })?;
        let fingerprint = f.req("fingerprint", Item::str)?.to_string();
        let processors = f.req("processors", |p| match p.int()? {
            n if n >= 1 => Ok(n),
            _ => Err(p.refuse("must be a positive processor count")),
        })?;
        let mesh = f.opt("mesh", |m| match m.list(Item::int::<usize>)?[..] {
            [w, h] => Ok((w, h)),
            _ => Err(m.refuse("must be null or [w, h]")),
        })?;
        let legality = f.req("legality", |l| {
            Ok(match l.req("checked", Item::bool)? {
                true => LegalityVerdict::Checked {
                    warnings: l.req("warnings", Item::int)?,
                },
                false => LegalityVerdict::Unchecked,
            })
        })?;
        let optimizer = f.req("optimizer", Item::str)?.to_string();
        // Optional (schema ≥ 2): absent in version-1 plans.
        let chosen_by = f.opt("chosen_by", |c| match c.str()? {
            "analytic" => Ok(ChosenBy::Analytic),
            "calibrated" => Ok(ChosenBy::Calibrated),
            _ => Err(c.refuse("must be \"analytic\" or \"calibrated\"")),
        })?;
        let calibration = f.opt("calibration", LatencyCoefficients::from_json)?;
        let certificate = f
            .opt("certificate", |c| {
                Ok(Certificate {
                    fingerprint: c.req("fingerprint", Item::str)?.to_string(),
                    coverage: c.req("coverage", Item::bool)?,
                    write_disjoint: c.req("write_disjoint", Item::bool)?,
                    in_bounds: c.req("in_bounds", Item::bool)?,
                    idempotent: c.req("idempotent", Item::bool)?,
                })
            })
            .map_err(|e| PlanError::Certificate(e.to_string()))?;
        if let Some(cert) = certificate
            .as_ref()
            .filter(|c| c.fingerprint != fingerprint)
        {
            return Err(PlanError::Certificate(format!(
                "certificate was issued for fingerprint {} but the plan's \
                 fingerprint is {fingerprint}; re-certify with `alp-cli certify`",
                cert.fingerprint
            )));
        }
        let ints = |xs: Item<'_>| xs.list(Item::int::<i128>);
        let proc_grid = f.req("proc_grid", ints)?;
        let tile_extents = f.req("tile_extents", ints)?;
        if proc_grid.is_empty() || proc_grid.len() != tile_extents.len() {
            return Err(PlanError::Schema(format!(
                "proc_grid ({}) and tile_extents ({}) must be nonempty and equal length",
                proc_grid.len(),
                tile_extents.len()
            )));
        }
        if let Some(g) = proc_grid.iter().find(|&&g| g < 1) {
            return Err(PlanError::Schema(format!(
                "`proc_grid` factor {g} is not a positive processor count"
            )));
        }
        let transform = f
            .opt("transform", |t| {
                let fp = t.req("fingerprint", Item::str)?.to_string();
                Ok((fp, t.req("u", |u| u.list(ints))?))
            })
            .map_err(|e| PlanError::Transform(e.to_string()))?;
        let transform = match transform {
            None => None,
            Some((fp, rows)) => {
                let n = rows.len();
                if let Some(row) = rows.iter().find(|row| row.len() != n) {
                    return Err(PlanError::Transform(format!(
                        "transform matrix is not square: {n} rows but a row of {}",
                        row.len()
                    )));
                }
                if n != proc_grid.len() {
                    return Err(PlanError::Transform(format!(
                        "transform rank {n} does not match the plan's {}-dimensional grid",
                        proc_grid.len()
                    )));
                }
                if fp != fingerprint {
                    return Err(PlanError::Transform(format!(
                        "transform was derived for fingerprint {fp} but the plan's \
                         fingerprint is {fingerprint}; re-plan with `alp-cli plan --skewed`"
                    )));
                }
                Some(Transform::new(IMat::from_vec(n, n, rows.concat()), fp)?)
            }
        };
        Ok(PartitionPlan {
            schema_version,
            fingerprint,
            processors,
            mesh,
            legality,
            optimizer,
            chosen_by: chosen_by.unwrap_or_default(),
            calibration,
            certificate,
            transform,
            proc_grid,
            tile_extents,
            cost: f.req("cost", rat)?,
            // Optional: absent in plans written before the field existed.
            store_bytes: f.opt("store_bytes", Item::int)?,
            class_footprints: f.req("class_footprints", |classes| {
                classes.list(|c| {
                    Ok(ClassFootprint {
                        array: c.req("array", Item::str)?.to_string(),
                        refs: c.req("refs", Item::int)?,
                        shape_invariant: c.req("shape_invariant", Item::bool)?,
                        footprint: c.req("footprint", rat)?,
                    })
                })
            })?,
            comm_free_normals: f.req("comm_free_normals", |normals| {
                normals.list(|n| ints(n).map(IVec))
            })?,
            source: f.req("source", Item::str)?.to_string(),
        })
    }
}

/// What every plan builder refuses up front.
pub(crate) fn feasible(nest: &LoopNest, processors: i128) -> Result<(), PlanError> {
    if nest.depth() == 0 {
        return Err(PlanError::Infeasible("nest has no parallel loops".into()));
    }
    if processors < 1 {
        return Err(PlanError::Infeasible("need at least one processor".into()));
    }
    Ok(())
}

/// Every factorization of `processors` puts more processors than
/// iterations on some loop.
pub(crate) fn no_factorization(processors: i128) -> PlanError {
    PlanError::Infeasible(format!(
        "no feasible factorization of {processors} processors for this nest"
    ))
}

/// One [`ClassFootprint`] per class of the model, its footprint at the
/// plan's tile shape computed by `footprint`.
fn class_footprints(
    model: &CostModel,
    footprint: impl Fn(&ClassCost) -> Rat,
) -> Vec<ClassFootprint> {
    model
        .classes()
        .iter()
        .map(|cc| ClassFootprint {
            array: cc.class.array.clone(),
            refs: cc.class.len(),
            shape_invariant: cc.shape_invariant,
            footprint: footprint(cc),
        })
        .collect()
}

fn rat_str(r: &Rat) -> String {
    format!("{}/{}", r.num(), r.den())
}

/// Reads a `"num/den"` exact rational.
fn rat(item: Item<'_>) -> Result<Rat, FieldError> {
    let s = item.str()?;
    let parts = s.split_once('/');
    match parts.map(|(num, den)| (num.parse::<i128>(), den.parse::<i128>())) {
        Some((Ok(num), Ok(den))) if den != 0 => Ok(Rat::new(num, den)),
        _ => Err(item.refuse(format!("is `{s}`, not a num/den rational"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_loopir::parse;

    fn example8() -> LoopNest {
        parse(
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
        )
        .unwrap()
    }

    #[test]
    fn build_records_partition_and_footprints() {
        let nest = example8();
        let plan = PartitionPlan::build(
            &nest,
            64,
            Some((8, 8)),
            LegalityVerdict::Checked { warnings: 0 },
        )
        .unwrap();
        assert_eq!(plan.tiles(), 64);
        assert_eq!(plan.proc_grid.len(), 3);
        assert_eq!(plan.class_footprints.len(), 2);
        // A (64³ identity writes) and B (66×67×68 window) at 8 B/elem.
        let a = 64u64 * 64 * 64;
        let b = 66u64 * 67 * 68;
        assert_eq!(plan.store_bytes, Some((a + b) * 8));
        let part = alp_partition::partition_rect(&nest, 64);
        assert_eq!(
            (plan.proc_grid.clone(), plan.tile_extents.clone(), plan.cost),
            (part.proc_grid, part.tile_extents, part.cost)
        );
        // The embedded source reconstructs the very same nest.
        assert_eq!(plan.nest().unwrap(), nest);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan.to_json_string();
        let back = PartitionPlan::from_json_str(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json_string(), text, "encoding is canonical");
    }

    fn coefficients() -> LatencyCoefficients {
        LatencyCoefficients {
            per_tile_ns: Rat::new(1507, 1000),
            per_line_ns: Rat::new(21, 1000),
            per_span_line_ns: Rat::new(3, 1000),
            per_iter_ns: Rat::new(911, 1000),
            per_rep_ns: Rat::new(42000, 1),
            samples: 36,
        }
    }

    /// `plan` with a `calibration` block, as calibrated builds wrote
    /// them (schema ≥ 2).
    fn with_calibration(mut plan: PartitionPlan) -> PartitionPlan {
        plan.chosen_by = ChosenBy::Calibrated;
        plan.calibration = Some(coefficients());
        plan.schema_version = plan.version();
        plan
    }

    #[test]
    fn calibration_provenance_round_trips() {
        let plan = with_calibration(
            PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap(),
        );
        assert_eq!(plan.chosen_by, ChosenBy::Calibrated);
        let text = plan.to_json_string();
        assert!(text.contains("\"chosen_by\": \"calibrated\""));
        assert!(text.contains("\"per_span_line_ns\": \"3/1000\""));
        let back = PartitionPlan::from_json_str(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.calibration, Some(coefficients()));
        assert_eq!(back.to_json_string(), text, "encoding is canonical");
    }

    #[test]
    fn uncalibrated_plan_round_trips_without_calibration_block() {
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan.to_json_string();
        assert!(text.contains("\"chosen_by\": \"analytic\""));
        assert!(!text.contains("\"calibration\""));
        let back = PartitionPlan::from_json_str(&text).unwrap();
        assert_eq!(back.chosen_by, ChosenBy::Analytic);
        assert_eq!(back.calibration, None);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn version_1_plan_decodes_and_reencodes_byte_stably() {
        // Write a version-1 file by hand-downgrading a fresh plan: drop
        // the schema-2 fields and rewrite the version tag — exactly what
        // a pre-calibration build would have emitted.
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let v1: String = plan
            .to_json_string()
            .replace("\"alp-plan\": 3", "\"alp-plan\": 1")
            .lines()
            .filter(|l| !l.contains("\"chosen_by\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = PartitionPlan::from_json_str(&v1).unwrap();
        assert_eq!(back.schema_version, 1);
        assert_eq!(back.chosen_by, ChosenBy::Analytic);
        assert_eq!(back.calibration, None);
        assert_eq!(back.to_json_string(), v1, "v1 re-encode is byte-stable");
    }

    #[test]
    fn version_2_plan_decodes_and_reencodes_byte_stably() {
        // Hand-downgrade a fresh plan to version 2: rewrite the tag.
        // Schema 2 had every field but `certificate`, and an uncertified
        // plan emits no certificate block, so the bytes are otherwise
        // identical to what a pre-certificate build wrote.
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let v2 = plan
            .to_json_string()
            .replace("\"alp-plan\": 3", "\"alp-plan\": 2");
        let back = PartitionPlan::from_json_str(&v2).unwrap();
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.certificate, None);
        assert_eq!(back.to_json_string(), v2, "v2 re-encode is byte-stable");
    }

    fn certificate_for(plan: &PartitionPlan) -> Certificate {
        Certificate {
            fingerprint: plan.fingerprint.clone(),
            coverage: true,
            write_disjoint: true,
            in_bounds: true,
            idempotent: false,
        }
    }

    #[test]
    fn certificate_round_trips_byte_stably() {
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let cert = certificate_for(&plan);
        let certified = plan.with_certificate(cert.clone());
        assert_eq!(certified.schema_version, 3);
        let text = certified.to_json_string();
        assert!(text.contains("\"certificate\""));
        assert!(text.contains("\"write_disjoint\": true"));
        let back = PartitionPlan::from_json_str(&text).unwrap();
        assert_eq!(back.certificate, Some(cert));
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn stale_certificate_fingerprint_is_rejected_at_decode() {
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let mut cert = certificate_for(&plan);
        cert.fingerprint = "fnv1a64:0000000000000000".into();
        // Bypass the constructor so the stale fingerprint reaches the
        // serializer — simulating a certificate grafted from another plan.
        let mut certified = plan;
        certified.certificate = Some(cert);
        let err = PartitionPlan::from_json_str(&certified.to_json_string()).unwrap_err();
        assert!(matches!(err, PlanError::Certificate(_)), "got {err}");
        assert!(err.to_string().contains("issued for fingerprint"));
    }

    #[test]
    fn malformed_certificate_block_is_rejected_at_decode() {
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        let certified = plan.clone().with_certificate(certificate_for(&plan));
        let text = certified.to_json_string();
        // Truncated block: a proven fact vanished.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("\"write_disjoint\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = PartitionPlan::from_json_str(&truncated).unwrap_err();
        assert!(matches!(err, PlanError::Certificate(_)), "got {err}");
        // Mistyped fact: a verdict that is not a bool.
        let mistyped = text.replace("\"coverage\": true", "\"coverage\": \"probably\"");
        assert!(matches!(
            PartitionPlan::from_json_str(&mistyped),
            Err(PlanError::Certificate(_))
        ));
        // The block itself must be an object.
        let wrong_shape = {
            let start = text.find("  \"certificate\": {").unwrap();
            let end = text[start..].find("},\n").unwrap() + start + 3;
            format!("{}  \"certificate\": 7,\n{}", &text[..start], &text[end..])
        };
        assert!(matches!(
            PartitionPlan::from_json_str(&wrong_shape),
            Err(PlanError::Certificate(_))
        ));
    }

    #[test]
    fn bad_chosen_by_and_calibration_are_rejected() {
        let plan = with_calibration(
            PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap(),
        );
        let text = plan.to_json_string();
        let bad = text.replace("\"chosen_by\": \"calibrated\"", "\"chosen_by\": \"vibes\"");
        assert!(matches!(
            PartitionPlan::from_json_str(&bad),
            Err(PlanError::Schema(_))
        ));
        let bad = text.replace("\"per_line_ns\": \"21/1000\"", "\"per_line_ns\": \"fast\"");
        assert!(matches!(
            PartitionPlan::from_json_str(&bad),
            Err(PlanError::Schema(_))
        ));
        let bad = text.replace("\"samples\": 36", "\"samples\": -3");
        assert!(matches!(
            PartitionPlan::from_json_str(&bad),
            Err(PlanError::Schema(_))
        ));
    }

    fn example2() -> LoopNest {
        parse(
            "doall (i, 101, 612) { doall (j, 1, 512) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
             } }",
        )
        .unwrap()
    }

    fn skew_transform(nest: &LoopNest) -> Transform {
        Transform::new(
            alp_linalg::IMat::from_rows(&[&[1, 1], &[0, 1]]),
            fingerprint_hex(nest),
        )
        .unwrap()
    }

    #[test]
    fn untransformed_plans_stay_at_version_3() {
        // Version 4's only addition is the transform block; a plan
        // without one writes the lowest representable version so the
        // pre-skew golden snapshots stay byte-stable.
        let plan = PartitionPlan::build(&example8(), 16, None, LegalityVerdict::Unchecked).unwrap();
        assert_eq!(plan.schema_version, 3);
        let text = plan.to_json_string();
        assert!(text.contains("\"alp-plan\": 3"));
        assert!(!text.contains("\"transform\""));
    }

    #[test]
    fn every_setter_order_writes_the_lowest_sufficient_version() {
        // One rule for the written version: whatever subset of the three
        // optional blocks is attached, in whatever order, to a fresh
        // plan or to the frozen version-1 / version-2 snapshots, the
        // plan is written at the lowest version that carries it all,
        // never below where it started, and nothing attached is dropped
        // on encode (a version-1 plan used to lose its calibration).
        let fresh = PartitionPlan::build(&example8(), 64, Some((8, 8)), LegalityVerdict::Unchecked)
            .unwrap();
        let frozen = |text| PartitionPlan::from_json_str(text).unwrap();
        let v1 = frozen(include_str!("../../../tests/golden/example8.v1.plan.json"));
        let v2 = frozen(include_str!("../../../tests/golden/example8.v2.plan.json"));
        assert_eq!(
            [fresh.schema_version, v1.schema_version, v2.schema_version],
            [3, 1, 2]
        );
        let skew = Transform::new(
            IMat::from_rows(&[&[1, 1, 0], &[0, 1, 0], &[0, 0, 1]]),
            fresh.fingerprint.clone(),
        )
        .unwrap();
        // (block name, version that introduced it), indexed like `attach`.
        let blocks = [("calibration", 2), ("certificate", 3), ("transform", 4)];
        let attach = |s: usize, plan: PartitionPlan| match s {
            0 => with_calibration(plan),
            1 => {
                let cert = certificate_for(&plan);
                plan.with_certificate(cert)
            }
            _ => plan.with_transform(skew.clone()),
        };
        // Every ordered selection of distinct setters: 1 + 3 + 6 + 6.
        let mut orders: Vec<Vec<usize>> = vec![Vec::new()];
        for len in 0..3 {
            for prefix in orders.clone().into_iter().filter(|o| o.len() == len) {
                for s in (0..3).filter(|s| !prefix.contains(s)) {
                    orders.push([&prefix[..], &[s]].concat());
                }
            }
        }
        assert_eq!(orders.len(), 16);
        for base in [&fresh, &v1, &v2] {
            for order in &orders {
                let what = format!("from v{}, setters {order:?}", base.schema_version);
                let mut plan = base.clone();
                let mut version = base.schema_version;
                for &s in order {
                    plan = attach(s, plan);
                    version = version.max(blocks[s].1);
                    assert_eq!(plan.schema_version, version, "{what}");
                }
                let text = plan.to_json_string();
                assert!(
                    text.contains(&format!("\"alp-plan\": {version},")),
                    "{what}"
                );
                assert_eq!(text.contains("\"chosen_by\""), version >= 2, "{what}");
                for (s, (block, _)) in blocks.iter().enumerate() {
                    let written = text.contains(&format!("\"{block}\": {{"));
                    assert_eq!(written, order.contains(&s), "{what}: {block}");
                }
                let back = PartitionPlan::from_json_str(&text).unwrap();
                assert_eq!(back, plan, "{what}");
                assert_eq!(back.to_json_string(), text, "{what}");
            }
        }
    }

    #[test]
    fn transform_round_trips_byte_stably_at_v4() {
        let nest = example2();
        let plan = PartitionPlan::build(&nest, 16, None, LegalityVerdict::Unchecked)
            .unwrap()
            .with_transform(skew_transform(&nest));
        assert_eq!(plan.schema_version, 4);
        let text = plan.to_json_string();
        assert!(text.contains("\"alp-plan\": 4"), "{text}");
        assert!(text.contains("\"transform\""), "{text}");
        let back = PartitionPlan::from_json_str(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.transform, plan.transform);
        assert_eq!(back.to_json_string(), text, "v4 encoding is canonical");
    }

    #[test]
    fn skewed_build_carries_transform_and_general_footprints() {
        let nest = example2();
        let cands = crate::transform::skewed_candidates(
            &nest,
            16,
            &alp_partition::ParaSearchConfig::default(),
        )
        .unwrap();
        assert!(!cands.is_empty(), "example 2 has skewed candidates");
        let plan = PartitionPlan::build_skewed(
            &nest,
            16,
            None,
            LegalityVerdict::Checked { warnings: 0 },
            &cands[0],
            "para-exhaustive",
        )
        .unwrap();
        assert_eq!(plan.schema_version, SCHEMA_VERSION);
        let t = plan.transform.as_ref().unwrap();
        assert!(!t.is_identity());
        assert_eq!(plan.proc_grid, cands[0].grid);
        let back = PartitionPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn malformed_transform_blocks_are_rejected_with_transform_errors() {
        let nest = example2();
        let plan = PartitionPlan::build(&nest, 16, None, LegalityVerdict::Unchecked)
            .unwrap()
            .with_transform(skew_transform(&nest));
        let text = plan.to_json_string();
        // det 2: not unimodular.
        let det2 = text.replace("[0, 1]", "[0, 2]");
        let err = PartitionPlan::from_json_str(&det2).unwrap_err();
        assert!(matches!(err, PlanError::Transform(_)), "got {err}");
        assert!(err.to_string().contains("det 2"), "{err}");
        // Singular: duplicate rows.
        let singular = text.replace("[0, 1]", "[1, 1]");
        let err = PartitionPlan::from_json_str(&singular).unwrap_err();
        assert!(err.to_string().contains("singular"), "{err}");
        // Stale fingerprint: the transform block re-states the plan
        // fingerprint as its last occurrence in the text.
        let needle = format!("\"fingerprint\": \"{}\"", plan.fingerprint);
        let pos = text.rfind(&needle).unwrap();
        let stale = format!(
            "{}\"fingerprint\": \"fnv1a64:0000000000000000\"{}",
            &text[..pos],
            &text[pos + needle.len()..]
        );
        let err = PartitionPlan::from_json_str(&stale).unwrap_err();
        assert!(matches!(err, PlanError::Transform(_)), "got {err}");
        assert!(err.to_string().contains("derived for fingerprint"), "{err}");
        // The block itself must be an object.
        let start = text.find("  \"transform\": {").unwrap();
        let end = text[start..].find("},\n").unwrap() + start + 3;
        let wrong_shape = format!("{}  \"transform\": 7,\n{}", &text[..start], &text[end..]);
        assert!(matches!(
            PartitionPlan::from_json_str(&wrong_shape),
            Err(PlanError::Transform(_))
        ));
    }

    #[test]
    fn mesh_and_warnings_round_trip() {
        let nest = parse("doall (i, 0, 15) { doall (j, 0, 15) { A[i,j] = A[i,j]; } }").unwrap();
        let plan = PartitionPlan::build(
            &nest,
            4,
            Some((2, 2)),
            LegalityVerdict::Checked { warnings: 3 },
        )
        .unwrap();
        let back = PartitionPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back.mesh, Some((2, 2)));
        assert_eq!(back.legality, LegalityVerdict::Checked { warnings: 3 });
    }

    #[test]
    fn unknown_version_fails_with_diagnostic() {
        let plan = PartitionPlan::build(&example8(), 8, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan
            .to_json_string()
            .replace("\"alp-plan\": 3", "\"alp-plan\": 99");
        let err = PartitionPlan::from_json_str(&text).unwrap_err();
        match err {
            PlanError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, 99);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            e => panic!("wrong error: {e}"),
        }
    }

    #[test]
    fn truncated_input_fails_with_diagnostic() {
        let plan = PartitionPlan::build(&example8(), 8, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan.to_json_string();
        for cut in [0, 1, text.len() / 2, text.len() - 2] {
            let err = PartitionPlan::from_json_str(&text[..cut]).unwrap_err();
            assert!(
                matches!(err, PlanError::Json(_)),
                "cut at {cut}: wrong error {err}"
            );
        }
    }

    #[test]
    fn tampered_source_fails_fingerprint_check() {
        let plan = PartitionPlan::build(&example8(), 8, None, LegalityVerdict::Unchecked).unwrap();
        let mut tampered = plan.clone();
        tampered.source = "doall (i, 0, 3) { A[i] = A[i]; }\n".into();
        assert!(matches!(
            tampered.nest(),
            Err(PlanError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn store_bytes_is_optional_for_old_plans() {
        let plan = PartitionPlan::build(&example8(), 8, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan.to_json_string();
        assert!(text.contains("\"store_bytes\""));
        // Strip the field, as a plan written before it existed would be.
        let line = text
            .lines()
            .find(|l| l.contains("store_bytes"))
            .unwrap()
            .to_string();
        let old = text.replace(&format!("{line}\n"), "");
        let back = PartitionPlan::from_json_str(&old).unwrap();
        assert_eq!(back.store_bytes, None);
        // Round trip of the old-format plan stays byte-stable too.
        assert_eq!(back.to_json_string(), old);
        // A mistyped field is rejected, not ignored.
        let bad = text.replace(&line, "  \"store_bytes\": \"big\",");
        assert!(matches!(
            PartitionPlan::from_json_str(&bad),
            Err(PlanError::Schema(_))
        ));
    }

    #[test]
    fn missing_field_fails_cleanly() {
        let plan = PartitionPlan::build(&example8(), 8, None, LegalityVerdict::Unchecked).unwrap();
        let text = plan
            .to_json_string()
            .replace("\"proc_grid\"", "\"wrong_name\"");
        assert!(matches!(
            PartitionPlan::from_json_str(&text),
            Err(PlanError::Schema(_))
        ));
    }
}
