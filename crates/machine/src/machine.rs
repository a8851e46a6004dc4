//! The machine proper: full-map MSI directory over per-processor caches.

use crate::cache::{Cache, CacheConfig, LineState, LocalMiss};
use crate::layout::{ArrayLayout, HomeMap};
use crate::report::{ProcessorCounters, TrafficReport};
use alp_linalg::IVec;
use alp_loopir::{mesh_placement, LoopNest, MeshPlacement};
use std::collections::HashMap;

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processors (≤ 128: the directory uses a full-map
    /// bitmask, like Alewife's full-map ancestor).
    pub processors: usize,
    /// Cache geometry (shared by all processors).
    pub cache: CacheConfig,
    /// Optional 2-D mesh (width, height) for hop-weighted traffic; the
    /// processors sit where [`mesh_placement`] puts their grid —
    /// [`run_plan`]'s is the plan's when each processor runs one tile,
    /// otherwise, like [`run_nest`]'s, a 1-D grid of the processors.
    pub mesh: Option<(usize, usize)>,
    /// Elements per cache line.  The paper assumes 1 (§2.2) and notes
    /// that larger lines "can be included as suggested in \[6\]"; values
    /// above 1 model spatial locality *and* false sharing at tile
    /// boundaries.  Consecutive flattened element addresses share a
    /// line.
    pub line_size: u64,
    /// Directory organization (full-map by default).
    pub directory: DirectoryKind,
}

/// How the coherence directory tracks sharers.
///
/// Alewife's actual directory is LimitLESS: a few hardware pointers with
/// software extension on overflow.  The classic hardware alternatives
/// are modeled here; overflow events are counted so the cost of the
/// software trap (or the broadcast) can be charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryKind {
    /// One presence bit per processor (no overflow, the default).
    FullMap,
    /// `Dir_i NB`: at most `pointers` sharers are tracked; admitting one
    /// more *invalidates* a tracked sharer to make room.
    LimitedNoBroadcast {
        /// Hardware pointer count (≥ 1).
        pointers: u32,
    },
    /// `Dir_i B`: on overflow a broadcast bit is set; the next write
    /// invalidates every cache (imprecise but never evicts readers).
    LimitedBroadcast {
        /// Hardware pointer count (≥ 1).
        pointers: u32,
    },
}

impl MachineConfig {
    /// Uniform-memory machine with infinite caches and unit lines — the
    /// paper's §2.2 model.
    pub fn uniform(processors: usize) -> Self {
        MachineConfig {
            processors,
            cache: CacheConfig::Infinite,
            mesh: None,
            line_size: 1,
            directory: DirectoryKind::FullMap,
        }
    }

    /// Set the cache-line size in elements.
    pub fn with_line_size(mut self, line_size: u64) -> Self {
        assert!(line_size >= 1, "line size must be positive");
        self.line_size = line_size;
        self
    }

    /// Set the directory organization.
    pub fn with_directory(mut self, directory: DirectoryKind) -> Self {
        if let DirectoryKind::LimitedNoBroadcast { pointers }
        | DirectoryKind::LimitedBroadcast { pointers } = directory
        {
            assert!(pointers >= 1, "need at least one directory pointer");
        }
        self.directory = directory;
        self
    }
}

/// Full-map directory entry for one line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of caches holding the line.
    sharers: u128,
    /// Cache holding it Modified, if any.
    owner: Option<u32>,
    /// Dir_i B only: pointer overflow happened; the sharer set is
    /// imprecise and a write must broadcast.
    broadcast: bool,
}

/// A cache-coherent multiprocessor executing memory access traces.
pub struct Machine<'h> {
    config: MachineConfig,
    placement: Option<MeshPlacement>,
    home: &'h dyn HomeMap,
    caches: Vec<Cache>,
    directory: HashMap<u64, DirEntry>,
    counters: Vec<ProcessorCounters>,
}

impl<'h> Machine<'h> {
    /// Build a machine whose processors sit on the mesh where
    /// `placement` puts them (no placement: hops are free).
    ///
    /// # Panics
    /// Panics if `processors` is 0 or exceeds 128, or, at its first hop,
    /// when the placement leaves a processor out.
    pub fn new(
        config: MachineConfig,
        placement: Option<MeshPlacement>,
        home: &'h dyn HomeMap,
    ) -> Self {
        assert!(
            (1..=128).contains(&config.processors),
            "processors must be in 1..=128 (full-map bitmask)"
        );
        let caches = (0..config.processors)
            .map(|_| Cache::new(config.cache))
            .collect();
        let counters = vec![ProcessorCounters::default(); config.processors];
        Machine {
            config,
            placement,
            home,
            caches,
            directory: HashMap::new(),
            counters,
        }
    }

    fn hops(&self, a: usize, b: usize) -> u64 {
        self.placement.as_ref().map_or(0, |pl| pl.hops(a, b) as u64)
    }

    /// Issue one access from processor `p` to element address `addr`.
    ///
    /// The cache/directory granularity is `line_size` elements; the home
    /// of a line is the home of its first element.
    pub fn access(&mut self, p: usize, addr: u64, write: bool) {
        debug_assert!(p < self.config.processors);
        let ls = self.config.line_size.max(1);
        let line = addr / ls;
        self.counters[p].accesses += 1;
        let state = self.caches[p].probe(line);
        let home = self.home.home(line * ls);

        match (state, write) {
            (Some(_), false) | (Some(LineState::Modified), true) => {
                self.counters[p].hits += 1;
            }
            (Some(LineState::Shared), true) => {
                // Upgrade: invalidate all other sharers via the directory.
                self.counters[p].hits += 1; // data already local
                self.invalidate_others(p, line, home);
                let e = self.directory.entry(line).or_default();
                e.sharers = 1u128 << p;
                e.owner = Some(p as u32);
                self.caches[p].fill(line, LineState::Modified);
            }
            (None, _) => {
                // Miss: fetch through the directory.
                match self.caches[p].miss_kind(line) {
                    LocalMiss::Cold => self.counters[p].cold_misses += 1,
                    LocalMiss::Coherence => self.counters[p].coherence_misses += 1,
                    LocalMiss::Capacity => self.counters[p].capacity_misses += 1,
                }
                if home == p {
                    self.counters[p].local_misses += 1;
                } else {
                    self.counters[p].remote_misses += 1;
                }
                // Request + reply between requester and home.
                let mut hops = 2 * self.hops(p, home);
                let entry = self.directory.entry(line).or_default().to_owned();
                if let Some(q) = entry.owner {
                    let q = q as usize;
                    if q != p {
                        // Home forwards to the dirty owner.
                        hops += 2 * self.hops(home, q);
                        if write {
                            self.caches[q].invalidate(line);
                            self.counters[q].invalidations_received += 1;
                            self.counters[p].invalidations_sent += 1;
                        } else {
                            self.caches[q].downgrade(line);
                        }
                    }
                }
                if write {
                    // Invalidate every other sharer.
                    self.invalidate_others(p, line, home);
                    let e = self.directory.entry(line).or_default();
                    e.sharers = 1u128 << p;
                    e.owner = Some(p as u32);
                    if let Some(victim) = self.caches[p].fill(line, LineState::Modified) {
                        self.evict(p, victim);
                    }
                } else {
                    self.admit_sharer(p, line, home);
                    if let Some(victim) = self.caches[p].fill(line, LineState::Shared) {
                        self.evict(p, victim);
                    }
                }
                self.counters[p].hop_traffic += hops;
            }
        }
    }

    fn invalidate_others(&mut self, p: usize, line: u64, home: usize) {
        let entry = self.directory.entry(line).or_default().to_owned();
        let mut hops = 0;
        for q in 0..self.config.processors {
            if q == p {
                continue;
            }
            // With the broadcast bit set the sharer list is imprecise:
            // probe every cache; otherwise only tracked sharers.
            if !entry.broadcast && entry.sharers & (1u128 << q) == 0 {
                continue;
            }
            if entry.broadcast {
                // The broadcast message itself travels regardless of
                // whether the line is present.
                hops += self.hops(home, q);
            }
            if self.caches[q].invalidate(line) {
                self.counters[q].invalidations_received += 1;
                self.counters[p].invalidations_sent += 1;
                if !entry.broadcast {
                    hops += self.hops(home, q);
                }
            }
        }
        if let Some(e) = self.directory.get_mut(&line) {
            e.broadcast = false;
        }
        self.counters[p].hop_traffic += hops;
    }

    /// Record `p` as a sharer of `line`, handling limited-directory
    /// pointer overflow.
    fn admit_sharer(&mut self, p: usize, line: u64, home: usize) {
        let directory_kind = self.config.directory;
        // Phase 1: update the entry and decide on any overflow action.
        let mut evict_victim: Option<usize> = None;
        {
            let e = self.directory.entry(line).or_default();
            // Fold a downgraded previous owner into the sharer set first.
            if let Some(q) = e.owner {
                if q != p as u32 {
                    e.sharers |= 1u128 << q;
                }
                e.owner = None;
            }
            let already = e.sharers & (1u128 << p) != 0;
            let count = e.sharers.count_ones();
            match directory_kind {
                DirectoryKind::LimitedNoBroadcast { pointers } if !already && count >= pointers => {
                    // Evict the lowest-numbered tracked sharer.
                    let victim = e.sharers.trailing_zeros() as usize;
                    e.sharers &= !(1u128 << victim);
                    e.sharers |= 1u128 << p;
                    evict_victim = Some(victim);
                }
                DirectoryKind::LimitedBroadcast { pointers } if !already && count >= pointers => {
                    // The new sharer is cached but untracked.
                    e.broadcast = true;
                }
                _ => {
                    e.sharers |= 1u128 << p;
                }
            }
        }
        // Phase 2: charge the overflow.
        if let Some(victim) = evict_victim {
            self.counters[p].directory_overflows += 1;
            if self.caches[victim].invalidate(line) {
                self.counters[victim].invalidations_received += 1;
                self.counters[p].invalidations_sent += 1;
                let h = self.hops(home, victim);
                self.counters[p].hop_traffic += h;
            }
        } else if matches!(directory_kind, DirectoryKind::LimitedBroadcast { .. })
            && self.directory.get(&line).is_some_and(|e| e.broadcast)
            && self
                .directory
                .get(&line)
                .is_some_and(|e| e.sharers & (1u128 << p) == 0)
        {
            self.counters[p].directory_overflows += 1;
        }
    }

    /// Capacity eviction: silently drop from the directory's sharer set
    /// (clean lines) or write back (owned lines).
    fn evict(&mut self, p: usize, line: u64) {
        if let Some(e) = self.directory.get_mut(&line) {
            e.sharers &= !(1u128 << p);
            if e.owner == Some(p as u32) {
                e.owner = None;
            }
        }
    }

    /// Consume the machine, yielding the traffic report.
    pub fn into_report(self, repetitions: u64) -> TrafficReport {
        TrafficReport {
            per_processor: self.counters,
            repetitions,
        }
    }

    /// Processor count.
    pub fn processors(&self) -> usize {
        self.config.processors
    }
}

/// One logical memory access of the loop body: `(element, write-like)`.
type Access = (u64, bool);

/// Simulate a partitioned loop nest.
///
/// `assignment[p]` lists the iterations processor `p` executes (every
/// iteration of the nest must appear in exactly one processor's list for
/// the run to model the real execution; `alp-codegen` produces such
/// assignments).  Outer `doseq` loops replay the whole doall that many
/// times with warm caches, exposing coherence traffic (Fig. 9).
///
/// The protocol consumes the processors' traces in a deterministic
/// round-robin interleaving (one access per processor per round).
///
/// # Panics
/// Panics if the nest's arrays do not fit a `u64` line id space, its
/// points and address forms do not fit `i64`, or its processors number
/// more than 128 or do not fit the mesh ([`run_plan`] reports those as
/// errors instead).
pub fn run_nest(
    nest: &LoopNest,
    assignment: &[Vec<IVec>],
    config: MachineConfig,
    home: &dyn HomeMap,
) -> TrafficReport {
    assert_eq!(
        assignment.len(),
        config.processors,
        "one iteration list per processor"
    );
    let layout = ArrayLayout::from_nest(nest).expect("array layout fits u64");
    let accesses = layout.accesses(nest, None).expect("addresses fit i64");
    // Each listed point is a row of one iteration.
    let trace = |p: usize| {
        let mut out = Vec::with_capacity(assignment[p].len() * accesses.refs().len());
        let mut j = vec![0i64; nest.depth()];
        for i in &assignment[p] {
            for (to, &from) in j.iter_mut().zip(&i.0) {
                *to = i64::try_from(from).expect("iteration point fits i64");
            }
            let x = j[j.len() - 1];
            accesses.for_each(&j, x, x, |element, write| out.push((element, write)));
        }
        out
    };
    simulate(nest, trace, config, None, home).expect("processors fit the mesh")
}

/// Run the protocol over one trace per processor: `trace(p)` is
/// processor `p`'s accesses for one repetition of the doall body — for
/// each iteration, every right-hand-side reference then the left-hand
/// side, as an [`alp_loopir::AccessStream`] issues them.  Processors sit
/// on the mesh where [`mesh_placement`] puts `grid`, or a 1-D grid of
/// them without one; more processors than the directory tracks, or a
/// mesh too small for them, fail before any trace is built.  The traces
/// are built one after another on the calling thread.
fn simulate(
    nest: &LoopNest,
    trace: impl Fn(usize) -> Vec<Access>,
    config: MachineConfig,
    grid: Option<&[i128]>,
    home: &dyn HomeMap,
) -> Result<TrafficReport, String> {
    // `Machine::new`'s bound: one bit of a line's `u128` sharer set
    // per processor.
    if config.processors > 128 {
        return Err(format!(
            "the simulator's full-map directory holds at most 128 processors; \
             the plan has {} processors",
            config.processors
        ));
    }
    let placement = (config.mesh)
        .map(|mesh| mesh_placement(grid.unwrap_or(&[config.processors as i128]), mesh))
        .transpose()?;
    let traces: Vec<Vec<Access>> = (0..config.processors).map(trace).collect();

    let reps = nest.seq_repetitions().max(1) as u64;
    let mut machine = Machine::new(config, placement, home);
    for _ in 0..reps {
        let mut cursors: Vec<_> = traces.iter().map(|trace| trace.iter()).collect();
        loop {
            let mut progressed = false;
            for (p, cursor) in cursors.iter_mut().enumerate() {
                if let Some(&(addr, write)) = cursor.next() {
                    machine.access(p, addr, write);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    Ok(machine.into_report(reps))
}

/// Simulate a saved [`alp_plan::PartitionPlan`] directly.
///
/// The nest is reconstructed from the plan's embedded source (with its
/// fingerprint re-verified) and each processor's trace comes from
/// walking its tiles of the plan's [`alp_plan::Tiling`] row by row under
/// the nest's own forms.  The machine has the plan's `processors`, at
/// most one per tile ([`alp_plan::Tiling::workers`]), and processor `p`
/// runs [`alp_plan::Tiling::worker_tiles`]`(p, ..)` in order, as the
/// executor's worker `p` does under the static schedule; the walk runs
/// in the nest's own coordinates and order for a skewed plan too, so
/// the simulated machine executes exactly the tiles, in exactly the
/// order, the native runtime and the generated code do.
/// `config.processors` is overridden by that count; the plan's mesh is
/// used unless `config` already sets one, and [`mesh_placement`] puts
/// the plan's grid on it when each processor runs one tile, a 1-D grid
/// of the processors otherwise.  A plan of more than 128 processors, or
/// a mesh too small for them, is a
/// [`PlanError::BadGrid`](alp_plan::PlanError).
pub fn run_plan(
    plan: &alp_plan::PartitionPlan,
    mut config: MachineConfig,
    home: &dyn HomeMap,
) -> Result<TrafficReport, alp_plan::PlanError> {
    let nest = plan.nest()?;
    let layout = ArrayLayout::from_nest(&nest)?;
    let tiling = plan.tiling(&nest)?;
    let accesses = layout.accesses(&nest, None)?;
    let workers = tiling.workers(plan.processors);
    config.processors = workers;
    config.mesh = config.mesh.or(plan.mesh);
    let trace = |p: usize| {
        let mut out = Vec::new();
        for t in tiling.worker_tiles(p, workers) {
            tiling.for_each_row(t, |i, lo, hi| {
                accesses.for_each(i, lo, hi, |element, write| out.push((element, write)));
                true
            });
        }
        out
    };
    let grid = (workers == tiling.len()).then_some(&plan.proc_grid[..]);
    simulate(&nest, trace, config, grid, home).map_err(alp_plan::PlanError::BadGrid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BlockRowMajorHome, UniformHome};
    use alp_loopir::parse;

    /// Split iterations contiguously along the outermost loop.
    fn rows_assignment(nest: &LoopNest, p: usize) -> Vec<Vec<IVec>> {
        let pts = nest.iteration_points();
        let chunk = pts.len().div_ceil(p);
        let mut out: Vec<Vec<IVec>> = pts.chunks(chunk).map(|c| c.to_vec()).collect();
        out.resize(p, Vec::new());
        out
    }

    #[test]
    fn run_plan_is_run_nest_over_the_tilings_assignment() {
        // The row walk issues exactly the accesses, in exactly the
        // order, that interpreting the tiling's explicit point lists
        // does, each processor's lists joined in `worker_tiles` order:
        // Examples 2, 8 and 10 (a `doseq` around the last), rectangular
        // with one tile a processor, and the skewed Example-2 golden,
        // whose 16 processors run 32 tiles.
        let build = |src: &str, p| {
            let legality = alp_plan::LegalityVerdict::Unchecked;
            alp_plan::PartitionPlan::build(&parse(src).unwrap(), p, None, legality).unwrap()
        };
        let golden = include_str!("../../../tests/golden/example2.v4.plan.json");
        let plans = [
            build(
                "doall (i, 101, 200) { doall (j, 1, 100) {
                   A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
                16,
            ),
            build(
                "doall (i, 1, 24) { doall (j, 1, 24) { doall (k, 1, 24) {
                   A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
                8,
            ),
            build(
                "doseq (t, 0, 1) { doall (i, 1, 32) { doall (j, 1, 32) {
                   A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                          + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } } }",
                16,
            ),
            alp_plan::PartitionPlan::from_json_str(golden).unwrap(),
        ];
        assert!(plans[3].transform.is_some());
        for (k, plan) in plans.iter().enumerate() {
            let nest = plan.nest().unwrap();
            let tiling = plan.tiling(&nest).unwrap();
            let lists = tiling.assignment();
            let workers = tiling.workers(plan.processors);
            assert_eq!(workers == lists.len(), k < 3);
            let assignment: Vec<Vec<IVec>> = (0..workers)
                .map(|p| {
                    (tiling.worker_tiles(p, workers))
                        .flat_map(|t| lists[t].clone())
                        .collect()
                })
                .collect();
            // The golden is 512 × 512 points: one line size is enough.
            for line_size in [1, 8].into_iter().take(if k == 3 { 1 } else { 2 }) {
                let cfg = |processors| MachineConfig {
                    mesh: plan.mesh,
                    ..MachineConfig::uniform(processors).with_line_size(line_size)
                };
                let by_rows = run_plan(plan, cfg(0), &UniformHome).unwrap();
                let by_points = run_nest(&nest, &assignment, cfg(assignment.len()), &UniformHome);
                assert_eq!(by_rows.per_processor, by_points.per_processor);
                assert_eq!(by_rows.repetitions, by_points.repetitions);
                assert!(by_rows.total_accesses() > 0);
            }
        }
    }

    #[test]
    fn hops_are_counted_on_the_placement_of_the_grid() {
        // Every line homed at processor 0 and no sharing: each miss costs
        // a request and a reply between its processor and 0, on the mesh
        // position `mesh_placement` gives the plan's grid — or, for
        // `run_nest`'s lists and processors that share tiles, a 1-D grid.
        let nest = parse("doall (i, 0, 7) { doall (j, 0, 7) { A[i,j] = A[i,j]; } }").unwrap();
        let legality = alp_plan::LegalityVerdict::Unchecked;
        let plan = alp_plan::PartitionPlan::build(&nest, 8, Some((4, 2)), legality).unwrap();
        let expected = |r: &TrafficReport, pl: MeshPlacement| -> u64 {
            (r.per_processor.iter().enumerate())
                .map(|(p, c)| 2 * pl.hops(p, 0) as u64 * c.remote_misses)
                .sum()
        };
        let by_plan = run_plan(&plan, MachineConfig::uniform(0), &UniformHome).unwrap();
        let placed = mesh_placement(&plan.proc_grid, (4, 2)).unwrap();
        assert_eq!(by_plan.total_hop_traffic(), expected(&by_plan, placed));
        assert!(by_plan.total_hop_traffic() > 0);

        let lists = plan.tiling(&nest).unwrap().assignment();
        let cfg = MachineConfig {
            mesh: Some((4, 2)),
            ..MachineConfig::uniform(8)
        };
        let by_lists = run_nest(&nest, &lists, cfg, &UniformHome);
        let snaked = mesh_placement(&[8], (4, 2)).unwrap();
        assert_eq!(by_lists.total_hop_traffic(), expected(&by_lists, snaked));

        // A mesh too small for the plan's grid is the grid's error.
        let cfg = MachineConfig {
            mesh: Some((2, 2)),
            ..MachineConfig::uniform(0)
        };
        let err = run_plan(&plan, cfg.clone(), &UniformHome).unwrap_err();
        assert!(matches!(err, alp_plan::PlanError::BadGrid(_)), "{err:?}");

        // A skewed plan's 4 processors share its [4, 2] grid of tiles,
        // which would not fit the 2 × 2 mesh: they sit on it in a row.
        let skew = parse(
            "doall (i, 1, 16) { doall (j, 1, 16) { A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
        )
        .unwrap();
        let plan = alp_plan::PartitionPlan::choose(&skew, 4, None, legality, true).unwrap();
        assert_eq!(
            (plan.proc_grid.as_slice(), plan.processors),
            (&[4, 2][..], 4)
        );
        let by_plan = run_plan(&plan, cfg, &UniformHome).unwrap();
        let snaked = mesh_placement(&[4], (2, 2)).unwrap();
        assert_eq!(by_plan.total_hop_traffic(), expected(&by_plan, snaked));
        assert!(by_plan.total_hop_traffic() > 0);
    }

    #[test]
    fn single_processor_cold_misses_equal_footprint() {
        let nest = parse("doall (i, 0, 9) { A[i] = B[i] + B[i+1]; }").unwrap();
        let assignment = vec![nest.iteration_points()];
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(1), &UniformHome);
        assert!(r.check_conservation());
        // Footprint: A 10 + B 11 = 21 cold misses; accesses 3 per iter.
        assert_eq!(r.total_accesses(), 30);
        assert_eq!(r.total_cold_misses(), 21);
        assert_eq!(r.total_coherence_misses(), 0);
        assert_eq!(r.total_invalidations(), 0);
    }

    #[test]
    fn repeat_reads_hit() {
        // Second repetition of a read-only sweep hits entirely.
        let nest = parse("doseq (t, 0, 1) { doall (i, 0, 9) { A[i] = B[i]; } }").unwrap();
        let assignment = vec![nest.iteration_points()];
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(1), &UniformHome);
        assert_eq!(r.repetitions, 2);
        assert_eq!(r.total_cold_misses(), 20);
        assert_eq!(r.total_coherence_misses(), 0);
        assert_eq!(r.total_misses(), 20, "second sweep all hits");
    }

    #[test]
    fn false_sharing_between_processors() {
        // Two processors write the same element: invalidations ping-pong.
        let nest = parse("doseq (t, 0, 4) { doall (i, 0, 1) { A[0] = A[0] + B[i]; } }").unwrap();
        // Both iterations touch A[0]; split them across 2 processors.
        let pts = nest.iteration_points();
        let assignment = vec![vec![pts[0].clone()], vec![pts[1].clone()]];
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(2), &UniformHome);
        assert!(r.check_conservation());
        assert!(
            r.total_invalidations() > 0,
            "writes to a shared line must invalidate"
        );
        assert!(r.total_coherence_misses() > 0);
    }

    #[test]
    fn disjoint_tiles_have_no_invalidations() {
        let nest = parse("doall (i, 0, 19) { A[i] = A[i]; }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        assert_eq!(r.total_invalidations(), 0);
        assert_eq!(r.total_cold_misses(), 20);
    }

    #[test]
    fn shared_boundary_reads_no_invalidations() {
        // Stencil reads overlap across tiles but nobody writes shared
        // lines: all extra traffic is cold misses.
        let nest = parse("doall (i, 0, 19) { A[i] = B[i] + B[i+1]; }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        assert_eq!(r.total_invalidations(), 0);
        // B boundary elements counted once per sharing processor:
        // footprint per tile = 5 (A) + 6 (B) = 11; 4 tiles -> 44.
        assert_eq!(r.total_cold_misses(), 44);
    }

    #[test]
    fn doseq_turns_boundary_into_coherence() {
        // With writes to A and re-reads of neighbours' A elements across
        // repetitions, boundary sharing becomes coherence traffic.
        let nest = parse("doseq (t, 0, 3) { doall (i, 0, 19) { A[i] = A[i+1]; } }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        assert!(r.check_conservation());
        assert!(r.total_coherence_misses() > 0);
        assert!(r.total_invalidations() > 0);
        // Coherence misses scale with repetitions (3 extra reps × ~2 per
        // boundary × 3 interior boundaries).
        assert!(r.total_coherence_misses() >= 9);
    }

    #[test]
    fn remote_local_accounting() {
        let nest = parse("doall (i, 0, 15) { A[i] = A[i]; }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let layout = ArrayLayout::from_nest(&nest).unwrap();
        let home = BlockRowMajorHome::new(4, layout.total_lines());
        let cfg = MachineConfig {
            processors: 4,
            cache: CacheConfig::Infinite,
            mesh: Some((2, 2)),
            line_size: 1,
            directory: DirectoryKind::FullMap,
        };
        let r = run_nest(&nest, &assignment, cfg, &home);
        // Block distribution matches the contiguous assignment: all local.
        assert_eq!(r.total_remote_misses(), 0);
        assert_eq!(r.total_hop_traffic(), 0);

        // Shifted home map (each 4-line chunk homed one processor over):
        // everything lands remote.
        let scrambled = crate::layout::FnHome(|l| (((l / 4) + 1) % 4) as usize);
        let r2 = run_nest(
            &nest,
            &assignment,
            MachineConfig {
                processors: 4,
                cache: CacheConfig::Infinite,
                mesh: Some((2, 2)),
                line_size: 1,
                directory: DirectoryKind::FullMap,
            },
            &scrambled,
        );
        assert_eq!(r2.total_remote_misses(), 16);
        assert!(r2.total_hop_traffic() > 0);
    }

    #[test]
    fn finite_cache_capacity_misses() {
        // Tiny cache, repeated sweep: second pass misses on capacity.
        let nest = parse("doseq (t, 0, 1) { doall (i, 0, 63) { A[i] = A[i]; } }").unwrap();
        let assignment = vec![nest.iteration_points()];
        let cfg = MachineConfig {
            processors: 1,
            cache: CacheConfig::Finite { sets: 4, ways: 2 },
            mesh: None,
            line_size: 1,
            directory: DirectoryKind::FullMap,
        };
        let r = run_nest(&nest, &assignment, cfg, &UniformHome);
        assert!(r.total_capacity_misses() > 0);
        assert!(r.check_conservation());
    }

    #[test]
    fn determinism() {
        let nest = parse("doseq (t, 0, 2) { doall (i, 0, 31) { A[i] = A[i+1] + B[i]; } }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let r1 = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        let r2 = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        assert_eq!(r1.per_processor, r2.per_processor);
    }

    #[test]
    fn accumulate_counts_as_write() {
        let nest = parse("doall (i, 0, 9) { l$C[0] = l$C[0] + A[i]; }").unwrap();
        let assignment = rows_assignment(&nest, 2);
        let r = run_nest(&nest, &assignment, MachineConfig::uniform(2), &UniformHome);
        // Both processors hammer C[0] with write-like accesses.
        assert!(r.total_invalidations() > 0);
    }

    #[test]
    #[should_panic(expected = "processors must be in")]
    fn processor_bound() {
        let _ = Machine::new(MachineConfig::uniform(129), None, &UniformHome);
    }

    #[test]
    fn larger_lines_exploit_spatial_locality() {
        // A sequential sweep of 64 contiguous elements: line size 4 cuts
        // cold misses 4x.
        let nest = parse("doall (i, 0, 63) { A[i] = A[i]; }").unwrap();
        let assignment = vec![nest.iteration_points()];
        let r1 = run_nest(&nest, &assignment, MachineConfig::uniform(1), &UniformHome);
        let r4 = run_nest(
            &nest,
            &assignment,
            MachineConfig::uniform(1).with_line_size(4),
            &UniformHome,
        );
        assert_eq!(r1.total_cold_misses(), 64);
        assert_eq!(r4.total_cold_misses(), 16);
    }

    #[test]
    fn larger_lines_cause_false_sharing() {
        // Adjacent elements written by different processors: with unit
        // lines no invalidations; with tile-straddling lines the
        // boundary lines ping-pong across repetitions.
        let nest = parse("doseq (t, 0, 3) { doall (i, 0, 31) { A[i] = A[i]; } }").unwrap();
        let assignment = rows_assignment(&nest, 4);
        let unit = run_nest(&nest, &assignment, MachineConfig::uniform(4), &UniformHome);
        assert_eq!(unit.total_invalidations(), 0);
        let wide = run_nest(
            &nest,
            &assignment,
            MachineConfig::uniform(4).with_line_size(16),
            &UniformHome,
        );
        assert!(
            wide.total_invalidations() > 0,
            "tile-straddling lines must false-share"
        );
    }

    #[test]
    #[should_panic(expected = "line size must be positive")]
    fn line_size_positive() {
        let _ = MachineConfig::uniform(1).with_line_size(0);
    }

    /// A line read by all P processors then written once: the canonical
    /// limited-directory stressor.
    fn widely_shared_nest() -> LoopNest {
        // 8 processors each read B[0], then write their own A[i].
        parse("doseq (t, 0, 2) { doall (i, 0, 7) { A[i] = B[0] + A[i]; } }").unwrap()
    }

    fn one_iter_per_proc(nest: &LoopNest) -> Vec<Vec<IVec>> {
        nest.iteration_points()
            .into_iter()
            .map(|p| vec![p])
            .collect()
    }

    #[test]
    fn full_map_has_no_overflows() {
        let nest = widely_shared_nest();
        let a = one_iter_per_proc(&nest);
        let r = run_nest(&nest, &a, MachineConfig::uniform(8), &UniformHome);
        assert_eq!(r.total_directory_overflows(), 0);
        assert!(r.check_conservation());
    }

    #[test]
    fn limited_nb_evicts_readers() {
        let nest = widely_shared_nest();
        let a = one_iter_per_proc(&nest);
        let full = run_nest(&nest, &a, MachineConfig::uniform(8), &UniformHome);
        let nb = run_nest(
            &nest,
            &a,
            MachineConfig::uniform(8)
                .with_directory(DirectoryKind::LimitedNoBroadcast { pointers: 2 }),
            &UniformHome,
        );
        assert!(nb.check_conservation());
        assert!(nb.total_directory_overflows() > 0, "8 readers, 2 pointers");
        // Evictions force re-misses: more total misses than full-map.
        assert!(
            nb.total_misses() > full.total_misses(),
            "nb {} vs full {}",
            nb.total_misses(),
            full.total_misses()
        );
    }

    #[test]
    fn limited_broadcast_keeps_readers_but_overinvalidates() {
        // Make several processors WRITE the shared line so the broadcast
        // bit actually gets exercised by invalidations.
        let nest =
            parse("doseq (t, 0, 2) { doall (i, 0, 7) { l$C[0] = l$C[0] + A[i]; } }").unwrap();
        let a = one_iter_per_proc(&nest);
        let b = run_nest(
            &nest,
            &a,
            MachineConfig::uniform(8)
                .with_directory(DirectoryKind::LimitedBroadcast { pointers: 2 }),
            &UniformHome,
        );
        assert!(b.check_conservation());
        let full = run_nest(&nest, &a, MachineConfig::uniform(8), &UniformHome);
        assert!(full.check_conservation());
        // Same sharing pattern; broadcast never loses correctness.
        assert_eq!(b.total_accesses(), full.total_accesses());
    }

    #[test]
    fn limited_directory_identical_when_pointers_suffice() {
        // Only 2 sharers ever: a 4-pointer limited directory behaves
        // exactly like full-map.
        let nest = parse("doseq (t, 0, 2) { doall (i, 0, 1) { A[i] = B[0]; } }").unwrap();
        let a = one_iter_per_proc(&nest);
        let full = run_nest(&nest, &a, MachineConfig::uniform(2), &UniformHome);
        let lim = run_nest(
            &nest,
            &a,
            MachineConfig::uniform(2)
                .with_directory(DirectoryKind::LimitedNoBroadcast { pointers: 4 }),
            &UniformHome,
        );
        assert_eq!(full.per_processor, lim.per_processor);
        assert_eq!(lim.total_directory_overflows(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one directory pointer")]
    fn zero_pointers_rejected() {
        let _ = MachineConfig::uniform(2)
            .with_directory(DirectoryKind::LimitedNoBroadcast { pointers: 0 });
    }
}
