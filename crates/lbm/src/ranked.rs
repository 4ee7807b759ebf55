//! Rank-decomposed execution with explicit halo exchange.
//!
//! HARVEY runs under MPI: the mesh is split among ranks, each rank updates
//! its own cells, and boundary distributions are exchanged every step. This
//! module reproduces that structure in-process: each rank owns a set of
//! fluid cells, remote reads go through per-step halo copies, and the
//! per-rank message ledger records exactly the bytes and events the
//! performance model costs (paper Eqs. 5, 13, 15).
//!
//! The ranked solver honors the same runtime
//! [`crate::solver::SolverConfig::kernel`] as the global solver, in both
//! storage precisions:
//!
//! * **AB**: exchange before every step, pull-stream into `f_tmp`, swap.
//! * **AA**: the even step is purely cell-local, so *no exchange happens
//!   at all* (the ledgers record zero traffic — AA halves the exchange
//!   count on top of halving index traffic). Before an odd step the
//!   boundary is copied as usual. A cell reads a remote slot from its
//!   rank's copy and scatters into that same copy slot (per cell the AA
//!   write set is the read set); after the sweep each such slot goes back
//!   to the live array — the push half of the exchange. This is
//!   MPI-faithful: the slot sets are disjoint across cells (see
//!   `crate::solver` module docs), so no rank observes another rank's
//!   current-step writes through its own reads.
//!
//! [`RankedSolver`] is a thin shell around a [`Solver`]: it keeps only what
//! MPI adds — the per-message schedule, the per-rank ledgers and the
//! `lbm.ranked.*` counters. The distributions, inlet data, configuration,
//! step count and the collide–stream step are the solver's own. The
//! receive sets are taken from the mesh before the solver consumes it:
//! each rank gets one halo row per remote cell it reads, and the solver's
//! slot table points every cross-rank read at the reading rank's row. A
//! ranked step is then the exchange plus the global step. A remote read
//! with no halo row panics at construction, and "ranked == global, bit for
//! bit" (the oracle test at the bottom) checks that the exchange fills the
//! rows the table reads.

use crate::kernel::Propagation;
use crate::lattice::Q19;
use crate::mesh::{FluidMesh, SOLID};
use crate::solver::{Solver, SolverConfig};
use hemocloud_obs::{Counter, Registry};
use std::sync::Arc;

/// Assignment of fluid cells to ranks: `owner[cell]` is the rank index.
#[derive(Debug, Clone)]
pub struct RankAssignment {
    /// Rank owning each fluid cell.
    pub owner: Vec<u32>,
    /// Number of ranks.
    pub n_ranks: usize,
}

impl RankAssignment {
    /// Validate and wrap an ownership vector.
    ///
    /// # Panics
    /// Panics if an owner index is out of range.
    pub fn new(owner: Vec<u32>, n_ranks: usize) -> Self {
        assert!(n_ranks > 0);
        assert!(
            owner.iter().all(|&r| (r as usize) < n_ranks),
            "owner index out of range"
        );
        Self { owner, n_ranks }
    }
}

/// Per-step communication ledger of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommLedger {
    /// Bytes sent to other ranks this step.
    pub bytes_sent: u64,
    /// Distinct (neighbor rank) messages sent this step.
    pub messages_sent: u64,
}

/// A rank-decomposed solver over a shared mesh.
///
/// Implementation note: distributions live in one global array (we are one
/// process), but every cross-rank read goes through the reading rank's
/// halo copy, refreshed during the exchange phase — so the information
/// flow is exactly MPI-like.
pub struct RankedSolver {
    /// The solver whose state every rank updates.
    solver: Solver,
    /// One `(sending rank, cells shipped)` entry per message of an
    /// exchange: each (receiver, sender) pair with a nonempty receive set.
    messages: Vec<(u32, u64)>,
    ledgers: Vec<CommLedger>,
    /// Cumulative halo traffic across all ranks and steps (the per-step
    /// ledgers reset every step; these observability counters never do).
    /// Deterministic: the exchange schedule is a pure function of the
    /// mesh, assignment, and kernel config — the cross-check test pins
    /// them against `DecompAnalysis`' Eq. 9 message accounting.
    obs_halo_bytes: Arc<Counter>,
    obs_halo_messages: Arc<Counter>,
    obs_steps: Arc<Counter>,
}

impl RankedSolver {
    /// Build from a mesh, an ownership assignment, and the same physical
    /// configuration as the global solver. The inner solver's own metrics
    /// bind to a detached registry: ranked steps record only
    /// `lbm.ranked.*`.
    pub fn new(mesh: FluidMesh, assignment: RankAssignment, config: SolverConfig) -> Self {
        assert_eq!(assignment.owner.len(), mesh.len(), "assignment size");
        let owner = &assignment.owner[..];

        // Receive sets: for each rank, the remote cells its pull updates
        // read, as `(owner, cell)` ascending. (The AA odd step reads the
        // same neighbor cells — only the slot within the neighbor's row
        // differs — so one construction serves both.)
        let mut recv = vec![Vec::new(); assignment.n_ranks];
        for cell in 0..mesh.len() {
            let me = owner[cell];
            for &nb in mesh.neighbor_row(cell) {
                if nb != SOLID && owner[nb as usize] != me {
                    recv[me as usize].push((owner[nb as usize], nb));
                }
            }
        }
        // Halo rows rank by rank; `starts[r]..starts[r + 1]` are rank r's.
        let (mut rows, mut starts, mut messages) = (Vec::new(), vec![0], Vec::new());
        for set in &mut recv {
            set.sort_unstable();
            set.dedup();
            for group in set.chunk_by(|a, b| a.0 == b.0) {
                messages.push((group[0].0, group.len() as u64));
            }
            rows.extend_from_slice(set);
            starts.push(rows.len());
        }
        let copy_of = |cell: usize, from: usize| {
            let (me, them) = (owner[cell], owner[from]);
            (me != them).then(|| {
                let mine = &rows[starts[me as usize]..starts[me as usize + 1]];
                let row = mine.binary_search(&(them, from as u32));
                starts[me as usize] + row.expect("every remote read has a halo row")
            })
        };
        let copies = rows.iter().map(|&(_, cell)| cell).collect();
        let solver = Solver::with_halo(mesh, config, &Registry::new(), copies, copy_of);

        let reg = hemocloud_obs::global();
        Self {
            solver,
            messages,
            ledgers: vec![CommLedger::default(); assignment.n_ranks],
            obs_halo_bytes: reg.counter("lbm.ranked.halo_bytes"),
            obs_halo_messages: reg.counter("lbm.ranked.halo_messages"),
            obs_steps: reg.counter("lbm.ranked.steps"),
        }
    }

    /// Rebind this solver's metrics to `registry` (default: the global
    /// registry). Tests use private registries so their counters start
    /// at zero and cannot be polluted by concurrently running tests.
    pub fn use_registry(&mut self, registry: &Registry) {
        self.obs_halo_bytes = registry.counter("lbm.ranked.halo_bytes");
        self.obs_halo_messages = registry.counter("lbm.ranked.halo_messages");
        self.obs_steps = registry.counter("lbm.ranked.steps");
    }

    fn clear_ledgers(&mut self) {
        self.ledgers.fill(CommLedger::default());
    }

    /// Exchange phase: refresh every halo row and charge each sending
    /// rank's ledger — 19 values per shipped point at the storage
    /// precision.
    fn exchange(&mut self) {
        self.clear_ledgers();
        self.solver.exchange();
        let point_bytes = (Q19 * self.solver.config().kernel.precision.bytes()) as u64;
        for &(sender, points) in &self.messages {
            let bytes = points * point_bytes;
            let ledger = &mut self.ledgers[sender as usize];
            ledger.bytes_sent += bytes;
            ledger.messages_sent += 1;
            self.obs_halo_bytes.add(bytes);
            self.obs_halo_messages.inc();
        }
    }

    /// Advance one timestep. AB exchanges every step; AA exchanges only
    /// before odd steps (the even step is cell-local — the ledgers record
    /// genuinely zero traffic for it). Like the global solver, the sweep
    /// runs on the persistent shared worker pool when the mesh is large
    /// enough — no OS threads are spawned per step.
    pub fn step(&mut self) {
        self.step_with_workers(self.solver.default_workers());
    }

    /// Advance one timestep with an explicit logical worker count (≥ 1).
    /// Bit-identical for every count — same guarantee, and same test
    /// purpose, as [`Solver::step_with_workers`].
    pub fn step_with_workers(&mut self, workers: usize) {
        let even = self.solver.steps_taken().is_multiple_of(2);
        if even && self.solver.config().kernel.propagation == Propagation::Aa {
            self.clear_ledgers();
        } else {
            self.exchange();
        }
        self.solver.advance(workers);
        self.obs_steps.inc();
    }

    /// The solver every rank updates: its state, configuration and
    /// readouts.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Per-rank communication ledgers for the most recent step.
    pub fn ledgers(&self) -> &[CommLedger] {
        &self.ledgers
    }

    /// Raw f64 distributions — [`Solver::distributions`] of the inner
    /// solver, so it panics for f32 storage.
    pub fn distributions(&self) -> &[f64] {
        self.solver.distributions()
    }

    /// Maximum bytes sent by any rank in the most recent step.
    pub fn max_bytes_sent(&self) -> u64 {
        self.ledgers.iter().map(|l| l.bytes_sent).max().unwrap_or(0)
    }

    /// Maximum messages sent by any rank in the most recent step.
    pub fn max_messages_sent(&self) -> u64 {
        self.ledgers
            .iter()
            .map(|l| l.messages_sent)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelConfig, Layout, Precision, SimdPath};
    use crate::solver::tests::{
        check_table, lumpy_mesh, oracle_execs, oracle_meshes, randomize, reference_step,
        stored_bits, ORACLE_STEPS,
    };
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_rt::check::{self, Config};

    fn cylinder_mesh() -> FluidMesh {
        let g = CylinderSpec::default()
            .with_dimensions(3.0, 12.0)
            .with_resolution(8)
            .build();
        FluidMesh::build(&g)
    }

    /// Split cells into `n` contiguous slabs by fluid-cell index.
    fn slab_assignment(n_cells: usize, n_ranks: usize) -> RankAssignment {
        let per = n_cells.div_ceil(n_ranks);
        let owner = (0..n_cells).map(|c| (c / per) as u32).collect();
        RankAssignment::new(owner, n_ranks)
    }

    #[test]
    fn ranked_matches_the_global_solver_bitwise_for_every_exec_and_worker_count() {
        // The ranked half of the execution oracle, and the integration
        // check between the LBM and decomposition machinery: for all eight
        // runtime kernel configs, halo-mediated execution at every lane
        // type and 1/2/3/8 logical workers stores exactly the bits of the
        // global scalar, one-worker solver — remote reads from the halo
        // rows see the pre-step values the global solver reads in place.
        // The halo ledgers are a pure function of mesh, assignment
        // and kernel, so they must be *equal* across all of those, not
        // merely equivalent.
        for (name, mesh) in oracle_meshes() {
            let assignment = slab_assignment(mesh.len(), 4);
            for precision in [Precision::Double, Precision::Single] {
                for prop in [Propagation::Ab, Propagation::Aa] {
                    for layout in [Layout::Aos, Layout::Soa] {
                        let config = SolverConfig {
                            parallel: false,
                            simd: SimdPath::Scalar,
                            kernel: KernelConfig::sparse_with_precision(prop, layout, precision),
                            ..Default::default()
                        };
                        let mut global_solver = Solver::new(mesh.clone(), config);
                        global_solver.bump_first_cell(0.01);
                        for _ in 0..ORACLE_STEPS {
                            global_solver.step_with_workers(1);
                        }
                        let global = stored_bits(&global_solver);
                        let mut ledgers: Option<Vec<CommLedger>> = None;
                        for simd in oracle_execs() {
                            for workers in [1usize, 2, 3, 8] {
                                let what = format!(
                                    "{} on the {name}: {simd:?}, {workers} workers",
                                    config.kernel.name()
                                );
                                let mut ranked = RankedSolver::new(
                                    mesh.clone(),
                                    assignment.clone(),
                                    SolverConfig { simd, ..config },
                                );
                                ranked.solver.bump_first_cell(0.01);
                                for _ in 0..ORACLE_STEPS {
                                    ranked.step_with_workers(workers);
                                }
                                assert!(
                                    global == stored_bits(ranked.solver()),
                                    "ranked diverged from global: {what}"
                                );
                                if prop == Propagation::Ab {
                                    // Reads through the halo rows reach the
                                    // live slots they copy.
                                    for cell in 0..mesh.len() {
                                        assert_eq!(
                                            global_solver.post_stream_macroscopics(cell),
                                            ranked.solver().post_stream_macroscopics(cell),
                                            "post-stream moments at cell {cell}: {what}"
                                        );
                                    }
                                }
                                let reference =
                                    ledgers.get_or_insert_with(|| ranked.ledgers.clone());
                                assert_eq!(
                                    reference, &ranked.ledgers,
                                    "halo ledgers moved: {what}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slot_table_and_halo_match_the_per_read_reference_on_random_lumpy_meshes() {
        // For every kernel config, on a global solver and on a random rank
        // assignment: the slot table, its halo redirects and the scatter
        // targets equal the per-read reference gather it replaced, and two
        // steps (both AA parities) from random states store exactly the
        // reference step's bits.
        check::run(
            "slot_table_and_halo_match_the_per_read_reference_on_random_lumpy_meshes",
            Config::cases(48),
            |rng| {
                let mesh = lumpy_mesh(rng);
                let n_ranks = rng.range_usize(2, 5);
                let owner: Vec<u32> = (0..mesh.len())
                    .map(|_| rng.range_usize(0, n_ranks) as u32)
                    .collect();
                for precision in [Precision::Double, Precision::Single] {
                    for prop in [Propagation::Ab, Propagation::Aa] {
                        for layout in [Layout::Aos, Layout::Soa] {
                            let kernel =
                                KernelConfig::sparse_with_precision(prop, layout, precision);
                            let config = SolverConfig {
                                parallel: false,
                                kernel,
                                ..Default::default()
                            };
                            let mut global = Solver::new_in(mesh.clone(), config, &Registry::new());
                            let assignment = RankAssignment::new(owner.clone(), n_ranks);
                            let mut ranked = RankedSolver::new(mesh.clone(), assignment, config);
                            check_table(&global, &mesh, None);
                            check_table(&ranked.solver, &mesh, Some(&owner));
                            for step in 0..2 {
                                randomize(&mut global, rng);
                                let expected = reference_step(&global, &mesh);
                                global.step_with_workers(1);
                                assert!(
                                    stored_bits(&global) == expected,
                                    "{}: global step {step} left the reference",
                                    kernel.name()
                                );
                                randomize(&mut ranked.solver, rng);
                                let expected = reference_step(&ranked.solver, &mesh);
                                ranked.step_with_workers(1);
                                assert!(
                                    stored_bits(&ranked.solver) == expected,
                                    "{}: ranked step {step} left the reference",
                                    kernel.name()
                                );
                            }
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn single_rank_sends_nothing() {
        let mesh = cylinder_mesh();
        let assignment = slab_assignment(mesh.len(), 1);
        let mut s = RankedSolver::new(mesh, assignment, SolverConfig::default());
        s.step();
        assert_eq!(s.max_bytes_sent(), 0);
        assert_eq!(s.max_messages_sent(), 0);
    }

    #[test]
    fn aa_exchanges_only_before_odd_steps() {
        // AA halves the exchange count: even steps are cell-local and
        // must charge no ledger at all; odd steps exchange the same
        // boundary set AB does.
        let mesh = cylinder_mesh();
        let assignment = slab_assignment(mesh.len(), 4);
        let config = SolverConfig {
            kernel: KernelConfig::sparse(Propagation::Aa, Layout::Aos),
            ..Default::default()
        };
        let mut s = RankedSolver::new(mesh, assignment, config);
        s.step(); // step 0: even, local
        assert_eq!(s.max_bytes_sent(), 0, "even AA step must not exchange");
        assert_eq!(s.max_messages_sent(), 0);
        s.step(); // step 1: odd, exchanges
        assert!(s.max_bytes_sent() > 0, "odd AA step must exchange");
        assert!(s.max_messages_sent() > 0);
    }

    #[test]
    fn aa_ranked_never_allocates_the_scratch_array() {
        let mesh = cylinder_mesh();
        let n = mesh.len();
        let assignment = slab_assignment(n, 4);
        let aa = RankedSolver::new(
            mesh.clone(),
            assignment.clone(),
            SolverConfig {
                kernel: KernelConfig::sparse(Propagation::Aa, Layout::Soa),
                ..Default::default()
            },
        );
        let ab = RankedSolver::new(mesh, assignment, SolverConfig::default());
        assert_eq!(aa.solver().distribution_bytes(), n * Q19 * 8);
        assert_eq!(ab.solver().distribution_bytes(), 2 * n * Q19 * 8);
    }

    #[test]
    fn more_ranks_means_more_communication() {
        let mesh = cylinder_mesh();
        let mut totals = Vec::new();
        for n_ranks in [2usize, 4, 8] {
            let assignment = slab_assignment(mesh.len(), n_ranks);
            let mut s = RankedSolver::new(mesh.clone(), assignment, SolverConfig::default());
            s.step();
            let total: u64 = s.ledgers().iter().map(|l| l.bytes_sent).sum();
            totals.push(total);
            assert!(total > 0);
        }
        assert!(
            totals[2] > totals[0],
            "8 ranks should exchange more than 2: {totals:?}"
        );
    }

    #[test]
    fn ledger_messages_bounded_by_rank_pairs() {
        let mesh = cylinder_mesh();
        let n_ranks = 4;
        let assignment = slab_assignment(mesh.len(), n_ranks);
        let mut s = RankedSolver::new(mesh, assignment, SolverConfig::default());
        s.step();
        for l in s.ledgers() {
            assert!(l.messages_sent <= (n_ranks - 1) as u64);
        }
    }

    #[test]
    fn measured_halo_traffic_matches_decomp_analysis() {
        // The measured ledgers must agree *exactly* with the static census
        // the direct model's Eq. 9 communication terms are built from:
        // `DecompAnalysis.messages[a][b]` counts the boundary points rank
        // `a` ships to `b` each step, and the solver moves all Q19
        // distributions per shipped point at the storage precision
        // (19 × 8 bytes for f64, 19 × 4 for f32). Both sides see the same
        // RCB partition, so the executed exchange schedule is the model's
        // message graph realized.
        use hemocloud_decomp::halo::DecompAnalysis;
        use hemocloud_decomp::partition::Ownership;
        use hemocloud_decomp::rcb::RcbPartition;

        let grid = CylinderSpec::default()
            .with_dimensions(3.0, 12.0)
            .with_resolution(8)
            .build();
        let mesh = FluidMesh::build(&grid);
        let n_ranks = 4;
        let rcb = RcbPartition::new(&grid, n_ranks);
        let analysis = DecompAnalysis::analyze(&grid, &rcb);

        let owner: Vec<u32> = (0..mesh.len())
            .map(|cell| {
                let (x, y, z) = mesh.coords(cell);
                rcb.owner(x, y, z) as u32
            })
            .collect();
        let assignment = RankAssignment::new(owner, n_ranks);

        for (precision, value_bytes) in [(Precision::Double, 8u64), (Precision::Single, 4)] {
            let registry = Registry::new();
            let config = SolverConfig {
                kernel: KernelConfig::sparse_with_precision(
                    Propagation::Ab,
                    Layout::Soa,
                    precision,
                ),
                ..Default::default()
            };
            let mut s = RankedSolver::new(mesh.clone(), assignment.clone(), config);
            s.use_registry(&registry);
            s.step(); // AB: one exchange per step

            let point_bytes = Q19 as u64 * value_bytes;
            let mut total_bytes = 0u64;
            let mut total_messages = 0u64;
            for (rank, ledger) in s.ledgers().iter().enumerate() {
                let send_points: usize = analysis.messages[rank].values().sum();
                let peers = analysis.messages[rank].len() as u64;
                assert_eq!(
                    ledger.bytes_sent,
                    send_points as u64 * point_bytes,
                    "{precision:?} rank {rank}: measured bytes diverge from Eq. 9 accounting"
                );
                assert_eq!(
                    ledger.messages_sent, peers,
                    "{precision:?} rank {rank}: measured message count diverges from peer count"
                );
                total_bytes += ledger.bytes_sent;
                total_messages += ledger.messages_sent;
            }
            assert!(total_bytes > 0, "RCB at 4 ranks must communicate");

            // The cumulative observability counters carry the same totals.
            let snap = registry.snapshot();
            assert_eq!(snap.counter("lbm.ranked.halo_bytes"), Some(total_bytes));
            assert_eq!(
                snap.counter("lbm.ranked.halo_messages"),
                Some(total_messages)
            );
            assert_eq!(snap.counter("lbm.ranked.steps"), Some(1));
        }
    }
}
