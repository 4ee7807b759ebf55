//! Rank-decomposed execution with explicit halo exchange.
//!
//! HARVEY runs under MPI: the mesh is split among ranks, each rank updates
//! its own cells, and boundary distributions are exchanged every step. This
//! module reproduces that structure in-process: each rank owns a set of
//! fluid cells, remote reads go through per-step halo snapshots, and the
//! per-rank message ledger records exactly the bytes and events the
//! performance model costs (paper Eqs. 5, 13, 15).
//!
//! The ranked solver honors the same runtime
//! [`crate::solver::SolverConfig::kernel`] as the global solver:
//!
//! * **AB**: exchange before every step, pull-stream into `f_tmp`, swap.
//! * **AA**: the even step is purely cell-local, so *no exchange happens
//!   at all* (the ledgers record zero traffic — AA halves the exchange
//!   count on top of halving index traffic). Before an odd step the
//!   boundary is snapshotted as usual; remote *reads* come from the
//!   snapshot and remote *writes* (the scatter into `+c_q` neighbors)
//!   land directly in the distribution array — the push half of the
//!   exchange. This is MPI-faithful: the AA odd step's write set equals
//!   its read set per cell and the sets are disjoint across cells
//!   (see `crate::solver` module docs), so no rank can observe another
//!   rank's current-step writes through its own reads.
//!
//! This type is a thin shell: the ownership assignment, the receive sets,
//! the halo snapshot, the ledgers and `exchange()`. The update itself is
//! the global solver's one collide–stream body
//! (`crate::solver::Sweep`) walking the same per-kind cell lists, with
//! one difference — its `Remote` policy routes every cross-rank read
//! through the snapshot. That routing is what makes "ranked == global,
//! bit for bit" (the oracle test at the bottom) a real check of the
//! receive sets: a cell missing from one reads a stale snapshot slot and
//! the bits diverge.

use crate::kernel::{KernelConfig, Precision, Propagation, SimdPath};
use crate::lattice::Q19;
use crate::mesh::{FluidMesh, SOLID};
use crate::solver::{
    default_workers, flat_index, poiseuille_profile_for, rest_distributions, KindLists, Remote,
    SolverConfig, Sweep,
};
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

/// The ranked solver's remote-read policy: a slot owned by another rank is
/// read from the exchange-phase snapshot, never from the live array — so a
/// rank cannot observe another rank's *current-step* writes.
struct Halo<'a> {
    owner: &'a [u32],
    /// Indexed like the distribution array; valid only for cells in some
    /// rank's receive set.
    snapshot: &'a [f64],
}

impl Remote<f64> for Halo<'_> {
    #[inline(always)]
    fn fetch(&self, cell: usize, from: usize, idx: usize) -> Option<f64> {
        (self.owner[from] != self.owner[cell]).then(|| self.snapshot[idx])
    }
}

/// A rank-decomposed solver over a shared mesh.
///
/// Implementation note: distributions live in one global array (we are one
/// process), but every cross-rank read goes through `halo`, a snapshot of
/// boundary values taken during the exchange phase — so the information
/// flow is exactly MPI-like.
pub struct RankedSolver {
    mesh: FluidMesh,
    assignment: RankAssignment,
    f: Vec<f64>,
    /// Second distribution array — AB only; AA streams in place and this
    /// stays empty, same as the global solver.
    f_tmp: Vec<f64>,
    /// Snapshot of remote distributions needed by each rank, rebuilt each
    /// exchange: indexed by the configured layout, valid only for cells in
    /// some rank's receive set.
    halo: Vec<f64>,
    /// For each rank, the list of (remote cell) indices it must receive
    /// before updating, grouped by sending rank for message accounting.
    recv_sets: Vec<Vec<(u32, Vec<u32>)>>,
    omega: f64,
    inlet_slot: Vec<u32>,
    inlet_vel: Vec<[f64; 3]>,
    /// Cells by update kind — the lists the shared body walks.
    kinds: KindLists,
    /// Same meaning as the [`SolverConfig`] fields of the same names.
    parallel: bool,
    kernel: KernelConfig,
    simd: SimdPath,
    steps_taken: u64,
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
    /// configuration as the global solver.
    pub fn new(mesh: FluidMesh, assignment: RankAssignment, config: SolverConfig) -> Self {
        assert_eq!(assignment.owner.len(), mesh.len(), "assignment size");
        config.check();
        assert!(
            config.kernel.precision == Precision::Double,
            "ranked execution stores f64; other precisions are supported by the global Solver only"
        );
        let n = mesh.len();
        let f = rest_distributions(config.kernel.layout, n);
        let f_tmp = match config.kernel.propagation {
            Propagation::Ab => f.clone(),
            Propagation::Aa => Vec::new(),
        };

        // Receive sets: for each rank, the remote cells read by its pull
        // updates, grouped by owner. (The AA odd step reads the same
        // neighbor cells — only the slot within the neighbor's row
        // differs — so one receive-set construction serves both.)
        let mut recv: Vec<std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>>> =
            vec![Default::default(); assignment.n_ranks];
        for cell in 0..n {
            let me = assignment.owner[cell];
            for q in 0..Q19 {
                let nb = mesh.neighbor(cell, q);
                if nb != SOLID {
                    let owner = assignment.owner[nb as usize];
                    if owner != me {
                        recv[me as usize].entry(owner).or_default().insert(nb);
                    }
                }
            }
        }
        let recv_sets: Vec<Vec<(u32, Vec<u32>)>> = recv
            .into_iter()
            .map(|m| {
                m.into_iter()
                    .map(|(owner, cells)| (owner, cells.into_iter().collect()))
                    .collect()
            })
            .collect();

        // Identical inlet boundary data to the global solver.
        let (inlet_slot, inlet_vel) = poiseuille_profile_for(&mesh, &config);

        let ledgers = vec![CommLedger::default(); assignment.n_ranks];
        let reg = hemocloud_obs::global();
        Self {
            f_tmp,
            halo: vec![0.0; n * Q19],
            f,
            kinds: KindLists::build(&mesh),
            mesh,
            assignment,
            recv_sets,
            omega: 1.0 / config.tau,
            inlet_slot,
            inlet_vel,
            parallel: config.parallel,
            kernel: config.kernel,
            simd: config.simd,
            steps_taken: 0,
            ledgers,
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
        for ledger in &mut self.ledgers {
            ledger.bytes_sent = 0;
            ledger.messages_sent = 0;
        }
    }

    /// Exchange phase: snapshot every boundary distribution into `halo` and
    /// charge each sending rank's ledger.
    fn exchange(&mut self) {
        self.clear_ledgers();
        let n = self.mesh.len();
        let layout = self.kernel.layout;
        for groups in self.recv_sets.iter() {
            for (sender, cells) in groups {
                let mut bytes = 0u64;
                for &cell in cells {
                    for q in 0..Q19 {
                        let i = flat_index(layout, cell as usize, q, n);
                        self.halo[i] = self.f[i];
                    }
                    bytes += (Q19 * std::mem::size_of::<f64>()) as u64;
                }
                let ledger = &mut self.ledgers[*sender as usize];
                ledger.bytes_sent += bytes;
                ledger.messages_sent += 1;
                self.obs_halo_bytes.add(bytes);
                self.obs_halo_messages.inc();
            }
        }
    }

    /// Advance one timestep. AB exchanges every step; AA exchanges only
    /// before odd steps (the even step is cell-local — the ledgers record
    /// genuinely zero traffic for it). Like the global solver, the sweep
    /// runs on the persistent shared worker pool when the mesh is large
    /// enough — no OS threads are spawned per step.
    pub fn step(&mut self) {
        self.step_with_workers(default_workers(self.parallel, self.mesh.len()));
    }

    /// Advance one timestep with an explicit logical worker count (≥ 1).
    /// Bit-identical for every count — same guarantee, and same test
    /// purpose, as [`crate::solver::Solver::step_with_workers`].
    pub fn step_with_workers(&mut self, workers: usize) {
        let even = self.steps_taken.is_multiple_of(2);
        if even && self.kernel.propagation == Propagation::Aa {
            self.clear_ledgers();
        } else {
            self.exchange();
        }
        Sweep {
            mesh: &self.mesh,
            kinds: &self.kinds,
            omega: self.omega,
            inlet_slot: &self.inlet_slot,
            inlet_vel: &self.inlet_vel,
            remote: Halo {
                owner: &self.assignment.owner,
                snapshot: &self.halo,
            },
        }
        .advance(
            &self.kernel,
            even,
            self.simd,
            &mut self.f,
            &mut self.f_tmp,
            workers,
        );
        self.steps_taken += 1;
        self.obs_steps.inc();
    }

    /// Per-rank communication ledgers for the most recent step.
    pub fn ledgers(&self) -> &[CommLedger] {
        &self.ledgers
    }

    /// Raw distributions (storage order: the configured layout; natural
    /// direction order only after an even number of AA steps).
    pub fn distributions(&self) -> &[f64] {
        &self.f
    }

    /// The ownership assignment.
    pub fn assignment(&self) -> &RankAssignment {
        &self.assignment
    }

    /// The instruction path the per-rank sweeps execute — same labels as
    /// [`crate::solver::Solver::simd_label`].
    pub fn simd_label(&self) -> &'static str {
        self.simd.label()
    }

    /// Bytes resident in distribution arrays (`f` plus `f_tmp` when
    /// allocated) — AA halves this, exactly as in the global solver.
    pub fn distribution_bytes(&self) -> usize {
        (self.f.len() + self.f_tmp.len()) * std::mem::size_of::<f64>()
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
    use crate::kernel::Layout;
    use crate::solver::tests::{oracle_execs, oracle_meshes, ORACLE_STEPS};
    use crate::solver::Solver;
    use hemocloud_geometry::anatomy::CylinderSpec;

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
        // check between the LBM and decomposition machinery: for the four
        // f64 kernel configs, halo-mediated execution at every lane type
        // and 1/2/3/8 logical workers stores exactly the bits of the
        // global scalar, one-worker solver — remote reads from the
        // snapshot see the pre-step values the global solver reads in
        // place. The halo ledgers are a pure function of mesh, assignment
        // and kernel, so they must be *equal* across all of those, not
        // merely equivalent.
        for (name, mesh) in oracle_meshes() {
            let assignment = slab_assignment(mesh.len(), 4);
            for prop in [Propagation::Ab, Propagation::Aa] {
                for layout in [Layout::Aos, Layout::Soa] {
                    let config = SolverConfig {
                        parallel: false,
                        simd: SimdPath::Scalar,
                        kernel: KernelConfig::sparse(prop, layout),
                        ..Default::default()
                    };
                    let mut global = Solver::new(mesh.clone(), config);
                    global.bump_first_cell(0.01);
                    for _ in 0..ORACLE_STEPS {
                        global.step_with_workers(1);
                    }
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
                            ranked.f[0] += 0.01; // the same bump as the global solver's
                            for _ in 0..ORACLE_STEPS {
                                ranked.step_with_workers(workers);
                            }
                            assert!(
                                global.distributions() == ranked.distributions(),
                                "ranked diverged from global: {what}"
                            );
                            let reference = ledgers.get_or_insert_with(|| ranked.ledgers.clone());
                            assert_eq!(reference, &ranked.ledgers, "halo ledgers moved: {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ranked execution stores f64")]
    fn single_precision_ranked_is_rejected() {
        let mesh = cylinder_mesh();
        let assignment = slab_assignment(mesh.len(), 2);
        let _ = RankedSolver::new(
            mesh,
            assignment,
            SolverConfig {
                kernel: KernelConfig::sparse_with_precision(
                    Propagation::Ab,
                    Layout::Soa,
                    Precision::Single,
                ),
                ..Default::default()
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
        assert_eq!(aa.distribution_bytes(), n * Q19 * 8);
        assert_eq!(ab.distribution_bytes(), 2 * n * Q19 * 8);
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
        // distributions (19 × 8 bytes) per shipped point. Both sides see
        // the same RCB partition, so the executed exchange schedule is the
        // model's message graph realized.
        use hemocloud_decomp::halo::DecompAnalysis;
        use hemocloud_decomp::rcb::RcbPartition;
        use hemocloud_geometry::anatomy::CylinderSpec;

        let grid = CylinderSpec::default()
            .with_dimensions(3.0, 12.0)
            .with_resolution(8)
            .build();
        let mesh = FluidMesh::build(&grid);
        let n_ranks = 4;
        let rcb = RcbPartition::new(&grid, n_ranks);
        let analysis = DecompAnalysis::analyze(&grid, &rcb);

        use hemocloud_decomp::partition::Ownership;
        let owner: Vec<u32> = (0..mesh.len())
            .map(|cell| {
                let (x, y, z) = mesh.coords(cell);
                rcb.owner(x, y, z) as u32
            })
            .collect();
        let assignment = RankAssignment::new(owner, n_ranks);

        let registry = Registry::new();
        let mut s = RankedSolver::new(mesh, assignment, SolverConfig::default());
        s.use_registry(&registry);
        s.step(); // AB: one exchange per step

        let point_bytes = (Q19 * std::mem::size_of::<f64>()) as u64;
        let mut total_bytes = 0u64;
        let mut total_messages = 0u64;
        for (rank, ledger) in s.ledgers().iter().enumerate() {
            let send_points: usize = analysis.messages[rank].values().sum();
            let peers = analysis.messages[rank].len() as u64;
            assert_eq!(
                ledger.bytes_sent,
                send_points as u64 * point_bytes,
                "rank {rank}: measured bytes diverge from Eq. 9 accounting"
            );
            assert_eq!(
                ledger.messages_sent, peers,
                "rank {rank}: measured message count diverges from peer count"
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
