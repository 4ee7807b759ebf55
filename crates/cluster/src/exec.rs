//! The workload timing engine: "running" a decomposed LBM simulation on a
//! simulated platform.
//!
//! This is the measurement side of every model-vs-actual experiment
//! (paper Figs. 3, 4, 7, 8 and Table IV). Per timestep, each task pays
//!
//! * a **memory** term: its Eq. 9 byte count — inflated by a traffic
//!   factor for effects byte-counting misses (write-allocate, partial
//!   lines) — divided by its even share of the node's two-line bandwidth
//!   at an LBM-vs-STREAM efficiency < 1;
//! * a **communication** term: its halo messages over the intranodal or
//!   internodal link, each carrying a software overhead beyond wire
//!   latency, serialized per task;
//! * a per-step **synchronization overhead**; and the step time is the
//!   maximum over tasks, scaled by temporally correlated noise.
//!
//! The traffic factor, efficiency, software overhead and sync cost are the
//! *deliberately unmodeled* terms ([`Overheads`]): the performance model
//! divides plain byte counts by STREAM bandwidth and PingPong-fit link
//! parameters, so it consistently overpredicts these simulated
//! measurements — reproducing the paper's central observation.

use crate::memory;
use crate::network::{message_time_s, LinkKind};
use crate::noise::NoiseProcess;
use crate::platform::Platform;
use crate::topology::{build_topology, routed_task_comm, CommModel, Member};
use hemocloud_decomp::census::CensusEntry;
use hemocloud_fabric::{Flow, Topology};
use hemocloud_decomp::placement::Placement;
use hemocloud_geometry::classify::measured_avg_solid_links;
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::access_profile::AccessProfile;
use hemocloud_lbm::kernel::KernelConfig;
use std::sync::Arc;

/// Real-machine effects the performance model does not know about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Fraction of STREAM-copy bandwidth LBM kernels sustain (< 1: gather
    /// access patterns, TLB pressure).
    pub lbm_bandwidth_efficiency: f64,
    /// Actual memory traffic relative to counted bytes (> 1:
    /// write-allocate fills, partial cache lines on wall points).
    pub memory_traffic_factor: f64,
    /// Per-message MPI software cost beyond wire latency, µs.
    pub message_software_overhead_us: f64,
    /// Per-step synchronization/imbalance cost, µs.
    pub step_sync_overhead_us: f64,
    /// Cores per node assumed busy with *other tenants'* work — the
    /// shared-node scenario of the paper's Discussion ("memory bandwidth
    /// usage by other users on the node ... may be an assumption of full
    /// or partial usage of the other cores"). 0 = node-exclusive
    /// allocation, the paper's default.
    pub cotenant_cores_per_node: usize,
}

impl Default for Overheads {
    fn default() -> Self {
        Self {
            lbm_bandwidth_efficiency: 0.80,
            memory_traffic_factor: 1.30,
            message_software_overhead_us: 1.5,
            step_sync_overhead_us: 8.0,
            cotenant_cores_per_node: 0,
        }
    }
}

impl Overheads {
    /// An idealized machine with none of the unmodeled effects — useful in
    /// tests to verify the engine converges to the model's own arithmetic.
    pub fn none() -> Self {
        Self {
            lbm_bandwidth_efficiency: 1.0,
            memory_traffic_factor: 1.0,
            message_software_overhead_us: 0.0,
            step_sync_overhead_us: 0.0,
            cotenant_cores_per_node: 0,
        }
    }
}

/// Layout/loop-structure efficiency of a kernel variant on CPUs, relative
/// to the best variant. Another *unmodeled* effect: byte counting cannot
/// see it, but measurements can — the paper observes AoS beating SoA for
/// the AB pattern ("expected ... for CPUs") yet not for AA, and the AA
/// advantage appearing "only for the unrolled kernels". Constants are
/// empirical, in line with the CPU layout studies the paper cites.
pub fn kernel_cpu_efficiency(config: &KernelConfig) -> f64 {
    use hemocloud_lbm::kernel::{Layout, Propagation};
    let layout = match (config.propagation, config.layout) {
        // AB streams strided gathers: AoS keeps each cell's 19 values on
        // adjacent lines, SoA scatters them across 19 pages — a large
        // enough gap that AoS wins even without unrolling (paper Fig. 4b).
        (Propagation::Ab, Layout::Aos) => 1.0,
        (Propagation::Ab, Layout::Soa) => 0.80,
        // AA's even step is purely cell-local, which suits SoA's
        // vectorization; the layouts roughly tie (paper Fig. 4a).
        (Propagation::Aa, Layout::Soa) => 1.0,
        (Propagation::Aa, Layout::Aos) => 0.96,
    };
    let loop_structure = if config.unrolled { 1.0 } else { 0.90 };
    layout * loop_structure
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedRun {
    /// Seconds per timestep (after noise).
    pub step_time_s: f64,
    /// Total wall-clock seconds.
    pub total_time_s: f64,
    /// Throughput in millions of fluid-point updates per second (Eq. 7).
    pub mflups: f64,
    /// Memory time of the critical (slowest) task, seconds/step.
    pub critical_mem_s: f64,
    /// Intranodal communication time of the critical task, seconds/step.
    pub critical_intra_s: f64,
    /// Internodal communication time of the critical task, seconds/step.
    pub critical_inter_s: f64,
    /// Nodes occupied.
    pub nodes_used: usize,
    /// The noise factor applied.
    pub noise_factor: f64,
}

/// A decomposed workload pinned to one platform, ready to run in
/// resumable time slices.
///
/// The expensive, step-count-independent preparation (RCB partition, halo
/// census, placement, per-task byte counts, kernel-variant overheads,
/// every task's memory / intranodal / internodal seconds per step and the
/// isolated critical path over them) is done once in
/// [`PreparedRun::new`]; [`PreparedRun::run_slice`] then times any window
/// of timesteps at any wall-clock hour from the cached critical path and
/// one noise draw. A campaign
/// scheduler uses this to advance a job slice by slice — checking guards
/// and injecting faults between slices — without re-decomposing the
/// geometry, and with the temporally correlated noise still following the
/// simulated clock.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    platform: Platform,
    /// Halo analysis and per-task Eq. 9 bytes of the decomposition.
    census: Arc<CensusEntry>,
    placement: Placement,
    comm_bytes_per_point: f64,
    /// Effective overheads with the kernel variant's CPU efficiency
    /// already folded in.
    overheads: Overheads,
    comm: CommModel,
    /// Every task's noise-free seconds per step, in task order.
    terms: Vec<TaskTerms>,
    /// The critical path with nothing else on the fabric: over the
    /// scalar internodal sums, or — a routed run — over its isolated
    /// per-task fabric prices on its own topology.
    isolated: CriticalPath,
}

/// One task's noise-free seconds per step. None of it depends on the
/// slice (`steps`, `seed`, `time_h`), so it is computed once per run.
#[derive(Debug, Clone, Copy)]
struct TaskTerms {
    /// Eq. 9 bytes over the task's share of its node's bandwidth.
    mem_s: f64,
    /// Send + receive of every intranodal halo message, serialized.
    intra_s: f64,
    /// The same over the internodal messages under the scalar Eq. 12/13
    /// model — the term a fabric price replaces.
    scalar_inter_s: f64,
}

/// The slowest task of a step and its three terms.
#[derive(Debug, Clone, Copy)]
struct CriticalPath {
    total_s: f64,
    mem_s: f64,
    intra_s: f64,
    inter_s: f64,
}

impl CriticalPath {
    /// The maximum of `mem + intra + inter` over tasks, task `t` paying
    /// `inter_s[t]` internodal seconds. Summed left to right and compared
    /// with a strict `>`, so among equal totals the first task is
    /// critical — the arithmetic of the per-slice loop this replaces,
    /// bit for bit.
    fn over(terms: &[TaskTerms], inter_s: impl Iterator<Item = f64>) -> Self {
        let mut worst = Self {
            total_s: 0.0,
            mem_s: 0.0,
            intra_s: 0.0,
            inter_s: 0.0,
        };
        for (task, inter_s) in terms.iter().zip(inter_s) {
            let total_s = task.mem_s + task.intra_s + inter_s;
            if total_s > worst.total_s {
                worst = Self {
                    total_s,
                    mem_s: task.mem_s,
                    intra_s: task.intra_s,
                    inter_s,
                };
            }
        }
        worst
    }
}

/// Whether `platform`'s allocation has the whole nodes `ranks` tasks need
/// at one rank per core.
fn hosts(platform: &Platform, ranks: usize) -> bool {
    platform.nodes_for_ranks(ranks) <= platform.max_nodes()
}

impl PreparedRun {
    /// Decompose `grid` into `ranks` fluid-balanced RCB subdomains at one
    /// rank per core (HARVEY's load-balancing style) and derive byte
    /// counts from the kernel's access profile. Communication is priced
    /// with the scalar Eq. 12 model; see [`PreparedRun::new_with_comm`]
    /// for the fabric-backed path.
    ///
    /// Returns `None` when the rank count is zero, needs more whole nodes
    /// than the platform has, or exceeds the geometry's fluid-point count.
    pub fn new(
        platform: &Platform,
        grid: &VoxelGrid,
        config: &KernelConfig,
        ranks: usize,
        overheads: &Overheads,
    ) -> Option<Self> {
        Self::new_with_comm(platform, grid, config, ranks, overheads, CommModel::Scalar)
    }

    /// [`PreparedRun::new`] with an explicit communication model: takes
    /// the grid's census at `ranks` and hands it to
    /// [`PreparedRun::from_census`]. A caller that holds the census
    /// already (a workload's, shared with its models) calls that instead.
    pub fn new_with_comm(
        platform: &Platform,
        grid: &VoxelGrid,
        config: &KernelConfig,
        ranks: usize,
        overheads: &Overheads,
        comm: CommModel,
    ) -> Option<Self> {
        if !hosts(platform, ranks) {
            return None; // before paying for a decomposition
        }
        let profile = AccessProfile::for_kernel(config, measured_avg_solid_links(grid));
        let (bulk, wall) = (profile.bulk_bytes, profile.wall_bytes);
        let census = Arc::new(CensusEntry::take(grid, ranks, bulk, wall).ok()?);
        let comm_bytes = profile.boundary_point_bytes;
        Self::from_census(platform, census, config, comm_bytes, overheads, comm)
    }

    /// Pin an already-taken decomposition census (its task count is the
    /// rank count; its byte sums must be `config`'s) to `platform`.
    /// `comm_bytes_per_point` is the kernel's boundary-point message size.
    /// With [`CommModel::Routed`], the run prices its messages once on a
    /// topology of `variant` sized to its own node count (identity node
    /// map) and caches the isolated per-task internodal comm; a campaign
    /// that wants cross-job contention instead prices the set of runs
    /// sharing a pool topology (`topology::routed_set_comm`) and calls
    /// [`PreparedRun::run_slice_priced`].
    ///
    /// Returns `None` when the ranks need more whole nodes than the
    /// platform has.
    pub fn from_census(
        platform: &Platform,
        census: Arc<CensusEntry>,
        config: &KernelConfig,
        comm_bytes_per_point: f64,
        overheads: &Overheads,
        comm: CommModel,
    ) -> Option<Self> {
        let ranks = census.analysis.n_tasks;
        if !hosts(platform, ranks) {
            return None;
        }
        assert_eq!(census.task_bytes.len(), ranks, "task_bytes length");
        let placement = Placement::contiguous(ranks, platform.cores_per_node);
        let overheads = Overheads {
            lbm_bandwidth_efficiency: overheads.lbm_bandwidth_efficiency
                * kernel_cpu_efficiency(config),
            ..*overheads
        };
        let terms = task_terms(platform, &census, &placement, comm_bytes_per_point, &overheads);
        let isolated = match comm {
            CommModel::Scalar => {
                CriticalPath::over(&terms, terms.iter().map(|task| task.scalar_inter_s))
            }
            CommModel::Routed(variant) => {
                let topology = build_topology(platform, variant, placement.n_nodes());
                let node_map: Vec<usize> = (0..placement.n_nodes()).collect();
                let routed = routed_task_comm(
                    &topology,
                    &census.analysis,
                    &placement,
                    &node_map,
                    comm_bytes_per_point,
                    overheads.message_software_overhead_us,
                    &[],
                );
                CriticalPath::over(&terms, routed.into_iter())
            }
        };
        Some(Self {
            platform: platform.clone(),
            census,
            placement,
            comm_bytes_per_point,
            overheads,
            comm,
            terms,
            isolated,
        })
    }

    /// Whole nodes the run occupies.
    pub fn nodes(&self) -> usize {
        self.placement.n_nodes()
    }

    /// Ranks (tasks) the run uses.
    pub fn ranks(&self) -> usize {
        self.census.analysis.n_tasks
    }

    /// Fluid points updated per timestep.
    pub fn fluid_points(&self) -> usize {
        self.census.analysis.total_points
    }

    /// This run's halo graph on physical nodes `node_map` of a shared
    /// topology — its entry in a co-scheduled set.
    pub(crate) fn member<'a>(&'a self, node_map: &'a [usize]) -> Member<'a> {
        Member {
            analysis: &self.census.analysis,
            placement: &self.placement,
            node_map,
            comm_bytes_per_point: self.comm_bytes_per_point,
            software_overhead_us: self.overheads.message_software_overhead_us,
        }
    }

    /// The Eq. 9 internodal message graph as fabric flows with local
    /// nodes mapped onto physical nodes via `node_map` — what this run
    /// adds to a shared pool fabric every step.
    pub fn flows(&self, node_map: &[usize], tag_base: u64) -> Vec<Flow> {
        crate::topology::job_flows(
            &self.census.analysis,
            &self.placement,
            node_map,
            self.comm_bytes_per_point,
            tag_base,
        )
    }

    /// Time a window of `steps` timesteps starting at wall-clock hour
    /// `time_h`. Slices of the same prepared run are independent noise
    /// draws (`seed` picks the stream; `time_h` moves the temporally
    /// correlated component), so resuming a run hour by hour reproduces
    /// the same variability a monolithic run would have seen.
    pub fn run_slice(&self, steps: u64, seed: u64, time_h: f64) -> SimulatedRun {
        self.timed(steps, seed, time_h, &self.isolated)
    }

    /// [`PreparedRun::run_slice`] with the internodal term supplied by
    /// the caller: `per_task_inter_s[t]` is task `t`'s internodal comm
    /// seconds per step — an entry of `topology::routed_set_comm` for
    /// the set of runs sharing the pool fabric. Memory, intranodal and
    /// sync terms are untouched. Requires a routed run (panics on a
    /// scalar one — the scalar model has no links to contend on) and
    /// finite, non-negative prices (a NaN would compare below every
    /// total and silently take its task off the critical path).
    pub fn run_slice_priced(
        &self,
        steps: u64,
        seed: u64,
        time_h: f64,
        per_task_inter_s: &[f64],
    ) -> SimulatedRun {
        assert!(
            matches!(self.comm, CommModel::Routed(_)),
            "a fabric-priced slice requires CommModel::Routed"
        );
        assert_eq!(per_task_inter_s.len(), self.ranks(), "one price per task");
        assert!(
            per_task_inter_s.iter().all(|&s| s.is_finite() && s >= 0.0),
            "internodal prices must be finite and non-negative"
        );
        let critical = CriticalPath::over(&self.terms, per_task_inter_s.iter().copied());
        self.timed(steps, seed, time_h, &critical)
    }

    /// [`PreparedRun::run_slice_priced`] for a single victim: this run's
    /// ranks live on physical nodes `node_map` of the shared `topology`,
    /// and `background` carries the concurrent jobs' flows (their
    /// [`PreparedRun::flows`] mapped through their own node sets), so the
    /// internodal term is recomputed under fair-share contention by an
    /// exchange of its own. A campaign prices whole sets instead
    /// (`topology::routed_set_comm`); this is the oracle that pricing is
    /// tested against.
    pub fn run_slice_contended(
        &self,
        steps: u64,
        seed: u64,
        time_h: f64,
        topology: &Topology,
        node_map: &[usize],
        background: &[Flow],
    ) -> SimulatedRun {
        let routed = routed_task_comm(
            topology,
            &self.census.analysis,
            &self.placement,
            node_map,
            self.comm_bytes_per_point,
            self.overheads.message_software_overhead_us,
            background,
        );
        self.run_slice_priced(steps, seed, time_h, &routed)
    }

    /// The timing engine's one entry: `critical` — the per-step maximum
    /// over tasks of memory + intranodal + internodal time (module docs),
    /// reduced once per run or once per price vector — plus the sync
    /// overhead, scaled by the noise factor at wall-clock hour `time_h`
    /// (`seed` fixes the noise stream).
    fn timed(&self, steps: u64, seed: u64, time_h: f64, critical: &CriticalPath) -> SimulatedRun {
        let mut noise = NoiseProcess::new(self.platform.noise_cv, seed);
        let noise_factor = noise.factor_at(time_h);
        let step_time_s =
            (critical.total_s + self.overheads.step_sync_overhead_us * 1e-6) * noise_factor;
        let total_time_s = step_time_s * steps as f64;
        let updates = self.census.analysis.total_points as f64 * steps as f64;

        SimulatedRun {
            step_time_s,
            total_time_s,
            mflups: if total_time_s > 0.0 {
                updates / total_time_s / 1e6
            } else {
                0.0
            },
            critical_mem_s: critical.mem_s,
            critical_intra_s: critical.intra_s,
            critical_inter_s: critical.inter_s,
            nodes_used: self.nodes(),
            noise_factor,
        }
    }
}

/// Every task's [`TaskTerms`] on `platform` under `placement`: the one
/// place the engine calls [`memory::memory_time_s`] and
/// [`message_time_s`]. Intranodal and internodal messages accumulate
/// separately, each in the census's message order.
fn task_terms(
    platform: &Platform,
    census: &CensusEntry,
    placement: &Placement,
    comm_bytes_per_point: f64,
    overheads: &Overheads,
) -> Vec<TaskTerms> {
    let tasks_per_node = placement.tasks_per_node();
    (0..census.analysis.n_tasks)
        .map(|task| {
            let node = placement.node_of(task);
            // Co-tenants saturate memory channels alongside our ranks: the
            // node curve is evaluated at the total active core count and our
            // task gets one even share of it.
            let on_node = (tasks_per_node[node] + overheads.cotenant_cores_per_node)
                .min(platform.cores_per_node)
                .max(1);
            let mem_s = memory::memory_time_s(
                platform,
                on_node,
                census.task_bytes[task] * overheads.memory_traffic_factor,
                overheads.lbm_bandwidth_efficiency,
            );

            let mut intra_s = 0.0;
            let mut scalar_inter_s = 0.0;
            for (&peer, &points) in &census.analysis.messages[task] {
                let bytes = points as f64 * comm_bytes_per_point;
                let kind = if placement.is_internodal(task, peer) {
                    LinkKind::Internodal
                } else {
                    LinkKind::Intranodal
                };
                // Send and matching receive, serialized per task (the paper's
                // factor of two in Eq. 13).
                let t = 2.0 * message_time_s(
                    platform,
                    kind,
                    bytes,
                    overheads.message_software_overhead_us,
                );
                match kind {
                    LinkKind::Intranodal => intra_s += t,
                    LinkKind::Internodal => scalar_inter_s += t,
                }
            }
            TaskTerms {
                mem_s,
                intra_s,
                scalar_inter_s,
            }
        })
        .collect()
}

/// Convenience wrapper: decompose `grid` into `ranks` fluid-balanced RCB
/// subdomains at one rank per core (HARVEY's load-balancing style), derive
/// byte counts from the kernel's access profile, and time `steps`
/// timesteps on `platform`.
///
/// Returns `None` when the rank count exceeds the platform's cores or the
/// geometry's fluid-point count.
#[allow(clippy::too_many_arguments)] // mirrors the experiment's free variables
pub fn simulate_geometry(
    platform: &Platform,
    grid: &VoxelGrid,
    config: &KernelConfig,
    ranks: usize,
    steps: u64,
    overheads: &Overheads,
    seed: u64,
    time_h: f64,
) -> Option<SimulatedRun> {
    PreparedRun::new(platform, grid, config, ranks, overheads)
        .map(|prepared| prepared.run_slice(steps, seed, time_h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_geometry::anatomy::CylinderSpec;

    fn cylinder() -> VoxelGrid {
        CylinderSpec::default().with_resolution(10).build()
    }

    #[test]
    fn more_ranks_run_faster_on_large_workloads() {
        // Strong scaling pays off only while per-task memory time dominates
        // message latency, so use a workload large enough for 64 ranks.
        let g = CylinderSpec::default().with_resolution(36).build();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let r8 = simulate_geometry(&p, &g, &cfg, 8, 100, &oh, 1, 0.0).unwrap();
        let r64 = simulate_geometry(&p, &g, &cfg, 64, 100, &oh, 1, 0.0).unwrap();
        assert!(
            r64.mflups > r8.mflups,
            "64 ranks {} !> 8 ranks {}",
            r64.mflups,
            r8.mflups
        );
    }

    #[test]
    fn tiny_workloads_roll_over_at_high_rank_counts() {
        // The flip side: on a small domain, internodal latency beats the
        // shrinking memory share and scaling inverts — the accelerated
        // drop the paper sees at high MPI ranks (its Figs. 7-8).
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let r8 = simulate_geometry(&p, &g, &cfg, 8, 100, &oh, 1, 0.0).unwrap();
        let r64 = simulate_geometry(&p, &g, &cfg, 64, 100, &oh, 1, 0.0).unwrap();
        assert!(
            r8.mflups > r64.mflups,
            "expected rollover: 8 ranks {} vs 64 ranks {}",
            r8.mflups,
            r64.mflups
        );
    }

    #[test]
    fn single_rank_has_no_communication() {
        let g = cylinder();
        let r = simulate_geometry(
            &Platform::trc(),
            &g,
            &KernelConfig::harvey(),
            1,
            10,
            &Overheads::default(),
            1,
            0.0,
        )
        .unwrap();
        assert_eq!(r.critical_intra_s, 0.0);
        assert_eq!(r.critical_inter_s, 0.0);
        assert!(r.critical_mem_s > 0.0);
        assert_eq!(r.nodes_used, 1);
    }

    #[test]
    fn internodal_comm_appears_past_one_node() {
        let g = cylinder();
        let p = Platform::csp1(); // 16 cores/node
        let r = simulate_geometry(
            &p,
            &g,
            &KernelConfig::harvey(),
            32,
            10,
            &Overheads::default(),
            1,
            0.0,
        )
        .unwrap();
        assert_eq!(r.nodes_used, 2);
        assert!(r.critical_inter_s > 0.0);
    }

    #[test]
    fn overheads_slow_the_machine_down() {
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let ideal = simulate_geometry(&p, &g, &cfg, 16, 10, &Overheads::none(), 1, 0.0).unwrap();
        let real =
            simulate_geometry(&p, &g, &cfg, 16, 10, &Overheads::default(), 1, 0.0).unwrap();
        assert!(
            real.mflups < ideal.mflups,
            "real {} !< ideal {}",
            real.mflups,
            ideal.mflups
        );
        // The gap is the consistent overprediction the models will show:
        // between ~1.2x and ~2.5x in the memory-bound regime.
        let ratio = ideal.mflups / real.mflups;
        assert!((1.2..2.5).contains(&ratio), "overprediction ratio {ratio}");
    }

    #[test]
    fn noise_varies_across_time_but_not_across_reruns() {
        let g = cylinder();
        let p = Platform::csp2_small();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let a = simulate_geometry(&p, &g, &cfg, 16, 10, &oh, 7, 0.0).unwrap();
        let b = simulate_geometry(&p, &g, &cfg, 16, 10, &oh, 7, 0.0).unwrap();
        assert_eq!(a, b, "same seed and time must reproduce");
        let c = simulate_geometry(&p, &g, &cfg, 16, 10, &oh, 7, 6.0).unwrap();
        assert_ne!(a.mflups, c.mflups, "different time should move noise");
    }

    #[test]
    fn oversubscription_returns_none() {
        let g = cylinder();
        // CSP-1 has 48 cores total.
        assert!(simulate_geometry(
            &Platform::csp1(),
            &g,
            &KernelConfig::harvey(),
            4096,
            10,
            &Overheads::default(),
            1,
            0.0
        )
        .is_none());
    }

    #[test]
    fn ec_beats_non_ec_at_scale() {
        // The interconnect study: with 4 nodes' worth of ranks, the EC
        // instance should outperform the plain one on the
        // communication-heavy cylinder.
        let g = cylinder();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let ec =
            simulate_geometry(&Platform::csp2_ec(), &g, &cfg, 144, 10, &oh, 3, 0.0).unwrap();
        let no_ec =
            simulate_geometry(&Platform::csp2(), &g, &cfg, 144, 10, &oh, 3, 0.0).unwrap();
        assert!(
            ec.mflups > no_ec.mflups,
            "EC {} !> no-EC {}",
            ec.mflups,
            no_ec.mflups
        );
    }

    #[test]
    fn layout_efficiency_matches_paper_observations() {
        use hemocloud_lbm::kernel::{Layout, Propagation};
        // AoS beats SoA for AB on CPUs...
        let ab_aos = kernel_cpu_efficiency(&KernelConfig::proxy(Layout::Aos, Propagation::Ab, true));
        let ab_soa = kernel_cpu_efficiency(&KernelConfig::proxy(Layout::Soa, Propagation::Ab, true));
        assert!(ab_aos > ab_soa);
        // ...but not for AA.
        let aa_aos = kernel_cpu_efficiency(&KernelConfig::proxy(Layout::Aos, Propagation::Aa, true));
        let aa_soa = kernel_cpu_efficiency(&KernelConfig::proxy(Layout::Soa, Propagation::Aa, true));
        assert!(aa_soa >= aa_aos);
        // Rolled loops always cost.
        let rolled = kernel_cpu_efficiency(&KernelConfig::proxy(Layout::Soa, Propagation::Ab, false));
        assert!(rolled < ab_soa);
    }

    #[test]
    fn simulated_ab_layouts_differ_but_aa_nearly_tie() {
        let g = cylinder();
        use hemocloud_lbm::kernel::{Layout, Propagation};
        let run = |layout, prop| {
            simulate_geometry(
                &Platform::csp2(),
                &g,
                &KernelConfig::proxy(layout, prop, true),
                16,
                10,
                &Overheads::default(),
                1,
                0.0,
            )
            .unwrap()
            .mflups
        };
        assert!(run(Layout::Aos, Propagation::Ab) > run(Layout::Soa, Propagation::Ab));
        assert!(run(Layout::Soa, Propagation::Aa) >= run(Layout::Aos, Propagation::Aa));
    }

    #[test]
    fn cotenants_slow_shared_nodes_down() {
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let exclusive = simulate_geometry(&p, &g, &cfg, 8, 10, &Overheads::default(), 1, 0.0)
            .unwrap();
        let shared = simulate_geometry(
            &p,
            &g,
            &cfg,
            8,
            10,
            &Overheads {
                cotenant_cores_per_node: 28, // rest of the 36-core node busy
                ..Default::default()
            },
            1,
            0.0,
        )
        .unwrap();
        assert!(
            shared.mflups < exclusive.mflups,
            "shared {} !< exclusive {}",
            shared.mflups,
            exclusive.mflups
        );
        // A full node of our own ranks sees no co-tenant effect (the node
        // has no spare cores to share).
        let full = simulate_geometry(&p, &g, &cfg, 36, 10, &Overheads::default(), 1, 0.0)
            .unwrap();
        let full_shared = simulate_geometry(
            &p,
            &g,
            &cfg,
            36,
            10,
            &Overheads {
                cotenant_cores_per_node: 28,
                ..Default::default()
            },
            1,
            0.0,
        )
        .unwrap();
        assert_eq!(full.mflups, full_shared.mflups);
    }

    #[test]
    fn prepared_run_matches_one_shot_simulation() {
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let prepared = PreparedRun::new(&p, &g, &cfg, 16, &oh).unwrap();
        let sliced = prepared.run_slice(10, 1, 0.0);
        let one_shot = simulate_geometry(&p, &g, &cfg, 16, 10, &oh, 1, 0.0).unwrap();
        assert_eq!(sliced, one_shot, "slice path must equal the one-shot path");
        assert_eq!(prepared.ranks(), 16);
        assert_eq!(prepared.nodes(), one_shot.nodes_used);
        assert_eq!(prepared.fluid_points(), g.fluid_count());
    }

    #[test]
    fn prepared_run_slices_compose_to_the_whole() {
        // Two back-to-back slices at the same hour/seed cover the same
        // steps as one long slice: per-step time is identical, so total
        // wall time adds exactly.
        let g = cylinder();
        let prepared = PreparedRun::new(
            &Platform::csp1(),
            &g,
            &KernelConfig::harvey(),
            8,
            &Overheads::default(),
        )
        .unwrap();
        let whole = prepared.run_slice(100, 5, 2.0);
        let a = prepared.run_slice(60, 5, 2.0);
        let b = prepared.run_slice(40, 5, 2.0);
        hemocloud_rt::float::assert_close(
            a.total_time_s + b.total_time_s,
            whole.total_time_s,
            0.0,
            4,
        );
        // Advancing the clock moves the correlated noise: a later slice
        // times differently.
        let later = prepared.run_slice(40, 5, 8.0);
        assert_ne!(later.step_time_s, b.step_time_s);
    }

    #[test]
    fn prepared_run_rejects_infeasible_ranks() {
        let g = cylinder();
        let oh = Overheads::default();
        let cfg = KernelConfig::harvey();
        assert!(PreparedRun::new(&Platform::csp1(), &g, &cfg, 0, &oh).is_none());
        assert!(PreparedRun::new(&Platform::csp1(), &g, &cfg, 4096, &oh).is_none());
    }

    #[test]
    fn scalar_comm_model_is_the_plain_constructor() {
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let plain = PreparedRun::new(&p, &g, &cfg, 72, &oh).unwrap();
        let scalar =
            PreparedRun::new_with_comm(&p, &g, &cfg, 72, &oh, CommModel::Scalar).unwrap();
        assert_eq!(
            plain.run_slice(10, 1, 0.0),
            scalar.run_slice(10, 1, 0.0),
            "explicit Scalar must be the default path"
        );
    }

    #[test]
    fn routed_comm_is_deterministic_and_repriced() {
        use crate::topology::TopologyVariant;
        let g = cylinder();
        let p = Platform::csp2();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let comm = CommModel::Routed(TopologyVariant::PlacementGroup);
        let routed = PreparedRun::new_with_comm(&p, &g, &cfg, 72, &oh, comm).unwrap();
        let a = routed.run_slice(10, 1, 0.0);
        let b = routed.run_slice(10, 1, 0.0);
        assert_eq!(a, b, "routed slices must be bit-identical across reruns");
        // The fabric prices internodal comm hop-by-hop, so on a 2-node
        // run it lands at a different (still finite, positive) figure
        // than the scalar Eq. 12 model — the gap calibration absorbs.
        let scalar = PreparedRun::new(&p, &g, &cfg, 72, &oh).unwrap().run_slice(10, 1, 0.0);
        assert!(a.critical_inter_s > 0.0 && a.critical_inter_s.is_finite());
        assert_ne!(a.critical_inter_s, scalar.critical_inter_s);
        // Memory and intranodal terms are untouched by the comm model;
        // repricing inter may hand "critical" to a near-identical
        // fluid-balanced twin task, hence ULP closeness, not equality.
        hemocloud_rt::float::assert_close(a.critical_mem_s, scalar.critical_mem_s, 0.0, 64);
        hemocloud_rt::float::assert_close(
            a.critical_intra_s,
            scalar.critical_intra_s,
            0.0,
            64,
        );
    }

    #[test]
    fn background_flows_slow_a_contended_slice() {
        use crate::topology::TopologyVariant;
        let g = cylinder();
        let p = Platform::csp1(); // 16 cores/node -> 32 ranks = 2 nodes
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let comm = CommModel::Routed(TopologyVariant::Spread);
        let job = PreparedRun::new_with_comm(&p, &g, &cfg, 32, &oh, comm).unwrap();
        let tenant = PreparedRun::new_with_comm(&p, &g, &cfg, 32, &oh, comm).unwrap();
        // A shared 4-node spread pool: the job on physical nodes {0, 1},
        // the tenant on {2, 3}. rack_of = id % 2, so both jobs straddle
        // the same two racks and share the trunk links.
        let pool_topo = build_topology(&p, TopologyVariant::Spread, 4);
        let background = tenant.flows(&[2, 3], 1 << 32);
        assert!(!background.is_empty());
        let isolated = job.run_slice_contended(10, 1, 0.0, &pool_topo, &[0, 1], &[]);
        let contended =
            job.run_slice_contended(10, 1, 0.0, &pool_topo, &[0, 1], &background);
        assert!(
            contended.critical_inter_s > isolated.critical_inter_s,
            "contended inter {} !> isolated {}",
            contended.critical_inter_s,
            isolated.critical_inter_s
        );
        assert!(contended.mflups < isolated.mflups);
        // Contention touches only the internodal term (the critical task
        // may shift to a fluid-balanced twin, hence ULP closeness).
        hemocloud_rt::float::assert_close(
            contended.critical_mem_s,
            isolated.critical_mem_s,
            0.0,
            64,
        );
        hemocloud_rt::float::assert_close(
            contended.critical_intra_s,
            isolated.critical_intra_s,
            0.0,
            64,
        );
        // And the contended slice is itself reproducible.
        let again =
            job.run_slice_contended(10, 1, 0.0, &pool_topo, &[0, 1], &background);
        assert_eq!(contended, again);
    }

    /// Set pricing against its single-victim oracle: every member's
    /// entry of one `routed_set_comm` exchange equals a
    /// `routed_task_comm` of its own with the others as background, and
    /// the slice timed from it equals `run_slice_contended`'s.
    #[test]
    fn set_pricing_equals_the_single_victim_oracle_bitwise() {
        use crate::topology::{routed_set_comm, TopologyVariant};
        let g = cylinder();
        let p = Platform::csp2_small(); // 8 cores/node
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        // Interleaved node sets, as lowest-free-first allocation leaves
        // them after earlier jobs have come and gone; on the 5-rack
        // spread pool (rack = id % 5) the first two share racks 0 and 1.
        let shapes: [(usize, &[usize]); 3] =
            [(16, &[0, 1]), (24, &[6, 5, 2]), (40, &[7, 3, 8, 4, 9])];
        for variant in [
            TopologyVariant::Spread,
            TopologyVariant::FatTree,
            TopologyVariant::PlacementGroup,
        ] {
            let comm = CommModel::Routed(variant);
            let topo = build_topology(&p, variant, 10);
            let runs: Vec<PreparedRun> = shapes
                .iter()
                .map(|&(ranks, _)| {
                    PreparedRun::new_with_comm(&p, &g, &cfg, ranks, &oh, comm).unwrap()
                })
                .collect();
            let mut alone = None;
            for n in 1..=shapes.len() {
                let members: Vec<(&PreparedRun, &[usize])> =
                    runs.iter().zip(&shapes).take(n).map(|(r, s)| (r, s.1)).collect();
                let priced = routed_set_comm(&topo, &members);
                assert_eq!(priced.len(), n);
                // Not vacuous: on shared trunks the neighbours cost
                // member 0 something.
                let alone = alone.get_or_insert_with(|| priced[0].clone());
                if variant == TopologyVariant::Spread && n > 1 {
                    assert!(
                        priced[0].iter().zip(alone.iter()).any(|(p, a)| p > a),
                        "no contention at n = {n}"
                    );
                }
                for (victim, &(run, node_map)) in members.iter().enumerate() {
                    let background: Vec<Flow> = members
                        .iter()
                        .enumerate()
                        .filter(|&(other, _)| other != victim)
                        .flat_map(|(other, &(r, ids))| r.flows(ids, (other as u64) << 32))
                        .collect();
                    let oracle = routed_task_comm(
                        &topo,
                        &run.census.analysis,
                        &run.placement,
                        node_map,
                        run.comm_bytes_per_point,
                        run.overheads.message_software_overhead_us,
                        &background,
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                    assert_eq!(
                        bits(&priced[victim]),
                        bits(&oracle),
                        "{}: member {victim} of {n}",
                        variant.name()
                    );
                    assert!(!run.flows(node_map, 0).is_empty(), "every shape spans nodes");
                    assert_eq!(
                        run.run_slice_priced(10, 7, 3.0, &priced[victim]),
                        run.run_slice_contended(10, 7, 3.0, &topo, node_map, &background),
                    );
                }
            }
        }
    }

    /// The per-slice loop `PreparedRun::timed` ran before the task terms
    /// were cached, kept verbatim as the reference the cached path is
    /// compared against: every task's terms recomputed from the census,
    /// task `t`'s internodal term replaced by `inter_override[t]` when
    /// given.
    fn reference_slice(
        run: &PreparedRun,
        steps: u64,
        seed: u64,
        time_h: f64,
        inter_override: Option<&[f64]>,
    ) -> SimulatedRun {
        let platform = &run.platform;
        let overheads = &run.overheads;
        let analysis = &run.census.analysis;
        let tasks_per_node = run.placement.tasks_per_node();

        let mut worst_total = 0.0f64;
        let mut critical = (0.0, 0.0, 0.0);
        for task in 0..analysis.n_tasks {
            let node = run.placement.node_of(task);
            let on_node = (tasks_per_node[node] + overheads.cotenant_cores_per_node)
                .min(platform.cores_per_node)
                .max(1);
            let t_mem = memory::memory_time_s(
                platform,
                on_node,
                run.census.task_bytes[task] * overheads.memory_traffic_factor,
                overheads.lbm_bandwidth_efficiency,
            );

            let mut t_intra = 0.0;
            let mut t_inter = 0.0;
            for (&peer, &points) in &analysis.messages[task] {
                let bytes = points as f64 * run.comm_bytes_per_point;
                let kind = if run.placement.is_internodal(task, peer) {
                    LinkKind::Internodal
                } else {
                    LinkKind::Intranodal
                };
                if kind == LinkKind::Internodal && inter_override.is_some() {
                    continue; // priced by the fabric below
                }
                let t = 2.0 * message_time_s(
                    platform,
                    kind,
                    bytes,
                    overheads.message_software_overhead_us,
                );
                match kind {
                    LinkKind::Intranodal => t_intra += t,
                    LinkKind::Internodal => t_inter += t,
                }
            }
            if let Some(inter) = inter_override {
                t_inter = inter[task];
            }

            let total = t_mem + t_intra + t_inter;
            if total > worst_total {
                worst_total = total;
                critical = (t_mem, t_intra, t_inter);
            }
        }

        let mut noise = NoiseProcess::new(platform.noise_cv, seed);
        let noise_factor = noise.factor_at(time_h);
        let step_time_s =
            (worst_total + overheads.step_sync_overhead_us * 1e-6) * noise_factor;
        let total_time_s = step_time_s * steps as f64;
        let updates = analysis.total_points as f64 * steps as f64;

        SimulatedRun {
            step_time_s,
            total_time_s,
            mflups: if total_time_s > 0.0 {
                updates / total_time_s / 1e6
            } else {
                0.0
            },
            critical_mem_s: critical.0,
            critical_intra_s: critical.1,
            critical_inter_s: critical.2,
            nodes_used: run.nodes(),
            noise_factor,
        }
    }

    /// Every `f64` of a slice as bits, plus its node count.
    fn slice_bits(run: &SimulatedRun) -> [u64; 8] {
        [
            run.step_time_s.to_bits(),
            run.total_time_s.to_bits(),
            run.mflups.to_bits(),
            run.critical_mem_s.to_bits(),
            run.critical_intra_s.to_bits(),
            run.critical_inter_s.to_bits(),
            run.noise_factor.to_bits(),
            run.nodes_used as u64,
        ]
    }

    /// The cached task terms and critical path against the per-slice loop
    /// they replace, bit for bit, on all three slice entries — over every
    /// platform, one-node and multi-node rank counts, co-tenancy and
    /// software overhead on and off, and every comm model.
    #[test]
    fn cached_terms_time_every_slice_like_the_per_slice_loop_bitwise() {
        use crate::topology::TopologyVariant;
        use hemocloud_rt::check::{self, Config};
        use std::collections::BTreeMap;

        let g = cylinder();
        let cfg = KernelConfig::harvey();
        let profile = AccessProfile::for_kernel(&cfg, measured_avg_solid_links(&g));
        let platforms = [
            Platform::trc(),
            Platform::csp1(),
            Platform::csp2_small(),
            Platform::csp2(),
            Platform::csp2_ec(),
            Platform::csp2_hyperthreaded(),
        ];
        let comms = [
            CommModel::Scalar,
            CommModel::Routed(TopologyVariant::Spread),
            CommModel::Routed(TopologyVariant::FatTree),
            CommModel::Routed(TopologyVariant::PlacementGroup),
        ];
        let mut censuses: BTreeMap<usize, Arc<CensusEntry>> = BTreeMap::new();
        let mut runs: Vec<PreparedRun> = Vec::new();
        for platform in &platforms {
            let per_node = platform.cores_per_node;
            // Half a node, a full one, a ragged second one, three.
            for ranks in [per_node / 2, per_node, per_node + per_node / 2, 3 * per_node] {
                if !hosts(platform, ranks) {
                    continue; // the hyperthreaded instance has two nodes
                }
                let census = censuses.entry(ranks).or_insert_with(|| {
                    let taken =
                        CensusEntry::take(&g, ranks, profile.bulk_bytes, profile.wall_bytes);
                    Arc::new(taken.unwrap())
                });
                for cotenant_cores_per_node in [0, 4] {
                    for message_software_overhead_us in [0.0, 2.5] {
                        let oh = Overheads {
                            cotenant_cores_per_node,
                            message_software_overhead_us,
                            ..Overheads::default()
                        };
                        runs.extend(comms.iter().map(|&comm| {
                            PreparedRun::from_census(
                                platform,
                                Arc::clone(census),
                                &cfg,
                                profile.boundary_point_bytes,
                                &oh,
                                comm,
                            )
                            .unwrap()
                        }));
                    }
                }
            }
        }
        assert!(runs.iter().any(|run| run.nodes() == 1) && runs.iter().any(|run| run.nodes() > 2));

        let name = "cached_terms_time_every_slice_like_the_per_slice_loop_bitwise";
        check::run(name, Config::cases(4), |rng| {
            for run in &runs {
                let steps = rng.range_u64(1, 1_000_000);
                let seed = rng.next_u64();
                let time_h = rng.range_f64(0.0, 500.0);
                let CommModel::Routed(variant) = run.comm else {
                    assert_eq!(
                        slice_bits(&run.run_slice(steps, seed, time_h)),
                        slice_bits(&reference_slice(run, steps, seed, time_h, None)),
                    );
                    continue;
                };
                let comm_s = |topology: &Topology, node_map: &[usize], background: &[Flow]| {
                    routed_task_comm(
                        topology,
                        &run.census.analysis,
                        &run.placement,
                        node_map,
                        run.comm_bytes_per_point,
                        run.overheads.message_software_overhead_us,
                        background,
                    )
                };
                // Standalone: the run's own fabric, nothing else on it.
                let own: Vec<usize> = (0..run.nodes()).collect();
                let topology = build_topology(&run.platform, variant, run.nodes());
                let isolated = comm_s(&topology, &own, &[]);
                assert_eq!(
                    slice_bits(&run.run_slice(steps, seed, time_h)),
                    slice_bits(&reference_slice(run, steps, seed, time_h, Some(&isolated))),
                );
                // Priced: random prices, or — one case in three — one huge
                // price on a random subset of tasks, whose totals then tie
                // exactly (it absorbs the other terms): the first of them
                // must be the critical task.
                let tie = rng.range_usize(0, 3) == 0;
                let prices: Vec<f64> = (0..run.ranks())
                    .map(|_| {
                        if tie && rng.next_bool() {
                            1e30
                        } else if rng.next_bool() {
                            0.0
                        } else {
                            rng.range_f64(0.0, 1e-3)
                        }
                    })
                    .collect();
                assert_eq!(
                    slice_bits(&run.run_slice_priced(steps, seed, time_h, &prices)),
                    slice_bits(&reference_slice(run, steps, seed, time_h, Some(&prices))),
                );
                // Contended: a twin on the upper half of a shared pool,
                // the victim's nodes in reverse order.
                let pool = build_topology(&run.platform, variant, 2 * run.nodes());
                let node_map: Vec<usize> = (0..run.nodes()).rev().collect();
                let twin: Vec<usize> = (run.nodes()..2 * run.nodes()).collect();
                let background = run.flows(&twin, 1 << 32);
                let contended = comm_s(&pool, &node_map, &background);
                assert_eq!(
                    slice_bits(&run.run_slice_contended(
                        steps,
                        seed,
                        time_h,
                        &pool,
                        &node_map,
                        &background
                    )),
                    slice_bits(&reference_slice(run, steps, seed, time_h, Some(&contended))),
                );
            }
        });
    }

    /// A platform whose cores do not fill its last node: `max_nodes`
    /// floors, the placement ceils, so a rank count within `total_cores`
    /// can still need a node the allocation does not have.
    #[test]
    fn ranks_that_need_a_partial_last_node_are_infeasible_not_a_panic() {
        let g = cylinder();
        let cfg = KernelConfig::harvey();
        let oh = Overheads::default();
        let ragged = Platform {
            total_cores: 40, // 2 whole 16-core nodes and 8 cores over
            ..Platform::csp1()
        };
        assert_eq!(ragged.max_nodes(), 2);
        let profile = AccessProfile::for_kernel(&cfg, measured_avg_solid_links(&g));
        for comm in [
            CommModel::Scalar,
            CommModel::Routed(crate::topology::TopologyVariant::Spread),
        ] {
            let census = |ranks| {
                let taken = CensusEntry::take(&g, ranks, profile.bulk_bytes, profile.wall_bytes);
                Arc::new(taken.unwrap())
            };
            let from_census = |ranks| {
                let bytes = profile.boundary_point_bytes;
                PreparedRun::from_census(&ragged, census(ranks), &cfg, bytes, &oh, comm)
            };
            // 36 ranks <= 40 cores, but on 3 nodes.
            assert!(from_census(36).is_none());
            assert!(PreparedRun::new_with_comm(&ragged, &g, &cfg, 36, &oh, comm).is_none());
            assert_eq!(from_census(32).unwrap().nodes(), 2);
            let whole = PreparedRun::new_with_comm(&ragged, &g, &cfg, 32, &oh, comm).unwrap();
            assert_eq!(whole.nodes(), 2);
        }
    }

    #[test]
    fn fabric_prices_are_finite_and_non_negative_on_every_variant() {
        use crate::topology::{routed_set_comm, TopologyVariant};
        let g = cylinder();
        let p = Platform::csp2_small();
        for variant in [
            TopologyVariant::Spread,
            TopologyVariant::FatTree,
            TopologyVariant::PlacementGroup,
        ] {
            let comm = CommModel::Routed(variant);
            let run =
                PreparedRun::new_with_comm(&p, &g, &KernelConfig::harvey(), 24, &Overheads::default(), comm)
                    .unwrap();
            let topo = build_topology(&p, variant, 6);
            let members: [(&PreparedRun, &[usize]); 2] = [(&run, &[0, 2, 4]), (&run, &[5, 3, 1])];
            for (priced, (_, node_map)) in routed_set_comm(&topo, &members).iter().zip(members) {
                assert!(priced.iter().any(|&s| s > 0.0));
                // Passes run_slice_priced's own check.
                let slice = run.run_slice_priced(10, 1, 0.0, priced);
                assert!(slice.critical_inter_s.is_finite(), "{}: {node_map:?}", variant.name());
            }
        }
    }

    /// A NaN price compares below every total: unchecked, it would drop
    /// its task from the critical path and the slice would come out
    /// faster.
    #[test]
    fn priced_slice_refuses_non_finite_and_negative_prices() {
        let g = cylinder();
        let comm = CommModel::Routed(crate::topology::TopologyVariant::FatTree);
        let run = PreparedRun::new_with_comm(
            &Platform::csp1(),
            &g,
            &KernelConfig::harvey(),
            32,
            &Overheads::default(),
            comm,
        )
        .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9] {
            let mut prices = vec![1e-5; 32];
            prices[17] = bad;
            let refused = std::panic::catch_unwind(|| run.run_slice_priced(10, 1, 0.0, &prices));
            let message = *refused.expect_err("bad price accepted").downcast::<&str>().unwrap();
            assert!(message.contains("finite and non-negative"), "{bad}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "requires CommModel::Routed")]
    fn contended_slice_rejects_scalar_runs() {
        let g = cylinder();
        let p = Platform::csp1();
        let run =
            PreparedRun::new(&p, &g, &KernelConfig::harvey(), 32, &Overheads::default())
                .unwrap();
        let topo = build_topology(&p, crate::topology::TopologyVariant::Spread, 4);
        run.run_slice_contended(10, 1, 0.0, &topo, &[0, 1], &[]);
    }
}
