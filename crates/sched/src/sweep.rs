//! Scenario sweep: run the campaign scheduler across a grid of seeds ×
//! geometries × platform mixes × fault rates × kernel configurations with
//! every cross-cutting invariant armed, and aggregate the results into
//! one deterministic JSON evaluation report (DESIGN.md §17).
//!
//! A single demo campaign shows the control loop works *once*; the sweep
//! is the evaluation harness that shows it keeps its promises everywhere
//! in the configuration space the paper's Discussion cares about:
//!
//! * **Budget** — no completed job ever bills past its dollar budget.
//! * **Guard exactness** — a guard-killed job stopped at its rebuilt
//!   wall limit or past its rebuilt dollar limit, where the limits are
//!   recomputed from nothing but the placement log (the guard is a pure
//!   function of the logged prediction).
//! * **SLO consistency** — the report's deadline accounting matches a
//!   recomputation from the submitted specs.
//! * **Billing** — integer billed node-seconds dominate fractional busy
//!   node-seconds on every platform (per-attempt round-up).
//! * **Eq. 9 reconciliation** — on fault-free, kill-free cells, the
//!   fabric's per-link delivered-byte counters equal the message-graph
//!   bytes × true steps of every routed job, as exact `u64` equality.
//! * **Placement regret** — every completed job's cost is compared
//!   against an oracle that knows the noise-free step time of every
//!   feasible (pool, ranks) option; regret is reported per axis.
//!
//! Violations are collected as strings, never panics, so one bad cell
//! cannot hide the others; the committed artifact (`EVAL_campaign.json`)
//! is gated on the list being empty.

use std::collections::BTreeMap;
use std::sync::Arc;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{CommModel, TopologyVariant};
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{
    AneurysmSpec, AortaSpec, CerebralSpec, CylinderSpec, StenosisSpec,
};
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::kernel::{KernelConfig, Layout, Propagation};
use hemocloud_obs::json::{self, Value, Writer};
use hemocloud_obs::Snapshot;

use crate::job::JobSpec;
use crate::report::{percentile, CampaignReport};
use crate::scheduler::{Campaign, CampaignConfig, PoolSpec};

/// One geometry under sweep: a stable key and its voxelized grid.
pub struct GeometryCase {
    /// Stable axis label (e.g. `"sten8"`).
    pub key: String,
    /// The voxelized lumen, shared across cells.
    pub grid: Arc<VoxelGrid>,
}

/// One kernel/job-mix configuration under sweep.
#[derive(Clone)]
pub struct WorkloadCase {
    /// Stable axis label (e.g. `"aa_stress"`).
    pub key: &'static str,
    /// The LBM kernel every job in the cell runs.
    pub kernel: KernelConfig,
    /// Whether the mix includes a runaway (hidden-steps) job and a
    /// doomed-budget job on top of the honest stream.
    pub stress: bool,
}

/// The sweep grid: the cross product of five axes.
pub struct SweepGrid {
    /// Campaign seeds.
    pub seeds: Vec<u64>,
    /// Geometries.
    pub geometries: Vec<GeometryCase>,
    /// Platform-mix keys, resolved through [`mix_pools`].
    pub mixes: Vec<&'static str>,
    /// Fault rates per node-hour.
    pub fault_rates: Vec<f64>,
    /// Kernel/job-mix configurations.
    pub workloads: Vec<WorkloadCase>,
}

fn geometry_case(key: &str) -> GeometryCase {
    let grid = match key {
        "cyl8" => CylinderSpec::default().with_resolution(8).build(),
        "aorta8" => AortaSpec::default().with_resolution(8).build(),
        "sten8" => StenosisSpec::default().with_resolution(8).build(),
        "aneu8" => AneurysmSpec::default().with_resolution(8).build(),
        "cereb6" => CerebralSpec::default()
            .with_resolution(6)
            .with_generations(3)
            .build(),
        other => panic!("unknown geometry case {other}"),
    };
    GeometryCase {
        key: key.to_string(),
        grid: Arc::new(grid),
    }
}

fn workload_cases() -> Vec<WorkloadCase> {
    vec![
        WorkloadCase {
            key: "ab_honest",
            kernel: KernelConfig::harvey(),
            stress: false,
        },
        WorkloadCase {
            key: "aa_stress",
            kernel: KernelConfig::sparse(Propagation::Aa, Layout::Soa),
            stress: true,
        },
    ]
}

impl SweepGrid {
    /// The full evaluation grid: 2 seeds × 5 geometries (including the
    /// stenosis and aneurysm anatomies) × 3 platform mixes (scalar plus
    /// all three routed topology shapes) × 2 fault rates × 2 kernel
    /// configurations = 120 cells.
    pub fn full() -> Self {
        Self {
            seeds: vec![42, 4242],
            geometries: ["cyl8", "aorta8", "sten8", "aneu8", "cereb6"]
                .iter()
                .map(|k| geometry_case(k))
                .collect(),
            mixes: vec!["scalar", "spread", "clos"],
            fault_rates: vec![0.0, 0.25],
            workloads: workload_cases(),
        }
    }

    /// The CI smoke grid (`RT_BENCH_FAST=1`): 1 seed × 2 geometries ×
    /// 2 mixes × 2 fault rates × 2 kernel configurations = 16 cells.
    pub fn smoke() -> Self {
        Self {
            seeds: vec![42],
            geometries: ["cyl8", "aneu8"].iter().map(|k| geometry_case(k)).collect(),
            mixes: vec!["scalar", "spread"],
            fault_rates: vec![0.0, 0.25],
            workloads: workload_cases(),
        }
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.seeds.len()
            * self.geometries.len()
            * self.mixes.len()
            * self.fault_rates.len()
            * self.workloads.len()
    }
}

/// The capacity-limited pools behind a mix key. Platforms within one mix
/// are distinct, so a placement's platform abbreviation identifies its
/// pool unambiguously.
pub fn mix_pools(key: &str) -> Vec<PoolSpec> {
    match key {
        // Scalar-priced comm on both pools (Eq. 12, no fabric).
        "scalar" => vec![
            PoolSpec {
                platform: Platform::csp1(),
                nodes: 3,
                overheads: Overheads::default(),
                topology: None,
            },
            PoolSpec {
                platform: Platform::csp2_small(),
                nodes: 8,
                overheads: Overheads {
                    message_software_overhead_us: 2.5,
                    ..Overheads::default()
                },
                topology: None,
            },
        ],
        // Oversubscribed rack trunks plus a scalar fallback pool.
        "spread" => vec![
            PoolSpec {
                platform: Platform::csp2_small(),
                nodes: 8,
                overheads: Overheads::default(),
                topology: Some(TopologyVariant::Spread),
            },
            PoolSpec {
                platform: Platform::csp1(),
                nodes: 2,
                overheads: Overheads::default(),
                topology: None,
            },
        ],
        // Full-bisection Clos vs the single-switch placement group.
        "clos" => vec![
            PoolSpec {
                platform: Platform::csp2_small(),
                nodes: 6,
                overheads: Overheads {
                    lbm_bandwidth_efficiency: 0.72,
                    ..Overheads::default()
                },
                topology: Some(TopologyVariant::FatTree),
            },
            PoolSpec {
                platform: Platform::csp2_ec(),
                nodes: 3,
                overheads: Overheads {
                    lbm_bandwidth_efficiency: 0.85,
                    ..Overheads::default()
                },
                topology: Some(TopologyVariant::PlacementGroup),
            },
        ],
        other => panic!("unknown mix {other}"),
    }
}

/// Campaign configuration for one cell.
pub fn cell_config(seed: u64, fault_rate: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        characterization_seed: 2023,
        // No single-digit rank option: on the 8-core CSP-2 Small nodes
        // every option spans at least two nodes, so routed pools always
        // carry internodal traffic for the Eq. 9 reconciliation.
        rank_options: vec![16, 32, 36, 64, 72],
        slice_steps: 1_000_000,
        fault_rate_per_node_hour: fault_rate,
        retry_backoff_s: 60.0,
        max_retry_backoff_s: 3600.0,
        min_calibration_obs: 4,
        prices: Default::default(),
        shards: 1,
        max_placement_log: usize::MAX,
        max_job_reports: usize::MAX,
    }
}

/// The job mix for one cell: a bootstrap wave at t = 0 placed on the raw
/// model (generous tolerance), a calibrated-era stream, and — in stress
/// cells — one runaway the guard must kill and one doomed-budget job
/// admission must reject.
pub fn cell_jobs(
    geom: &GeometryCase,
    wk: &WorkloadCase,
    workloads: &mut BTreeMap<(String, u64), Arc<Workload>>,
) -> Vec<JobSpec> {
    let wl_name = format!("{}:{}", geom.key, wk.key);
    let mut wl = |steps: u64| -> Arc<Workload> {
        workloads
            .entry((wl_name.clone(), steps))
            .or_insert_with(|| Arc::new(Workload::new(wl_name.clone(), &geom.grid, wk.kernel, steps)))
            .clone()
    };
    let mut jobs = Vec::new();
    let mut push = |name: String,
                    objective: Objective,
                    tolerance: f64,
                    budget: f64,
                    hidden: f64,
                    submit_s: f64,
                    wl: Arc<Workload>| {
        jobs.push(JobSpec {
            name,
            workload: wl,
            model_key: wl_name.clone(),
            objective,
            tolerance,
            budget_dollars: budget,
            max_retries: 3,
            checkpoint_steps: 2_000_000,
            hidden_steps_factor: hidden,
            submit_s,
        });
    };
    // Bootstrap wave: raw-model placements, generous tolerance.
    let w0 = wl(10_000_000);
    push("h0-mincost".into(), Objective::MinCost, 7.0, 150.0, 1.0, 0.0, w0);
    let w1 = wl(12_000_000);
    push("h1-throughput".into(), Objective::MaxThroughput, 7.0, 150.0, 1.0, 0.0, w1);
    let w2 = wl(14_000_000);
    push(
        "h2-deadline".into(),
        Objective::Deadline(6.0 * 3600.0),
        7.0,
        150.0,
        1.0,
        0.0,
        w2,
    );
    // Calibrated-era stream: tighter tolerance, staggered arrivals.
    let w3 = wl(16_000_000);
    push("h3-mincost".into(), Objective::MinCost, 3.0, 150.0, 1.0, 900.0, w3);
    if wk.stress {
        // Runaway: truly needs 4× its declared steps under a 0.5
        // tolerance. It arrives after the honest wave has calibrated the
        // models, so its placement prediction is accurate and the guard
        // budget runs dry mid-run no matter how loose the raw model was.
        let wr = wl(6_000_000);
        push("runaway".into(), Objective::MinCost, 0.5, 150.0, 4.0, 3600.0, wr);
        // Doomed: no option can run 40M steps for five cents.
        let wd = wl(40_000_000);
        push("doomed-budget".into(), Objective::MinCost, 1.0, 0.05, 1.0, 60.0, wd);
    } else {
        let w4 = wl(12_000_000);
        push(
            "h4-deadline".into(),
            Objective::Deadline(6.0 * 3600.0),
            3.0,
            150.0,
            1.0,
            1800.0,
            w4,
        );
        let w5 = wl(18_000_000);
        push("h5-throughput".into(), Objective::MaxThroughput, 3.0, 150.0, 1.0, 2700.0, w5);
    }
    jobs
}

/// One cell's results: the axis coordinates, outcome counts, pooled
/// placement errors, regret, utilization and Eq. 9 reconciliation.
pub struct CellResult {
    /// Campaign seed.
    pub seed: u64,
    /// Geometry key.
    pub geometry: String,
    /// Platform-mix key.
    pub mix: String,
    /// Fault rate per node-hour.
    pub fault_rate: f64,
    /// Workload key.
    pub workload: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Guard kills.
    pub guard_kills: usize,
    /// Jobs failed (retries exhausted).
    pub failed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Faults injected.
    pub faults: usize,
    /// Campaign makespan, seconds.
    pub makespan_s: f64,
    /// Total dollars billed.
    pub total_cost_dollars: f64,
    /// Campaign-wide utilization: Σ busy node-seconds over Σ pool
    /// capacity node-seconds at the cell makespan.
    pub utilization: f64,
    /// Median absolute placement error, %, over measured placements.
    pub error_p50_pct: Option<f64>,
    /// 99th-percentile absolute placement error, %.
    pub error_p99_pct: Option<f64>,
    /// Mean cost regret vs the noise-free oracle over completed jobs, %.
    pub mean_regret_pct: Option<f64>,
    /// Whether the Eq. 9 reconciliation ran (fault-free, kill-free cell
    /// with at least one routed pool).
    pub eq9_checked: bool,
    /// Delivered bytes summed over every routed pool's link counters.
    pub eq9_delivered_bytes: u64,
    /// Expected bytes from the message graphs of every routed placement.
    pub eq9_expected_bytes: u64,
    /// Absolute placement errors pooled for axis aggregation (not
    /// serialized).
    pub abs_errors: Vec<f64>,
    /// Per-completed-job regrets pooled for axis aggregation (not
    /// serialized).
    pub regrets: Vec<f64>,
}

impl CellResult {
    /// Stable cell key used to prefix violations and name cells in JSON.
    pub fn key(&self) -> String {
        cell_key(&self.geometry, &self.mix, self.seed, self.fault_rate, &self.workload)
    }
}

fn cell_key(geometry: &str, mix: &str, seed: u64, fault_rate: f64, workload: &str) -> String {
    format!("s{seed}/{geometry}/{mix}/f{fault_rate:.2}/{workload}")
}

/// Aggregate over every cell sharing one axis value.
pub struct AxisAggregate {
    /// Axis name (`seed`, `geometry`, `mix`, `fault_rate`, `workload`,
    /// or `overall`).
    pub axis: &'static str,
    /// The shared axis value.
    pub value: String,
    /// Cells aggregated.
    pub cells: usize,
    /// Jobs across those cells.
    pub jobs: usize,
    /// Completions across those cells.
    pub completed: usize,
    /// Measured placements pooled.
    pub measured_placements: usize,
    /// p50 of the pooled absolute placement errors, %.
    pub error_p50_pct: Option<f64>,
    /// p99 of the pooled absolute placement errors, %.
    pub error_p99_pct: Option<f64>,
    /// Mean cost regret vs oracle over pooled completed jobs, %.
    pub mean_regret_pct: Option<f64>,
    /// Mean of the cells' utilizations.
    pub mean_utilization: f64,
}

/// The full sweep evaluation report.
pub struct SweepReport {
    /// Per-cell results in grid iteration order.
    pub cells: Vec<CellResult>,
    /// Per-axis aggregates in axis/value iteration order.
    pub by_axis: Vec<AxisAggregate>,
    /// The global aggregate.
    pub overall: AxisAggregate,
    /// Invariant violations; the artifact gate requires this empty.
    pub violations: Vec<String>,
    /// Cells where the Eq. 9 reconciliation ran.
    pub eq9_cells_checked: usize,
    /// Guard-killed jobs whose limits were rebuilt and checked exactly.
    pub guard_exact_checks: usize,
}

// ---- oracle -----------------------------------------------------------

/// Cached per-option oracle data: noise-free step seconds, node count,
/// and (routed only) the Eq. 9 per-step internodal byte total.
struct OracleOption {
    step_nf_s: f64,
    nodes: usize,
    flow_bytes_per_step: u64,
}

type OracleCache = BTreeMap<(String, usize, String, usize), Option<OracleOption>>;

/// The noise-free cost oracle for one (mix pool, geometry+workload,
/// ranks) option. Uses each prepared run's *isolated* timing — the
/// oracle prices options as if the job ran alone, which is the paper's
/// dashboard-style a-priori best case.
fn oracle_option<'c>(
    cache: &'c mut OracleCache,
    mix: &str,
    pool_idx: usize,
    pool: &PoolSpec,
    model_key: &str,
    ranks: usize,
    workload: &Workload,
) -> &'c Option<OracleOption> {
    let key = (mix.to_string(), pool_idx, model_key.to_string(), ranks);
    cache.entry(key).or_insert_with(|| {
        let comm = match pool.topology {
            Some(variant) => CommModel::Routed(variant),
            None => CommModel::Scalar,
        };
        let prepared = PreparedRun::from_census(
            &pool.platform,
            workload.census(ranks).ok()?,
            &workload.kernel,
            workload.profile.boundary_point_bytes,
            &pool.overheads,
            comm,
        )?;
        let nodes = prepared.nodes();
        let pool_nodes = pool.nodes.min(pool.platform.max_nodes());
        if nodes > pool_nodes {
            return None;
        }
        // Any seed works: dividing out the reported noise factor leaves
        // the deterministic model time.
        let sim = prepared.run_slice(1_000_000, 7, 0.0);
        let step_nf_s = sim.step_time_s / sim.noise_factor;
        let flow_bytes_per_step = if pool.topology.is_some() {
            let node_map: Vec<usize> = (0..nodes).collect();
            prepared
                .flows(&node_map, 0)
                .iter()
                .map(|f| f.bytes as u64)
                .sum()
        } else {
            0
        };
        Some(OracleOption {
            step_nf_s,
            nodes,
            flow_bytes_per_step,
        })
    })
}

// ---- invariants -------------------------------------------------------

fn is_bad(v: f64) -> bool {
    !v.is_finite()
}

/// Run every per-cell invariant, appending violations as
/// `"<cell>: <what>"` strings. Returns the number of guard-killed jobs
/// whose limits were rebuilt and checked.
#[allow(clippy::too_many_arguments)]
fn check_invariants(
    key: &str,
    report: &CampaignReport,
    specs: &[JobSpec],
    pools: &[PoolSpec],
    config: &CampaignConfig,
    snapshot: &Snapshot,
    eq9_expected: Option<&BTreeMap<usize, u64>>,
    violations: &mut Vec<String>,
) -> usize {
    let mut bad = |what: String| violations.push(format!("{key}: {what}"));

    // Outcome conservation.
    if report.completed + report.guard_kills + report.failed + report.rejected != report.jobs {
        bad(format!(
            "outcomes {}+{}+{}+{} != jobs {}",
            report.completed, report.guard_kills, report.failed, report.rejected, report.jobs
        ));
    }
    if report.jobs != specs.len() || report.job_reports.len() != specs.len() {
        bad(format!(
            "job counts report {} / reports {} != specs {}",
            report.jobs,
            report.job_reports.len(),
            specs.len()
        ));
    }
    if is_bad(report.makespan_s) || report.makespan_s < 0.0 {
        bad(format!("bad makespan {}", report.makespan_s));
    }
    if is_bad(report.total_cost_dollars) || report.total_cost_dollars < 0.0 {
        bad(format!("bad total cost {}", report.total_cost_dollars));
    }

    // Cost, fault and retry books must balance across views.
    let job_cost: f64 = report.job_reports.iter().map(|j| j.cost_dollars).sum();
    if (job_cost - report.total_cost_dollars).abs() > 1e-6 * report.total_cost_dollars.max(1.0) {
        bad(format!(
            "job costs {job_cost} != total {}",
            report.total_cost_dollars
        ));
    }
    let platform_cost: f64 = report.platforms.iter().map(|p| p.cost_dollars).sum();
    if (platform_cost - report.total_cost_dollars).abs()
        > 1e-6 * report.total_cost_dollars.max(1.0)
    {
        bad(format!(
            "platform costs {platform_cost} != total {}",
            report.total_cost_dollars
        ));
    }
    let job_faults: usize = report.job_reports.iter().map(|j| j.faults as usize).sum();
    if job_faults != report.faults {
        bad(format!("job faults {job_faults} != total {}", report.faults));
    }
    let job_retries: usize = report
        .job_reports
        .iter()
        .map(|j| (j.attempts as usize).saturating_sub(1))
        .sum();
    if job_retries != report.retries {
        bad(format!("job retries {job_retries} != total {}", report.retries));
    }

    // Per-job: budget ceiling on completions, SLO recomputation.
    let mut slo_total = 0usize;
    let mut slo_attained = 0usize;
    for (spec, jr) in specs.iter().zip(&report.job_reports) {
        if jr.name != spec.name {
            bad(format!("job order drifted: {} vs {}", jr.name, spec.name));
            continue;
        }
        if is_bad(jr.cost_dollars) || jr.cost_dollars < 0.0 || is_bad(jr.run_seconds) {
            bad(format!("job {}: non-finite accounting", jr.name));
        }
        if jr.outcome == "completed" && jr.cost_dollars > spec.budget_dollars + 1e-6 {
            bad(format!(
                "job {}: completed at ${} over budget ${}",
                jr.name, jr.cost_dollars, spec.budget_dollars
            ));
        }
        let expect_slo = match spec.objective {
            Objective::Deadline(d) => {
                slo_total += 1;
                let met = jr.outcome == "completed" && jr.finish_s - spec.submit_s <= d;
                if met {
                    slo_attained += 1;
                }
                Some(met)
            }
            _ => None,
        };
        if jr.slo_met != expect_slo {
            bad(format!(
                "job {}: slo_met {:?} != recomputed {:?}",
                jr.name, jr.slo_met, expect_slo
            ));
        }
    }
    if slo_total != report.slo_total || slo_attained != report.slo_attained {
        bad(format!(
            "slo books {}/{} != recomputed {slo_attained}/{slo_total}",
            report.slo_attained, report.slo_total
        ));
    }

    // Per-platform: billed dominates busy, utilization sane.
    for p in &report.platforms {
        if is_bad(p.busy_node_seconds) || p.busy_node_seconds < 0.0 {
            bad(format!("{}: bad busy_node_seconds {}", p.platform, p.busy_node_seconds));
        }
        if (p.billed_node_seconds as f64) + 1e-6 < p.busy_node_seconds {
            bad(format!(
                "{}: billed {} < busy {}",
                p.platform, p.billed_node_seconds, p.busy_node_seconds
            ));
        }
        if is_bad(p.utilization) || !(0.0..=1.0 + 1e-9).contains(&p.utilization) {
            bad(format!("{}: bad utilization {}", p.platform, p.utilization));
        }
    }

    // Guard-kill exactness: rebuild each killed job's limits from its
    // last logged placement — the guard is a pure function of the log.
    let price_of = |abbrev: &str| -> Option<f64> {
        pools
            .iter()
            .find(|p| p.platform.abbrev == abbrev)
            .map(|p| p.platform.price_per_node_hour)
    };
    let mut guard_checks = 0usize;
    for (idx, (spec, jr)) in specs.iter().zip(&report.job_reports).enumerate() {
        if jr.outcome != "guard_killed" {
            continue;
        }
        let Some(rec) = report.placements.iter().rev().find(|r| r.job == idx) else {
            bad(format!("job {}: guard-killed with no placement", jr.name));
            continue;
        };
        let Some(price) = price_of(&rec.platform) else {
            bad(format!("job {}: unknown platform {}", jr.name, rec.platform));
            continue;
        };
        let max_s = rec.predicted_step_s * spec.workload.steps as f64 * (1.0 + spec.tolerance);
        let max_d = (max_s / 3600.0 * rec.nodes as f64 * price).min(spec.budget_dollars);
        let wall_hit = jr.run_seconds >= max_s * (1.0 - 1e-9) - 1e-6;
        let dollars_hit = jr.cost_dollars >= max_d - 1e-6;
        if !wall_hit && !dollars_hit {
            bad(format!(
                "job {}: guard-killed below both limits ({}s < {max_s}s, ${} < ${max_d})",
                jr.name, jr.run_seconds, jr.cost_dollars
            ));
        }
        // A fault-free kill has exactly one guard lifetime, so the wall
        // limit is also an upper bound (a wall kill truncates its last
        // slice to land exactly on it; a dollar kill trips post-slice,
        // still inside the wall).
        if jr.faults == 0 && jr.run_seconds > max_s * (1.0 + 1e-9) + 1e-6 {
            bad(format!(
                "job {}: ran {}s past rebuilt wall limit {max_s}s",
                jr.name, jr.run_seconds
            ));
        }
        guard_checks += 1;
    }

    // Eq. 9: delivered fabric bytes reconcile exactly on clean cells.
    if let Some(expected) = eq9_expected {
        for (pool_idx, &want) in expected {
            let got = snapshot
                .counter_family_total(&format!("fabric.pool{pool_idx}.link.delivered_bytes"));
            if got != want {
                bad(format!(
                    "eq9 pool {pool_idx}: delivered {got} != expected {want}"
                ));
            }
        }
    }

    // Refinement statistics must be finite when present.
    for (name, v) in [
        ("mape_uncal", report.mape_first_quartile_uncalibrated_pct),
        ("mape_cal", report.mape_calibrated_pct),
        ("error_p50", report.error_p50_pct),
        ("error_p99", report.error_p99_pct),
    ] {
        if let Some(v) = v {
            if is_bad(v) || v < 0.0 {
                bad(format!("bad {name} {v}"));
            }
        }
    }
    let _ = config;
    guard_checks
}

// ---- sweep driver -----------------------------------------------------

/// Run every cell of `grid` and aggregate. Deterministic: the same grid
/// produces the same report, byte for byte, at any `RT_POOL_THREADS`.
pub fn run_sweep(grid: &SweepGrid) -> SweepReport {
    let mut workloads: BTreeMap<(String, u64), Arc<Workload>> = BTreeMap::new();
    let mut oracle: OracleCache = BTreeMap::new();
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    let mut eq9_cells_checked = 0usize;
    let mut guard_exact_checks = 0usize;

    for &seed in &grid.seeds {
        for geom in &grid.geometries {
            for &mix in &grid.mixes {
                for &fault_rate in &grid.fault_rates {
                    for wk in &grid.workloads {
                        let key = cell_key(&geom.key, mix, seed, fault_rate, wk.key);
                        let pools = mix_pools(mix);
                        let config = cell_config(seed, fault_rate);
                        let specs = cell_jobs(geom, wk, &mut workloads);
                        let model_key = format!("{}:{}", geom.key, wk.key);

                        let mut campaign = Campaign::new(config.clone(), mix_pools(mix));
                        for job in specs.clone() {
                            campaign.submit(job);
                        }
                        let report = campaign.run();
                        let snapshot = campaign.obs_snapshot();

                        // Oracle regret for completed jobs, and the
                        // routed byte expectation for clean cells.
                        let mut regrets = Vec::new();
                        let mut eq9_expected: BTreeMap<usize, u64> = BTreeMap::new();
                        for (idx, (spec, jr)) in
                            specs.iter().zip(&report.job_reports).enumerate()
                        {
                            if jr.outcome == "rejected" {
                                continue;
                            }
                            let mut best: Option<f64> = None;
                            for (pool_idx, pool) in pools.iter().enumerate() {
                                for &ranks in &config.rank_options {
                                    let opt = oracle_option(
                                        &mut oracle,
                                        mix,
                                        pool_idx,
                                        pool,
                                        &model_key,
                                        ranks,
                                        &spec.workload,
                                    );
                                    if let Some(o) = opt {
                                        let seconds = o.step_nf_s * spec.true_steps() as f64;
                                        let cost =
                                            config.prices.cost(&pool.platform, o.nodes, seconds);
                                        best = Some(best.map_or(cost, |b: f64| b.min(cost)));
                                    }
                                }
                            }
                            if jr.outcome == "completed" {
                                match best {
                                    Some(oracle_cost) if oracle_cost > 0.0 => {
                                        let regret =
                                            100.0 * (jr.cost_dollars - oracle_cost) / oracle_cost;
                                        if is_bad(regret) {
                                            violations
                                                .push(format!("{key}: non-finite regret for {}", jr.name));
                                        } else {
                                            regrets.push(regret);
                                        }
                                    }
                                    _ => violations.push(format!(
                                        "{key}: no feasible oracle option for completed {}",
                                        jr.name
                                    )),
                                }
                            }
                            // Eq. 9 expectation: the job's routed flows ×
                            // its true steps, attributed to its pool.
                            if let Some(rec) =
                                report.placements.iter().rev().find(|r| r.job == idx)
                            {
                                if rec.topology != CommModel::Scalar.name() {
                                    let Some(pool_idx) = pools
                                        .iter()
                                        .position(|p| p.platform.abbrev == rec.platform)
                                    else {
                                        violations.push(format!(
                                            "{key}: placement on unknown platform {}",
                                            rec.platform
                                        ));
                                        continue;
                                    };
                                    let opt = oracle_option(
                                        &mut oracle,
                                        mix,
                                        pool_idx,
                                        &pools[pool_idx],
                                        &model_key,
                                        rec.ranks,
                                        &spec.workload,
                                    );
                                    if let Some(o) = opt {
                                        *eq9_expected.entry(pool_idx).or_insert(0) +=
                                            o.flow_bytes_per_step * spec.true_steps();
                                    }
                                }
                            }
                        }

                        let clean = report.faults == 0
                            && report.guard_kills == 0
                            && report.failed == 0;
                        let has_routed = pools.iter().any(|p| p.topology.is_some());
                        let eq9_armed = clean && has_routed;
                        if eq9_armed {
                            eq9_cells_checked += 1;
                        }

                        guard_exact_checks += check_invariants(
                            &key,
                            &report,
                            &specs,
                            &pools,
                            &config,
                            &snapshot,
                            eq9_armed.then_some(&eq9_expected),
                            &mut violations,
                        );

                        // Cell-level aggregation inputs.
                        let abs_errors: Vec<f64> = report
                            .placements
                            .iter()
                            .filter_map(|r| r.abs_pct_error())
                            .collect();
                        let capacity: f64 = report
                            .platforms
                            .iter()
                            .map(|p| p.nodes_total as f64 * report.makespan_s)
                            .sum();
                        let busy: f64 =
                            report.platforms.iter().map(|p| p.busy_node_seconds).sum();
                        let utilization = if capacity > 0.0 { busy / capacity } else { 0.0 };
                        let delivered: u64 = (0..pools.len())
                            .map(|p| {
                                snapshot.counter_family_total(&format!(
                                    "fabric.pool{p}.link.delivered_bytes"
                                ))
                            })
                            .sum();

                        cells.push(CellResult {
                            seed,
                            geometry: geom.key.clone(),
                            mix: mix.to_string(),
                            fault_rate,
                            workload: wk.key.to_string(),
                            jobs: report.jobs,
                            completed: report.completed,
                            guard_kills: report.guard_kills,
                            failed: report.failed,
                            rejected: report.rejected,
                            faults: report.faults,
                            makespan_s: report.makespan_s,
                            total_cost_dollars: report.total_cost_dollars,
                            utilization,
                            error_p50_pct: percentile(&abs_errors, 50.0),
                            error_p99_pct: percentile(&abs_errors, 99.0),
                            mean_regret_pct: mean(&regrets),
                            eq9_checked: eq9_armed,
                            eq9_delivered_bytes: delivered,
                            eq9_expected_bytes: eq9_expected.values().sum(),
                            abs_errors,
                            regrets,
                        });
                    }
                }
            }
        }
    }

    let by_axis = aggregate_axes(grid, &cells);
    let overall = aggregate("overall", "all", cells.iter().collect());
    SweepReport {
        cells,
        by_axis,
        overall,
        violations,
        eq9_cells_checked,
        guard_exact_checks,
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

fn aggregate(axis: &'static str, value: &str, cells: Vec<&CellResult>) -> AxisAggregate {
    let mut errors = Vec::new();
    let mut regrets = Vec::new();
    let mut jobs = 0usize;
    let mut completed = 0usize;
    let mut util_sum = 0.0;
    for c in &cells {
        errors.extend_from_slice(&c.abs_errors);
        regrets.extend_from_slice(&c.regrets);
        jobs += c.jobs;
        completed += c.completed;
        util_sum += c.utilization;
    }
    let n = cells.len();
    AxisAggregate {
        axis,
        value: value.to_string(),
        cells: n,
        jobs,
        completed,
        measured_placements: errors.len(),
        error_p50_pct: percentile(&errors, 50.0),
        error_p99_pct: percentile(&errors, 99.0),
        mean_regret_pct: mean(&regrets),
        mean_utilization: if n == 0 { 0.0 } else { util_sum / n as f64 },
    }
}

fn aggregate_axes(grid: &SweepGrid, cells: &[CellResult]) -> Vec<AxisAggregate> {
    let mut out = Vec::new();
    for &seed in &grid.seeds {
        let subset = cells.iter().filter(|c| c.seed == seed).collect();
        out.push(aggregate("seed", &seed.to_string(), subset));
    }
    for geom in &grid.geometries {
        let subset = cells.iter().filter(|c| c.geometry == geom.key).collect();
        out.push(aggregate("geometry", &geom.key, subset));
    }
    for &mix in &grid.mixes {
        let subset = cells.iter().filter(|c| c.mix == mix).collect();
        out.push(aggregate("mix", mix, subset));
    }
    for &rate in &grid.fault_rates {
        let subset = cells
            .iter()
            .filter(|c| c.fault_rate == rate)
            .collect();
        out.push(aggregate("fault_rate", &format!("{rate:.2}"), subset));
    }
    for wk in &grid.workloads {
        let subset = cells.iter().filter(|c| c.workload == wk.key).collect();
        out.push(aggregate("workload", wk.key, subset));
    }
    out
}

// ---- JSON -------------------------------------------------------------

impl AxisAggregate {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object(json::Layout::Inline);
        w.key("axis").string(self.axis);
        w.key("value").string(&self.value);
        w.key("cells").uint(self.cells as u64);
        w.key("jobs").uint(self.jobs as u64);
        w.key("completed").uint(self.completed as u64);
        w.key("measured_placements").uint(self.measured_placements as u64);
        w.key("error_p50_pct").opt_fixed(self.error_p50_pct, 4);
        w.key("error_p99_pct").opt_fixed(self.error_p99_pct, 4);
        w.key("mean_regret_pct").opt_fixed(self.mean_regret_pct, 4);
        w.key("mean_utilization").fixed(self.mean_utilization, 6);
        w.end();
    }
}

impl SweepReport {
    /// Render the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        self.to_json_stamped(&[])
    }

    /// [`SweepReport::to_json`] with a leading `"provenance"` object of
    /// typed `(key, value)` fields.
    pub fn to_json_stamped(&self, provenance: &[(&str, Value)]) -> String {
        let mut w = Writer::new();
        w.begin_object(json::Layout::Block);
        if !provenance.is_empty() {
            w.key("provenance").members(provenance);
        }
        w.key("report").string("hemocloud_eval_campaign");
        w.key("cells").uint(self.cells.len() as u64);
        w.key("violations").uint(self.violations.len() as u64);
        w.key("eq9_cells_checked").uint(self.eq9_cells_checked as u64);
        w.key("guard_exact_checks").uint(self.guard_exact_checks as u64);
        self.overall.write_json(w.key("overall"));
        w.key("violation_list").begin_array(json::Layout::Block);
        for v in &self.violations {
            w.string(v);
        }
        w.end();
        w.key("by_axis").begin_array(json::Layout::Block);
        for a in &self.by_axis {
            a.write_json(&mut w);
        }
        w.end();
        w.key("cell_results").begin_array(json::Layout::Block);
        for c in &self.cells {
            w.begin_object(json::Layout::Inline);
            w.key("cell").string(&c.key());
            w.key("jobs").uint(c.jobs as u64);
            w.key("completed").uint(c.completed as u64);
            w.key("guard_kills").uint(c.guard_kills as u64);
            w.key("failed").uint(c.failed as u64);
            w.key("rejected").uint(c.rejected as u64);
            w.key("faults").uint(c.faults as u64);
            w.key("makespan_s").fixed(c.makespan_s, 3);
            w.key("total_cost_dollars").fixed(c.total_cost_dollars, 6);
            w.key("utilization").fixed(c.utilization, 6);
            w.key("error_p50_pct").opt_fixed(c.error_p50_pct, 4);
            w.key("error_p99_pct").opt_fixed(c.error_p99_pct, 4);
            w.key("mean_regret_pct").opt_fixed(c.mean_regret_pct, 4);
            w.key("eq9_checked").bool(c.eq9_checked);
            w.key("eq9_delivered_bytes").uint(c.eq9_delivered_bytes);
            w.key("eq9_expected_bytes").uint(c.eq9_expected_bytes);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_grid(mix: &'static str, fault_rate: f64, wk_idx: usize) -> SweepGrid {
        SweepGrid {
            seeds: vec![42],
            geometries: vec![geometry_case("cyl8")],
            mixes: vec![mix],
            fault_rates: vec![fault_rate],
            workloads: vec![workload_cases().remove(wk_idx)],
        }
    }

    #[test]
    fn clean_routed_cell_reconciles_and_repeats() {
        let grid = micro_grid("spread", 0.0, 0);
        let a = run_sweep(&grid);
        assert_eq!(a.cells.len(), 1);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        let cell = &a.cells[0];
        assert_eq!(cell.completed, cell.jobs, "honest fault-free cell completes");
        assert!(cell.eq9_checked, "routed fault-free cell must arm Eq. 9");
        assert!(cell.eq9_delivered_bytes > 0);
        assert_eq!(cell.eq9_delivered_bytes, cell.eq9_expected_bytes);
        assert!(cell.error_p50_pct.is_some());
        assert!(cell.mean_regret_pct.is_some());
        // Determinism: a second run renders byte-identical JSON.
        let b = run_sweep(&grid);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn stress_cell_kills_the_runaway_and_rejects_the_doomed() {
        let grid = micro_grid("scalar", 0.25, 1);
        let report = run_sweep(&grid);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        let cell = &report.cells[0];
        assert_eq!(cell.rejected, 1, "doomed-budget job is rejected");
        assert!(cell.guard_kills >= 1, "runaway is guard-killed");
        assert!(report.guard_exact_checks >= 1);
        assert!(!cell.eq9_checked, "scalar mix has no fabric to reconcile");
        let doc = json::parse(&report.to_json()).expect("valid JSON: no NaN/inf token");
        assert_eq!(doc.get("violations"), Some(&Value::UInt(0)));
    }

    #[test]
    fn violation_text_round_trips_through_the_writer_unaltered() {
        let grid = micro_grid("scalar", 0.0, 0);
        let mut report = run_sweep(&grid);
        let hostile = "cell \"x\": budget\\overrun\u{1}\n";
        report.violations.push(hostile.to_string());
        report.overall.mean_utilization = f64::NAN;
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        let listed = doc.get("violation_list").and_then(Value::as_array).unwrap();
        assert_eq!(listed.last().and_then(Value::as_str), Some(hostile));
        assert_eq!(doc.at("overall.mean_utilization"), Some(&Value::Null));
    }
}
