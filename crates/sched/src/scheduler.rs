//! The campaign scheduler: a deterministic discrete-event loop that
//! closes the paper's predict → run → guard → refine cycle over many jobs
//! and capacity-limited platform pools.
//!
//! * **Predict / admit / place** — a (pool, model)'s rank options are
//!   priced once by [`GeneralModel::options`], the loop the dashboard's
//!   rows come from. Each placement try scores them as plain
//!   `(time, cost)` numbers under the freshest [`ModelCalibrator`] fit,
//!   drops the ones over the job's dollar budget, and lets
//!   [`Objective::pick`] choose among those that fit free nodes now.
//!   Full pools queue the job; a job with no in-budget option the
//!   objective accepts even on empty pools is rejected.
//! * **Run** — placed jobs advance in time slices through
//!   [`PreparedRun::run_slice`], so the simulated platform noise follows
//!   the campaign clock hour by hour. On a routed pool
//!   ([`PoolSpec::topology`]) a slice's internodal term comes from the
//!   shared fabric under everything active on the pool, priced once per
//!   distinct set of placed runs (`Campaign::contention`) — halo traffic
//!   repeats every step, so the set is all the price depends on.
//! * **Guard** — each attempt carries a [`JobGuard`] built from the same
//!   (calibrated) prediction the placement used. The wall-clock budget
//!   truncates a slice mid-flight (the kill happens *at* the limit, not
//!   at the next boundary), and the dollar limit is checked every slice.
//! * **Faults** — node preemption is drawn per slice from the campaign's
//!   seeded PRNG at a per-node-hour rate; a faulted attempt rolls back to
//!   its last checkpoint, releases its nodes, and retries after bounded
//!   exponential backoff.
//! * **Refine** — every completed slice records (raw-predicted, measured)
//!   step times into per-platform and global calibrators; later
//!   placements and guards run on the corrected predictions, which is
//!   what drives the report's placement-MAPE trajectory down.
//!
//! # Scale: indexed state instead of per-event scans
//!
//! The original loop rescanned every job on every event — O(events ×
//! jobs), fine for a 26-job demo, hopeless for the million-job campaigns
//! ROADMAP item 2 asks for. The loop is now O(log n) per decision:
//!
//! * **Intake** — submissions sit in a submit-time-sorted vector behind a
//!   cursor (they never touch the event heap), and all events sharing one
//!   timestamp are processed as a *batch* with a single dispatch pass
//!   after it, so a burst of simultaneous arrivals is admitted in one
//!   sweep.
//! * **Ready set** — newly arrived or retried jobs go into a `BTreeSet`
//!   and are placed in job-index order.
//! * **Wait index** — a job that must queue registers, per pool, under
//!   the *smallest* node count any of its in-budget options needs
//!   (`wait_buckets`). When a pool releases nodes it is marked in
//!   `freed_pools`, and the next dispatch wakes only the lowest-indexed
//!   eligible parked job per freed pool instead of rescanning everyone.
//!   One deliberate semantic change rides along: a parked job is
//!   re-evaluated when capacity frees up, not on every event, so a
//!   placement that becomes feasible purely through calibration drift
//!   (with no node ever released) is only discovered at the next wake.
//! * **Model cache** — `model_key`s are interned to dense ids at submit;
//!   per-(pool, model) raw predictions for every rank option are computed
//!   once ([`Prediction`]s are time-invariant), decompositions are shared
//!   via `Arc<PreparedRun>`, and the calibrators fold observations into
//!   running sums so a correction factor is O(1) per query
//!   ([`ModelCalibrator::bounded`] keeps their memory flat).
//!
//! # Determinism, sharded
//!
//! The only clock is the event queue ([`crate::events`]): one *lane* per
//! pool plus an intake lane, merged by `(time, lane, per-lane seq)` — a
//! key that never mentions how lanes are spread over shard heaps, so a
//! campaign report is byte-identical at any
//! [`CampaignConfig::shards`] count. Every random draw derives from the
//! campaign seed via SplitMix64, and all iteration is over
//! `Vec`/`BTreeMap`/`BTreeSet` — reports are byte-for-byte reproducible
//! per seed.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::pool::NodePool;
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::topology::{build_topology, routed_set_comm, CommModel, TopologyVariant};
use hemocloud_fabric::{Flow, Topology};
use hemocloud_core::characterize::{characterize, PlatformCharacterization};
use hemocloud_core::composition::Prediction;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::guard::JobGuard;
use hemocloud_core::refine::ModelCalibrator;
use hemocloud_core::workload::Workload;
use hemocloud_obs::{Counter, Registry, Snapshot, SpanTotal};
use hemocloud_rt::rng::{Rng, SplitMix64};

use crate::events::{Event, ShardedEventQueue};
use crate::job::{JobOutcome, JobSpec};
use crate::report::{CampaignReport, JobReport, PlacementRecord, PlatformReport};

/// Observations each calibrator retains for diagnostics; the fit itself
/// always covers the full history (see [`ModelCalibrator::bounded`]).
const CALIBRATOR_WINDOW: usize = 1024;

/// Campaign-wide knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for every stochastic element (faults, slice noise streams).
    pub seed: u64,
    /// Seed for the one-time platform characterizations.
    pub characterization_seed: u64,
    /// Rank counts the dashboard may offer.
    pub rank_options: Vec<usize>,
    /// Steps per execution slice (guard checks and fault draws happen at
    /// this granularity).
    pub slice_steps: u64,
    /// Node-fault intensity, in **faults per node-hour** of occupancy
    /// (0 disables fault injection). A slice occupying `nodes` nodes for
    /// `dur_s` seconds expects `rate × nodes × dur_s / 3600` faults
    /// ([`expected_faults`]); the per-slice fault draw fires with the
    /// Poisson hit probability `1 − e^(−λ)` ([`fault_probability`]). At
    /// the demo's 0.15, a 2-node half-hour slice expects 0.15 faults and
    /// is interrupted with probability ≈ 0.139.
    pub fault_rate_per_node_hour: f64,
    /// Base retry backoff, seconds; doubles per retry of the same job up
    /// to [`CampaignConfig::max_retry_backoff_s`].
    pub retry_backoff_s: f64,
    /// Ceiling on a single retry's backoff, seconds. Doubling is clamped
    /// here so a job with a large `max_retries` cannot push its re-arrival
    /// into an astronomically late (or, past ~1070 retries, non-finite)
    /// event time — the event queue rejects non-finite times outright.
    pub max_retry_backoff_s: f64,
    /// Observations a calibrator needs before its correction is trusted
    /// for placement.
    pub min_calibration_obs: usize,
    /// The billing rule (per attempt, per second).
    pub prices: PriceSheet,
    /// Shard heaps for the event queue. Pure layout: the campaign report
    /// is byte-identical at any value (the merge key is shard-free), so
    /// pick whatever balances heap sizes. Clamped to at least 1.
    pub shards: usize,
    /// Placement records retained for the report (the chronologically
    /// first this many). MAPE/percentile accounting stays exact over
    /// *every* placement regardless; the cap only bounds report memory on
    /// million-job campaigns.
    pub max_placement_log: usize,
    /// Per-job report rows retained (the first this many jobs by
    /// submission index). Campaign-level aggregates always cover every
    /// job.
    pub max_job_reports: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            characterization_seed: 2023,
            rank_options: vec![8, 16, 32, 36, 64, 72],
            slice_steps: 25_000,
            fault_rate_per_node_hour: 0.0,
            retry_backoff_s: 30.0,
            max_retry_backoff_s: 3600.0,
            min_calibration_obs: 5,
            prices: PriceSheet::default(),
            shards: 1,
            max_placement_log: usize::MAX,
            max_job_reports: usize::MAX,
        }
    }
}

/// One capacity-limited platform pool offered to the campaign.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// The platform.
    pub platform: Platform,
    /// Nodes the campaign may occupy at once (capped at the platform's
    /// allocation).
    pub nodes: usize,
    /// The *actual* machine behavior for jobs run here — the unmodeled
    /// overheads the performance model will consistently miss until the
    /// calibrator learns them.
    pub overheads: Overheads,
    /// `Some(variant)` prices this pool's internodal traffic through a
    /// shared route-aware fabric sized to the whole pool: co-scheduled
    /// jobs contend for the same links. `None` keeps the scalar Eq. 12
    /// model (the calibration baseline).
    pub topology: Option<TopologyVariant>,
}

#[derive(Debug)]
struct PoolState {
    pool: NodePool,
    overheads: Overheads,
    character: PlatformCharacterization,
    calibrator: ModelCalibrator,
    /// The pool-wide shared fabric for routed pools — every job placed
    /// here routes its Eq. 9 messages over these links, so concurrent
    /// jobs' flows fair-share bandwidth.
    topology: Option<(TopologyVariant, Topology)>,
    /// Jobs with an active run on this pool — on a routed pool, the runs
    /// whose footprints make up the contention set.
    active_jobs: BTreeSet<usize>,
    attempts: usize,
    faults: usize,
    guard_kills: usize,
    cost: f64,
    /// Integer billed node-seconds (per-attempt round-up, saturating) —
    /// the counter the sweep harness reconciles against busy time.
    billed_node_seconds: u64,
}

impl PoolState {
    /// How runs on this pool price communication; its name is the tag
    /// reports and dashboard rows carry.
    fn comm(&self) -> CommModel {
        match &self.topology {
            Some((variant, _)) => CommModel::Routed(*variant),
            None => CommModel::Scalar,
        }
    }
}

/// Why the current slice's end event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceEnd {
    /// The slice ran its full step window.
    Ran,
    /// A node fault cut it short; the attempt aborts.
    Fault,
    /// The guard's wall-clock budget ran out mid-slice; the job dies at
    /// exactly its limit.
    GuardKill,
}

#[derive(Debug, Clone, Copy)]
struct PendingSlice {
    steps: u64,
    /// Measured seconds per step for this slice.
    step_s: f64,
    /// How the slice ends.
    end: SliceEnd,
    /// Actual occupancy seconds until the end event.
    dur_s: f64,
}

/// `PreparedRun` cache key: (pool, model id, ranks).
type PrepKey = (usize, u32, usize);

/// What a placed run is to a shared fabric: which prepared run, on which
/// physical nodes. Two runs with equal footprints inject the same flows.
type Footprint = (PrepKey, Vec<usize>);

/// Integer bytes a footprint moves over one link per step.
#[derive(Debug, Clone, Copy)]
struct LinkBytes {
    link: usize,
    /// Every route hop through the link counts.
    forwarded: u64,
    /// Only routes ending at the link count.
    delivered: u64,
}

/// Per-link bytes per step of `flows` on `topology`, for the links any
/// route touches. Comm bytes are integral (points × 152), so the `u64`
/// arithmetic is exact and the delivered column sums to the Eq. 9 graph
/// total exactly.
fn link_bytes_per_step(topology: &Topology, flows: &[Flow]) -> Arc<[LinkBytes]> {
    let mut per_link = vec![(0u64, 0u64); topology.links().len()];
    for flow in flows {
        debug_assert_eq!(flow.bytes.fract(), 0.0, "non-integral comm bytes");
        let bytes = flow.bytes as u64;
        let route = topology.get_route(flow.src, flow.dst);
        for &link in route {
            per_link[link].0 += bytes;
        }
        if let Some(&last) = route.last() {
            per_link[last].1 += bytes;
        }
    }
    per_link
        .into_iter()
        .enumerate()
        .filter(|&(_, (forwarded, _))| forwarded > 0)
        .map(|(link, (forwarded, delivered))| LinkBytes {
            link,
            forwarded,
            delivered,
        })
        .collect()
}

#[derive(Debug)]
struct ActiveRun {
    pool_idx: usize,
    ranks: usize,
    nodes: usize,
    /// Physical node ids of the allocation (lowest-free-first, so
    /// deterministic). On routed pools these address the pool fabric.
    node_ids: Vec<usize>,
    /// What one step of this run moves over each fabric link (`None` on
    /// scalar pools), shared by every run with the same footprint.
    link_bytes: Option<Arc<[LinkBytes]>>,
    /// Shared with the campaign's decomposition cache — repeat placements
    /// of the same (pool, model, ranks) never rebuild or clone the RCB.
    prepared: Arc<PreparedRun>,
    guard: JobGuard,
    /// Uncalibrated model step prediction — what the calibrator learns
    /// against.
    raw_step_pred_s: f64,
    /// The (possibly calibrated) step prediction the placement believed —
    /// what the MAPE accounting scores.
    corrected_step_pred_s: f64,
    /// Whether that prediction was calibrated.
    calibrated: bool,
    attempt_elapsed_s: f64,
    slice_idx: u64,
    /// Global placement ordinal (may exceed the retained placement log).
    placement_ordinal: usize,
    /// Whether this attempt already contributed its first measured slice
    /// to the error accounting.
    measured_recorded: bool,
    pending: Option<PendingSlice>,
}

#[derive(Debug)]
struct JobState {
    spec: JobSpec,
    /// Interned `model_key|kernel` id — the dense cache key.
    model_id: u32,
    outcome: Option<JobOutcome>,
    /// Wait-index registrations: (pool, min-nodes bucket) pairs this job
    /// currently occupies. Empty unless parked.
    parked: Vec<(usize, usize)>,
    completed_steps: u64,
    attempts: u32,
    retries_used: u32,
    faults: u32,
    /// Boxed: a million queued jobs must not each inline a ~200-byte run.
    run: Option<Box<ActiveRun>>,
    cost: f64,
    prior_attempts_s: f64,
    wasted_steps: u64,
    finish_s: f64,
}

impl JobState {
    fn new(spec: JobSpec, model_id: u32) -> Self {
        Self {
            spec,
            model_id,
            outcome: None,
            parked: Vec::new(),
            completed_steps: 0,
            attempts: 0,
            retries_used: 0,
            faults: 0,
            run: None,
            cost: 0.0,
            prior_attempts_s: 0.0,
            wasted_steps: 0,
            finish_s: 0.0,
        }
    }
}

/// Expected fault count `λ` for occupying `nodes` nodes over `dur_s`
/// seconds at `rate_per_node_hour` faults per node-hour (the unit of
/// [`CampaignConfig::fault_rate_per_node_hour`]):
/// `λ = rate × nodes × dur_s / 3600`.
///
/// Total by construction: a zero-duration slice has zero expected faults
/// at *any* rate (including `inf`, where the naive product would be
/// `inf × 0 = NaN`), and non-finite or negative inputs clamp to the
/// nearest meaningful value instead of poisoning downstream probability
/// math. The sweep harness runs fault-rate extremes on purpose.
pub fn expected_faults(rate_per_node_hour: f64, nodes: usize, dur_s: f64) -> f64 {
    let rate = if rate_per_node_hour.is_nan() {
        0.0
    } else {
        rate_per_node_hour.max(0.0)
    };
    let dur = if dur_s.is_nan() { 0.0 } else { dur_s.max(0.0) };
    if rate == 0.0 || dur == 0.0 || nodes == 0 {
        return 0.0;
    }
    rate * nodes as f64 * (dur / 3600.0)
}

/// Probability that at least one fault lands in a window whose expected
/// fault count is `lambda`, under Poisson arrivals: `1 − e^(−λ)`.
/// Computed via `exp_m1` so tiny rates keep full precision. The result is
/// always in `[0, 1]`: negative or NaN `λ` counts as 0 (no exposure),
/// huge or infinite `λ` saturates at 1 — never NaN, never outside the
/// unit interval, so `rng.next_f64() < fault_probability(λ)` stays a
/// well-defined Bernoulli draw at every sweep extreme.
pub fn fault_probability(lambda: f64) -> f64 {
    let lambda = if lambda.is_nan() { 0.0 } else { lambda.max(0.0) };
    if lambda == f64::INFINITY {
        return 1.0;
    }
    (-(-lambda).exp_m1()).clamp(0.0, 1.0)
}

/// Bounded exponential retry backoff: `base_s × 2^(retry−1)` for the
/// `retry`-th retry (1-based), clamped to `max_s`. The doubling stops as
/// soon as the cap is reached, so any `retry` count — even one far past
/// the ~1070 doublings that would overflow `f64` — yields a finite,
/// monotonically non-decreasing delay.
pub fn retry_backoff_s(base_s: f64, max_s: f64, retry: u32) -> f64 {
    if base_s.is_nan() || base_s <= 0.0 {
        return 0.0;
    }
    // A non-positive or non-finite cap means "no cap" — which still must
    // not produce a non-finite delay, so fall back to f64::MAX.
    let max_s = if max_s > 0.0 && max_s.is_finite() {
        max_s
    } else {
        f64::MAX
    };
    let mut backoff = base_s;
    for _ in 1..retry {
        if backoff >= max_s {
            break;
        }
        backoff *= 2.0;
    }
    backoff.min(max_s)
}

/// Derive a child seed from mixed parts (SplitMix64 chaining — the same
/// construction `rt::check` uses for per-case seeds).
fn derive_seed(parts: &[u64]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        acc = SplitMix64::new(acc ^ p).next_u64();
    }
    acc
}

/// One statically feasible rank option of a (pool, model) pair: a row of
/// [`GeneralModel::options`] whose rank count fits the grid and whose
/// node count fits the pool. Raw predictions are time-invariant, so the
/// whole row is computed once per (pool, model) and cached.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OptionSpec {
    nodes: usize,
    /// Uncalibrated; carries the rank count.
    raw: Prediction,
}

/// One in-budget option of a waiting job, scored under the current
/// calibration: which cached [`OptionSpec`]
/// (`options(pool_idx, model)[option]`), and the numbers
/// [`Objective::pick`] decides on.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    pool_idx: usize,
    option: usize,
    time_s: f64,
    cost_dollars: f64,
    fits_now: bool,
}

enum PlaceResult {
    Placed,
    /// Queue the job; the payload is its wait-index registration — per
    /// pool, the minimum node count among its in-budget options there.
    Wait(Vec<(usize, usize)>),
    Reject(&'static str),
}

/// The campaign's observability handles. The campaign owns a *private*
/// [`Registry`] (not the process-global one): everything in here advances
/// on the virtual event clock and per-seed determinism matters, so the
/// counters must not mix with wall-clock metrics or with a second
/// campaign running in the same process.
#[derive(Debug)]
struct SchedObs {
    registry: Registry,
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    slices: Arc<Counter>,
    /// Slices priced on a routed pool, and how many of those pricings
    /// had to run a fabric exchange (the rest found their set priced).
    contention_slices: Arc<Counter>,
    contention_exchanges: Arc<Counter>,
    guard_kills: Arc<Counter>,
    faults: Arc<Counter>,
    retries: Arc<Counter>,
    events: Arc<Counter>,
    /// Virtual time attributed to each event type (see
    /// [`Campaign::on_event`]).
    arrive_span: Arc<SpanTotal>,
    slice_done_span: Arc<SpanTotal>,
    /// Pops per event lane (0 = intake, 1 + p = pool p). Lane-keyed, not
    /// shard-keyed, so the whole snapshot stays shard-count-invariant
    /// apart from the explicit `sched.shards` gauge.
    lane_pops: Vec<Arc<Counter>>,
    /// Per pool, per link: bytes forwarded over the link by completed
    /// slices (every hop of every route counts). Empty for scalar pools.
    fabric_forwarded: Vec<Vec<Arc<Counter>>>,
    /// Per pool, per link: bytes delivered at the link (final hop only),
    /// so the family sum equals the Eq. 9 message-graph bytes exactly.
    fabric_delivered: Vec<Vec<Arc<Counter>>>,
}

impl SchedObs {
    fn new(lanes: usize, pool_links: &[usize]) -> Self {
        let registry = Registry::new();
        let link_families = |what: &str| {
            let family = |(p, &links): (usize, &usize)| {
                registry.counter_family(&format!("fabric.pool{p}.link.{what}_bytes"), links)
            };
            pool_links.iter().enumerate().map(family).collect()
        };
        Self {
            submitted: registry.counter("sched.jobs.submitted"),
            admitted: registry.counter("sched.placements"),
            rejected: registry.counter("sched.jobs.rejected"),
            slices: registry.counter("sched.slices"),
            contention_slices: registry.counter("sched.contention.slices"),
            contention_exchanges: registry.counter("sched.contention.exchanges"),
            guard_kills: registry.counter("sched.guard_kills"),
            faults: registry.counter("sched.faults"),
            retries: registry.counter("sched.retries"),
            events: registry.counter("sched.events.processed"),
            arrive_span: registry.span_total("sched.event.arrive"),
            slice_done_span: registry.span_total("sched.event.slice_done"),
            lane_pops: registry.counter_family("sched.lane.pops", lanes),
            fabric_forwarded: link_families("forwarded"),
            fabric_delivered: link_families("delivered"),
            registry,
        }
    }
}

/// The campaign scheduler.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    pools: Vec<PoolState>,
    jobs: Vec<JobState>,
    events: ShardedEventQueue,
    clock_s: f64,
    global_calibrator: ModelCalibrator,
    /// `model_key|kernel` strings interned to dense ids at submit.
    model_key_ids: BTreeMap<String, u32>,
    /// The first workload submitted under each model id. Jobs of one
    /// model share a grid and a kernel, so this one's decomposition
    /// census serves all of them — fits and prepared runs alike.
    model_workloads: Vec<Arc<Workload>>,
    /// Statically feasible rank options with raw predictions, per
    /// (pool, model id) at `model_id * pools.len() + pool_idx` — `None`
    /// until the model's first placement try builds the row (which may
    /// well come out empty), then reused by every later one.
    pool_options: Vec<Option<Vec<OptionSpec>>>,
    /// Scratch for one placement try's scored options; cleared by each
    /// try, kept for its capacity.
    candidates: Vec<Candidate>,
    /// `PreparedRun` cache keyed by (pool, model id, ranks) — the RCB
    /// decomposition behind a placement is deterministic per key, so
    /// repeat placements share one `Arc`.
    prepared: BTreeMap<PrepKey, Arc<PreparedRun>>,
    /// Per-link bytes per step of every footprint placed so far.
    link_bytes: BTreeMap<Footprint, Arc<[LinkBytes]>>,
    /// Contention prices: a routed pool's active footprints, sorted →
    /// every member's per-task internodal seconds, in key order. Halo
    /// traffic repeats every step, so what co-scheduled runs cost each
    /// other is a function of the set alone — one `fabric::exchange`
    /// per distinct set serves every slice any member starts under it.
    /// The key names its pool (`PrepKey.0`); node sets of one pool are
    /// disjoint, so the sort order is total.
    contention: BTreeMap<Vec<Footprint>, Vec<Arc<[f64]>>>,
    /// Jobs that arrived (or retried) and await their first placement
    /// attempt, tried in job-index order on the next dispatch.
    ready: BTreeSet<usize>,
    /// Per pool: min-required-nodes → parked job indices. The wake path
    /// scans only buckets whose key fits the pool's free nodes.
    wait_buckets: Vec<BTreeMap<usize, BTreeSet<usize>>>,
    /// Pools that released nodes since the last dispatch.
    freed_pools: BTreeSet<usize>,
    /// Retained placement log (first `max_placement_log` placements;
    /// `sched.placements` counts all of them).
    placements: Vec<PlacementRecord>,
    /// (placement ordinal, |pct error|) of every measured *uncalibrated*
    /// placement — small, since calibration kicks in within a few slices.
    uncal_errs: Vec<(usize, f64)>,
    /// Running totals over every measured *calibrated* placement.
    cal_err_sum: f64,
    cal_err_count: usize,
    obs: SchedObs,
}

impl Campaign {
    /// Set up a campaign over `pools`.
    ///
    /// # Panics
    /// Panics on an empty pool list or duplicate platform abbreviations
    /// (reports key per-platform accounting by abbreviation).
    pub fn new(config: CampaignConfig, pools: Vec<PoolSpec>) -> Self {
        assert!(!pools.is_empty(), "campaign needs at least one pool");
        let mut seen: Vec<&str> = Vec::new();
        for p in &pools {
            assert!(
                !seen.contains(&p.platform.abbrev),
                "duplicate pool platform {}",
                p.platform.abbrev
            );
            seen.push(p.platform.abbrev);
        }
        let characterization_seed = config.characterization_seed;
        let pools: Vec<PoolState> = pools
            .into_iter()
            .map(|spec| {
                let character = characterize(&spec.platform, characterization_seed);
                let pool = NodePool::new(spec.platform, spec.nodes);
                // The shared fabric spans the whole pool allocation (after
                // the platform cap), so every placement's node ids address
                // valid fabric nodes.
                let topology = spec
                    .topology
                    .map(|v| (v, build_topology(&pool.platform, v, pool.nodes_total())));
                PoolState {
                    character,
                    pool,
                    overheads: spec.overheads,
                    calibrator: ModelCalibrator::bounded(CALIBRATOR_WINDOW),
                    topology,
                    active_jobs: BTreeSet::new(),
                    attempts: 0,
                    faults: 0,
                    guard_kills: 0,
                    cost: 0.0,
                    billed_node_seconds: 0,
                }
            })
            .collect();
        let lanes = 1 + pools.len();
        let shards = config.shards.max(1);
        let pool_links: Vec<usize> = pools
            .iter()
            .map(|s| s.topology.as_ref().map_or(0, |(_, t)| t.links().len()))
            .collect();
        Self {
            events: ShardedEventQueue::new(lanes, shards),
            wait_buckets: vec![BTreeMap::new(); pools.len()],
            obs: SchedObs::new(lanes, &pool_links),
            config,
            jobs: Vec::new(),
            clock_s: 0.0,
            global_calibrator: ModelCalibrator::bounded(CALIBRATOR_WINDOW),
            model_key_ids: BTreeMap::new(),
            model_workloads: Vec::new(),
            pool_options: Vec::new(),
            candidates: Vec::new(),
            prepared: BTreeMap::new(),
            link_bytes: BTreeMap::new(),
            contention: BTreeMap::new(),
            ready: BTreeSet::new(),
            freed_pools: BTreeSet::new(),
            placements: Vec::new(),
            uncal_errs: Vec::new(),
            cal_err_sum: 0.0,
            cal_err_count: 0,
            pools,
        }
    }

    /// Deterministic snapshot of the campaign's private metrics registry:
    /// admission/guard/retry/fault counters, per-lane pop counters,
    /// per-event-type virtual-time span totals, and (after
    /// [`Campaign::run`]) calibration-error gauges. Byte-for-byte
    /// reproducible per seed; only the `sched.shards` gauge varies with
    /// the shard count.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.obs.registry.snapshot()
    }

    /// Submit a job; returns its index.
    ///
    /// # Panics
    /// Panics on invalid specs (negative tolerance, non-positive budget
    /// or hidden-step factor, zero declared steps).
    pub fn submit(&mut self, spec: JobSpec) -> usize {
        assert!(spec.tolerance >= 0.0, "negative tolerance on {}", spec.name);
        assert!(
            spec.budget_dollars > 0.0,
            "non-positive budget on {}",
            spec.name
        );
        assert!(
            spec.hidden_steps_factor > 0.0,
            "non-positive hidden_steps_factor on {}",
            spec.name
        );
        assert!(spec.workload.steps > 0, "zero-step job {}", spec.name);
        assert!(
            spec.submit_s.is_finite() && spec.submit_s >= 0.0,
            "bad submit time on {}",
            spec.name
        );
        let key = format!("{}|{}", spec.model_key, spec.workload.kernel.name());
        let next_id = self.model_key_ids.len() as u32;
        let model_id = *self.model_key_ids.entry(key).or_insert(next_id);
        if model_id == next_id {
            self.model_workloads.push(Arc::clone(&spec.workload));
            let rows = self.model_workloads.len() * self.pools.len();
            self.pool_options.resize(rows, None);
        }
        let idx = self.jobs.len();
        self.jobs.push(JobState::new(spec, model_id));
        self.obs.submitted.inc();
        idx
    }

    /// A campaign over `pools` with `jobs` submitted in order, run to its
    /// end: the report and the [`Campaign::obs_snapshot`].
    pub fn run_jobs(
        config: CampaignConfig,
        pools: Vec<PoolSpec>,
        jobs: impl IntoIterator<Item = JobSpec>,
    ) -> (CampaignReport, Snapshot) {
        let mut campaign = Self::new(config, pools);
        for job in jobs {
            campaign.submit(job);
        }
        let report = campaign.run();
        (report, campaign.obs_snapshot())
    }

    /// Number of submitted jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Drain every event and return the campaign report.
    ///
    /// Events sharing one (bitwise-equal) timestamp are processed as a
    /// batch — intake arrivals first (lane 0 outranks every pool lane at
    /// equal time), then queued events in `(lane, seq)` order — followed
    /// by a single dispatch pass. Events pushed *during* that dispatch at
    /// the same time form the next batch at the same clock value, so the
    /// loop terminates because every batch consumes events and scheduled
    /// work strictly advances.
    pub fn run(&mut self) -> CampaignReport {
        self.obs
            .registry
            .gauge("sched.shards")
            .set(self.events.shard_count() as f64);
        // Intake: submission indices, stably sorted by submit time — an
        // O(1)-per-arrival cursor instead of a heap of a million events.
        let mut intake: Vec<usize> = (0..self.jobs.len()).collect();
        intake.sort_by(|&a, &b| {
            self.jobs[a]
                .spec
                .submit_s
                .total_cmp(&self.jobs[b].spec.submit_s)
        });
        let mut cursor = 0usize;
        loop {
            let next_intake = intake.get(cursor).map(|&j| self.jobs[j].spec.submit_s);
            let t = match (next_intake, self.events.next_time()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => {
                    if a <= b {
                        a
                    } else {
                        b
                    }
                }
            };
            debug_assert!(t >= self.clock_s, "clock moved backwards");
            while cursor < intake.len() && self.jobs[intake[cursor]].spec.submit_s == t {
                let job = intake[cursor];
                cursor += 1;
                self.on_event(Event::Arrive { job }, t, 0);
            }
            while self.events.next_time() == Some(t) {
                let (_, lane, event) = self.events.pop().expect("peeked event");
                self.on_event(event, t, lane);
            }
            self.dispatch();
        }
        // Anything still parked can never be placed again: no running job
        // remains to free nodes.
        for job_idx in 0..self.jobs.len() {
            if self.jobs[job_idx].outcome.is_none() {
                assert!(self.jobs[job_idx].run.is_none(), "drained queue with a live run");
                self.reject(job_idx, "starved: no pool ever had room");
            }
        }
        self.build_report()
    }

    /// Advance the clock to `t` and handle `event`, attributing the
    /// virtual-time gap to the event type that closes it (so per-type
    /// span totals sum exactly to the makespan — later events in the same
    /// batch record zero-length spans) and counting the pop on its lane.
    fn on_event(&mut self, event: Event, t: f64, lane: usize) {
        let gap_s = (t - self.clock_s).max(0.0);
        self.clock_s = t;
        self.obs.events.inc();
        self.obs.lane_pops[lane].inc();
        match event {
            Event::Arrive { job } => {
                self.obs.arrive_span.record_s(gap_s);
                self.ready.insert(job);
            }
            Event::SliceDone { job, attempt } => {
                self.obs.slice_done_span.record_s(gap_s);
                self.on_slice_done(job, attempt);
            }
        }
    }

    // ---- placement ----------------------------------------------------

    /// The calibrator placements on `pool_idx` are corrected by — the
    /// pool's own once it has enough observations, else the global one —
    /// or `None` while neither has (placements then run on the raw
    /// model). Scoring reads its factor, the winner's guard its full
    /// corrected prediction; both are O(1) over running sums.
    fn calibrator(&self, pool_idx: usize) -> Option<&ModelCalibrator> {
        let min = self.config.min_calibration_obs.max(1);
        [&self.pools[pool_idx].calibrator, &self.global_calibrator]
            .into_iter()
            .find(|calibrator| calibrator.len() >= min)
    }

    /// The cached option row of (pool, model); built by the model's
    /// first [`Campaign::try_place`].
    fn options(&self, pool_idx: usize, model_id: u32) -> &[OptionSpec] {
        self.pool_options[model_id as usize * self.pools.len() + pool_idx]
            .as_deref()
            .expect("options are built before they are read")
    }

    /// Build (once) the statically feasible option rows for every pool of
    /// this job's model — all of a model's rows in the one call, so its
    /// first says whether they exist.
    fn ensure_options(&mut self, job_idx: usize) {
        let model_id = self.jobs[job_idx].model_id;
        let first = model_id as usize * self.pools.len();
        if self.pool_options[first].is_some() {
            return;
        }
        for (pool_idx, state) in self.pools.iter().enumerate() {
            let workload = &self.model_workloads[model_id as usize];
            let model = GeneralModel::from_characterization(&state.character, workload);
            let fluid_count = workload.grid.fluid_count();
            let opts = model
                .options(&self.config.rank_options)
                .filter(|(nodes, raw)| raw.ranks <= fluid_count && state.pool.can_host(*nodes))
                .map(|(nodes, raw)| OptionSpec { nodes, raw })
                .collect();
            self.pool_options[first + pool_idx] = Some(opts);
        }
    }

    fn try_place(&mut self, job_idx: usize) -> PlaceResult {
        self.ensure_options(job_idx);
        let model_id = self.jobs[job_idx].model_id;
        let spec = &self.jobs[job_idx].spec;
        let steps = spec.workload.steps;
        let budget = spec.budget_dollars;
        let objective = spec.objective;

        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        for (pool_idx, state) in self.pools.iter().enumerate() {
            let k = self
                .calibrator(pool_idx)
                .map_or(1.0, ModelCalibrator::correction_factor);
            let platform = &state.pool.platform;
            let nodes_free = state.pool.nodes_free();
            for (option, opt) in self.options(pool_idx, model_id).iter().enumerate() {
                // Same arithmetic the winner's corrected prediction uses:
                // time_for_steps(steps) over a step time scaled by k.
                let time_s = opt.raw.step_time_s * k * steps as f64;
                let cost_dollars = self.config.prices.cost(platform, opt.nodes, time_s);
                if cost_dollars > budget {
                    continue; // admission: never offer an over-budget option
                }
                cands.push(Candidate {
                    pool_idx,
                    option,
                    time_s,
                    cost_dollars,
                    fits_now: opt.nodes <= nodes_free,
                });
            }
        }

        // The objective's choice among the candidates that fit free nodes
        // now, or — `on_empty_pools` — among all of them. The candidate
        // itself is the key, so equal (time, cost) rows on two pools stay
        // distinct and the earliest wins.
        let pick = |on_empty_pools: bool| {
            let offered = cands.iter().filter(|c| on_empty_pools || c.fits_now);
            objective.pick(offered.map(|c| (c, c.time_s, c.cost_dollars)))
        };
        let result = if let Some(&Candidate { pool_idx, option, .. }) = pick(false) {
            self.place(job_idx, pool_idx, option);
            PlaceResult::Placed
        } else if pick(true).is_some() {
            // Nothing fits right now, but something would on an empty
            // pool. Candidates are grouped by pool, in pool order.
            let mut park_regs: Vec<(usize, usize)> = Vec::new();
            for c in &cands {
                let nodes = self.options(c.pool_idx, model_id)[c.option].nodes;
                match park_regs.last_mut() {
                    Some((pool_idx, min_nodes)) if *pool_idx == c.pool_idx => {
                        *min_nodes = nodes.min(*min_nodes);
                    }
                    _ => park_regs.push((c.pool_idx, nodes)),
                }
            }
            PlaceResult::Wait(park_regs)
        } else {
            PlaceResult::Reject("no (platform, ranks) option satisfies the objective and budget")
        };
        self.candidates = cands;
        result
    }

    fn place(&mut self, job_idx: usize, pool_idx: usize, option: usize) {
        self.unpark(job_idx);
        let model_id = self.jobs[job_idx].model_id;
        let OptionSpec { nodes, raw } = self.options(pool_idx, model_id)[option];
        let ranks = raw.ranks;
        let calibrator = self.calibrator(pool_idx);
        let calibrated = calibrator.is_some();
        let corrected = calibrator.map_or(raw, |c| c.corrected_prediction(&raw));
        let state = &mut self.pools[pool_idx];
        let node_ids = state
            .pool
            .try_alloc_ids(nodes)
            .expect("placement raced capacity");
        state.attempts += 1;
        state.active_jobs.insert(job_idx);
        let platform = state.pool.platform.clone();
        let overheads = state.overheads;
        let comm = state.comm();

        let prep_key = (pool_idx, model_id, ranks);
        if !self.prepared.contains_key(&prep_key) {
            let workload = &self.model_workloads[model_id as usize];
            let census = workload
                .census(ranks)
                .expect("candidate was validated feasible");
            let built = PreparedRun::from_census(
                &platform,
                census,
                &workload.kernel,
                workload.profile.boundary_point_bytes,
                &overheads,
                comm,
            )
            .expect("candidate was validated feasible");
            self.prepared.insert(prep_key, Arc::new(built));
        }
        let prepared = Arc::clone(&self.prepared[&prep_key]);
        let link_bytes = self.pools[pool_idx].topology.as_ref().map(|(_, topology)| {
            Arc::clone(
                self.link_bytes
                    .entry((prep_key, node_ids.clone()))
                    .or_insert_with(|| {
                        link_bytes_per_step(topology, &prepared.flows(&node_ids, 0))
                    }),
            )
        });

        let max_placement_log = self.config.max_placement_log;
        let placement_ordinal = self.obs.admitted.get() as usize;
        self.obs.admitted.inc();

        let job = &mut self.jobs[job_idx];
        job.attempts += 1;
        let spec = &job.spec;
        let mut guard = JobGuard::from_prediction(
            &corrected,
            spec.workload.steps,
            &platform,
            spec.tolerance,
        );
        guard.max_dollars = guard.max_dollars.min(spec.budget_dollars);

        if self.placements.len() < max_placement_log {
            self.placements.push(PlacementRecord {
                job: job_idx,
                job_name: spec.name.clone(),
                attempt: job.attempts,
                platform: platform.abbrev.to_string(),
                pool: pool_idx,
                ranks,
                nodes,
                calibrated,
                predicted_step_s: corrected.step_time_s,
                measured_step_s: None,
                time_s: self.clock_s,
                topology: comm,
            });
        }
        job.run = Some(Box::new(ActiveRun {
            pool_idx,
            ranks,
            nodes,
            node_ids,
            link_bytes,
            prepared,
            guard,
            raw_step_pred_s: raw.step_time_s,
            corrected_step_pred_s: corrected.step_time_s,
            calibrated,
            attempt_elapsed_s: 0.0,
            slice_idx: 0,
            placement_ordinal,
            measured_recorded: false,
            pending: None,
        }));
        self.schedule_slice(job_idx);
    }

    /// The one way a job leaves the system: off the wait index, the
    /// books closed on a live attempt, the outcome tallied, it and the
    /// clock stamped.
    fn finish(&mut self, job_idx: usize, outcome: JobOutcome) {
        self.unpark(job_idx);
        if let Some(run) = &self.jobs[job_idx].run {
            if outcome == JobOutcome::GuardKilled {
                self.pools[run.pool_idx].guard_kills += 1;
            }
            self.finalize_attempt(job_idx);
        }
        match outcome {
            JobOutcome::GuardKilled => self.obs.guard_kills.inc(),
            JobOutcome::Rejected { .. } => self.obs.rejected.inc(),
            JobOutcome::Completed | JobOutcome::Failed => {}
        }
        let job = &mut self.jobs[job_idx];
        job.outcome = Some(outcome);
        job.finish_s = self.clock_s;
    }

    fn reject(&mut self, job_idx: usize, reason: &str) {
        self.finish(job_idx, JobOutcome::Rejected { reason: reason.into() });
    }

    /// Register a queued job in the wait index under its per-pool minimum
    /// node requirements (refreshing any stale registration — budgets are
    /// re-evaluated under the current calibration on every failed try).
    fn park(&mut self, job_idx: usize, regs: Vec<(usize, usize)>) {
        self.unpark(job_idx);
        for &(pool_idx, nodes) in &regs {
            self.wait_buckets[pool_idx]
                .entry(nodes)
                .or_default()
                .insert(job_idx);
        }
        self.jobs[job_idx].parked = regs;
    }

    fn unpark(&mut self, job_idx: usize) {
        for (pool_idx, nodes) in std::mem::take(&mut self.jobs[job_idx].parked) {
            let bucket = self.wait_buckets[pool_idx]
                .get_mut(&nodes)
                .expect("parked job has a bucket");
            bucket.remove(&job_idx);
            if bucket.is_empty() {
                self.wait_buckets[pool_idx].remove(&nodes);
            }
        }
    }

    /// Lowest-indexed parked job that `pool_idx` could currently host and
    /// that has not already failed to place this dispatch. Scans only the
    /// buckets whose node requirement fits the free count; within a
    /// bucket, the first non-tried job is its minimum.
    fn wake_candidate(
        &self,
        pool_idx: usize,
        nodes_free: usize,
        tried: &BTreeSet<usize>,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for jobs in self.wait_buckets[pool_idx].range(..=nodes_free).map(|(_, j)| j) {
            for &job in jobs {
                if tried.contains(&job) {
                    continue;
                }
                best = Some(best.map_or(job, |b: usize| b.min(job)));
                break;
            }
        }
        best
    }

    /// One placement try of a ready or woken job. A job that must wait
    /// is (re)parked and joins `tried`; one that places or is rejected
    /// leaves the wait index in [`Campaign::place`] / [`Campaign::finish`].
    fn try_job(&mut self, job_idx: usize, tried: &mut BTreeSet<usize>) {
        match self.try_place(job_idx) {
            PlaceResult::Placed => {}
            PlaceResult::Wait(regs) => {
                self.park(job_idx, regs);
                tried.insert(job_idx);
            }
            PlaceResult::Reject(reason) => self.reject(job_idx, reason),
        }
    }

    /// One placement pass: try every ready job in index order, then wake
    /// parked jobs on pools that freed nodes. `tried` jobs that failed to
    /// place are skipped for the rest of the pass — free capacity only
    /// shrinks within a dispatch, so a failed job cannot succeed later in
    /// the same pass.
    fn dispatch(&mut self) {
        let mut tried: BTreeSet<usize> = BTreeSet::new();
        for job_idx in std::mem::take(&mut self.ready) {
            if self.jobs[job_idx].outcome.is_none() && self.jobs[job_idx].run.is_none() {
                self.try_job(job_idx, &mut tried);
            }
        }
        while let Some(pool_idx) = self.freed_pools.pop_first() {
            loop {
                let nodes_free = self.pools[pool_idx].pool.nodes_free();
                let Some(job_idx) = self.wake_candidate(pool_idx, nodes_free, &tried) else {
                    break;
                };
                self.try_job(job_idx, &mut tried);
            }
        }
    }

    // ---- execution ----------------------------------------------------

    /// The event lane of pool `pool_idx` (lane 0 is intake).
    fn pool_lane(pool_idx: usize) -> usize {
        1 + pool_idx
    }

    /// The active footprints of routed pool `pool_idx`, sorted: the key
    /// its contention prices are stored under.
    fn active_set(&self, pool_idx: usize) -> Vec<Footprint> {
        let mut set: Vec<Footprint> = self.pools[pool_idx]
            .active_jobs
            .iter()
            .map(|&j| {
                let run = self.jobs[j].run.as_ref().expect("active job has a run");
                ((pool_idx, self.jobs[j].model_id, run.ranks), run.node_ids.clone())
            })
            .collect();
        set.sort_unstable();
        set
    }

    /// Per-task internodal seconds per step of `job_idx`'s run under the
    /// traffic of everything active on its (routed) pool right now.
    fn contended_inter_s(&mut self, pool_idx: usize, job_idx: usize) -> Arc<[f64]> {
        self.obs.contention_slices.inc();
        let set = self.active_set(pool_idx);
        let node_ids = &self.jobs[job_idx].run.as_ref().expect("slice for idle job").node_ids;
        let member = set
            .iter()
            .position(|(_, ids)| ids == node_ids)
            .expect("a placed job is in its pool's active set");
        Arc::clone(&self.set_prices(pool_idx, set)[member])
    }

    /// Every member's price under `set` on routed pool `pool_idx`, in
    /// key order. The first slice started under a set prices all its
    /// members with one exchange; later ones — whichever member asks —
    /// read the result.
    fn set_prices(&mut self, pool_idx: usize, set: Vec<Footprint>) -> &[Arc<[f64]>] {
        match self.contention.entry(set) {
            Entry::Occupied(priced) => priced.into_mut(),
            Entry::Vacant(unpriced) => {
                self.obs.contention_exchanges.inc();
                let (_, topology) = self.pools[pool_idx].topology.as_ref().expect("routed pool");
                let members: Vec<(&PreparedRun, &[usize])> = unpriced
                    .key()
                    .iter()
                    .map(|(prep_key, ids)| (&*self.prepared[prep_key], ids.as_slice()))
                    .collect();
                let prices = routed_set_comm(topology, &members)
                    .into_iter()
                    .map(Arc::from)
                    .collect();
                unpriced.insert(prices)
            }
        }
    }

    fn schedule_slice(&mut self, job_idx: usize) {
        let seed_base = self.config.seed;
        let fault_rate = self.config.fault_rate_per_node_hour;
        let slice_cap = self.config.slice_steps.max(1);
        let clock = self.clock_s;

        let pool_idx = self.jobs[job_idx]
            .run
            .as_ref()
            .expect("slice for idle job")
            .pool_idx;
        let contended_inter_s = self.pools[pool_idx]
            .topology
            .is_some()
            .then(|| self.contended_inter_s(pool_idx, job_idx));

        let job = &mut self.jobs[job_idx];
        let attempt = job.attempts;
        let run = job.run.as_mut().expect("slice for idle job");
        let remaining = job.spec.true_steps().saturating_sub(job.completed_steps);
        let steps = remaining.min(slice_cap).max(1);

        let noise_seed =
            derive_seed(&[seed_base, job_idx as u64, attempt as u64, run.slice_idx, 0x51]);
        let sim = match &contended_inter_s {
            Some(inter_s) => {
                run.prepared
                    .run_slice_priced(steps, noise_seed, clock / 3600.0, inter_s)
            }
            None => run.prepared.run_slice(steps, noise_seed, clock / 3600.0),
        };

        // Pre-draw the fault for this slice from the campaign stream.
        let mut rng = Rng::new(derive_seed(&[
            seed_base,
            job_idx as u64,
            attempt as u64,
            run.slice_idx,
            0xFA,
        ]));
        let lambda = expected_faults(fault_rate, run.nodes, sim.total_time_s);
        let fault = rng.next_f64() < fault_probability(lambda);
        let fault_at = sim.total_time_s * rng.next_f64();

        // Whichever intervenes first ends the slice: the pre-drawn fault
        // or the guard's wall-clock budget running dry.
        let budget_left = run
            .guard
            .remaining_seconds(job.prior_attempts_s + run.attempt_elapsed_s);
        let (end, dur_s) = if fault && fault_at <= sim.total_time_s.min(budget_left) {
            (SliceEnd::Fault, fault_at)
        } else if budget_left < sim.total_time_s {
            (SliceEnd::GuardKill, budget_left)
        } else {
            (SliceEnd::Ran, sim.total_time_s)
        };
        run.pending = Some(PendingSlice {
            steps,
            step_s: sim.step_time_s,
            end,
            dur_s,
        });
        run.slice_idx += 1;
        let lane = Self::pool_lane(run.pool_idx);
        self.events
            .push(lane, clock + dur_s, Event::SliceDone { job: job_idx, attempt });
    }

    /// Close the books on the current attempt: bill it, free its nodes,
    /// and mark the pool for the next dispatch's wake pass.
    fn finalize_attempt(&mut self, job_idx: usize) {
        let job = &mut self.jobs[job_idx];
        let run = job.run.take().expect("no attempt to finalize");
        let state = &mut self.pools[run.pool_idx];
        let attempt_s = run.attempt_elapsed_s;
        // Per-attempt billing: each attempt is its own allocation.
        let prices = &self.config.prices;
        let cost = prices.cost(&state.pool.platform, run.nodes, attempt_s);
        job.cost += cost;
        job.prior_attempts_s += attempt_s;
        state.cost += cost;
        state.billed_node_seconds = state
            .billed_node_seconds
            .saturating_add(prices.billed_node_seconds(run.nodes, attempt_s));
        state.pool.release_ids(&run.node_ids, attempt_s);
        state.active_jobs.remove(&job_idx);
        self.freed_pools.insert(run.pool_idx);
    }

    fn on_slice_done(&mut self, job_idx: usize, attempt: u32) {
        self.obs.slices.inc();
        let job = &mut self.jobs[job_idx];
        assert_eq!(job.attempts, attempt, "stale slice event");
        let run = job.run.as_mut().expect("slice for idle job");
        let pending = run.pending.take().expect("slice event without a pending slice");
        run.attempt_elapsed_s += pending.dur_s;

        match pending.end {
            SliceEnd::Fault => {
                job.faults += 1;
                // Roll back to the last durable checkpoint: the faulted
                // slice's steps were never credited, and any credited
                // steps past the checkpoint are lost too.
                let ckpt = job.spec.checkpoint_steps.max(1);
                let rollback = job.completed_steps % ckpt;
                job.completed_steps -= rollback;
                job.wasted_steps += rollback;
                let pool_idx = run.pool_idx;
                let can_retry = job.retries_used < job.spec.max_retries;
                self.pools[pool_idx].faults += 1;
                self.obs.faults.inc();
                if can_retry {
                    self.finalize_attempt(job_idx);
                    let job = &mut self.jobs[job_idx];
                    job.retries_used += 1;
                    self.obs.retries.inc();
                    let backoff = retry_backoff_s(
                        self.config.retry_backoff_s,
                        self.config.max_retry_backoff_s,
                        job.retries_used,
                    );
                    // The retry re-arrives on the faulted pool's lane: the
                    // lane is a stable property of what produced the
                    // event, which is what keeps the order shard-free.
                    self.events.push(
                        Self::pool_lane(pool_idx),
                        self.clock_s + backoff,
                        Event::Arrive { job: job_idx },
                    );
                } else {
                    self.finish(job_idx, JobOutcome::Failed);
                }
            }
            SliceEnd::GuardKill => {
                // Killed at exactly the wall-clock limit: the in-flight
                // slice is discarded.
                job.wasted_steps += pending.steps;
                self.finish(job_idx, JobOutcome::GuardKilled);
            }
            SliceEnd::Ran => {
                job.completed_steps += pending.steps;
                let pool_idx = run.pool_idx;
                // Per-link byte accounting for completed slices: every
                // step of the slice moved the footprint's bytes once.
                for per_step in run.link_bytes.as_deref().unwrap_or_default() {
                    self.obs.fabric_forwarded[pool_idx][per_step.link]
                        .add(per_step.forwarded * pending.steps);
                    self.obs.fabric_delivered[pool_idx][per_step.link]
                        .add(per_step.delivered * pending.steps);
                }
                let ranks = run.ranks;
                let nodes = run.nodes;
                let raw_pred = run.raw_step_pred_s;
                let elapsed = job.prior_attempts_s + run.attempt_elapsed_s;
                let attempt_cost = self.config.prices.cost(
                    &self.pools[pool_idx].pool.platform,
                    nodes,
                    run.attempt_elapsed_s,
                );
                let spent = job.cost + attempt_cost;
                let guard = run.guard;
                let done = job.completed_steps >= job.spec.true_steps();

                // First measured slice of the attempt: score the placement
                // prediction (exact accounting even when the placement log
                // is capped — the accumulators don't depend on it).
                if !run.measured_recorded {
                    run.measured_recorded = true;
                    let ordinal = run.placement_ordinal;
                    let err = 100.0 * (run.corrected_step_pred_s - pending.step_s).abs()
                        / pending.step_s;
                    if run.calibrated {
                        self.cal_err_sum += err;
                        self.cal_err_count += 1;
                    } else {
                        self.uncal_errs.push((ordinal, err));
                    }
                    if ordinal < self.placements.len() {
                        self.placements[ordinal].measured_step_s = Some(pending.step_s);
                    }
                }

                // Refinement: every completed slice feeds the calibrators.
                self.pools[pool_idx]
                    .calibrator
                    .record(ranks, raw_pred, pending.step_s);
                self.global_calibrator.record(ranks, raw_pred, pending.step_s);

                if guard.check(elapsed, spent).is_exceeded() {
                    // The dollar limit (or a boundary-exact overrun) trips
                    // post-slice.
                    self.finish(job_idx, JobOutcome::GuardKilled);
                } else if done {
                    self.finish(job_idx, JobOutcome::Completed);
                } else if !guard.has_budget(elapsed) {
                    // Budget exhausted to the exact second with work left:
                    // stop cleanly at the boundary (see GuardVerdict docs).
                    self.finish(job_idx, JobOutcome::GuardKilled);
                } else {
                    self.schedule_slice(job_idx);
                }
            }
        }
    }

    // ---- reporting ----------------------------------------------------

    fn build_report(&mut self) -> CampaignReport {
        let makespan = self.clock_s;
        // Refinement MAPEs from the online accumulators — exact over every
        // placement, independent of the retained-log cap. The uncalibrated
        // errors are summed in placement order (they arrive in measurement
        // order) for a stable, order-independent-of-batching total.
        let placements_total = self.obs.admitted.get() as usize;
        let q1 = placements_total.div_ceil(4);
        let mut first_q: Vec<(usize, f64)> = self
            .uncal_errs
            .iter()
            .copied()
            .filter(|&(ordinal, _)| ordinal < q1)
            .collect();
        first_q.sort_by_key(|&(ordinal, _)| ordinal);
        let uncal_count = first_q.len();
        let uncal_mape = if uncal_count == 0 {
            None
        } else {
            Some(first_q.iter().map(|&(_, e)| e).sum::<f64>() / uncal_count as f64)
        };
        let cal_mape = if self.cal_err_count == 0 {
            None
        } else {
            Some(self.cal_err_sum / self.cal_err_count as f64)
        };
        let mut report = CampaignReport {
            seed: self.config.seed,
            jobs: self.jobs.len(),
            completed: 0,
            guard_kills: 0,
            failed: 0,
            rejected: 0,
            faults: 0,
            retries: self.obs.retries.get() as usize,
            retried_jobs_completed: 0,
            makespan_s: makespan,
            total_cost_dollars: 0.0,
            wasted_steps: 0,
            slo_attained: 0,
            slo_total: 0,
            mape_first_quartile_uncalibrated_pct: uncal_mape,
            mape_first_quartile_uncalibrated_count: uncal_count,
            mape_calibrated_pct: cal_mape,
            mape_calibrated_count: self.cal_err_count,
            error_p50_pct: None,
            error_p99_pct: None,
            placements_total,
            events_processed: self.obs.events.get(),
            platforms: Vec::new(),
            job_reports: Vec::new(),
            placements: std::mem::take(&mut self.placements),
        };
        let max_job_reports = self.config.max_job_reports;
        for job in &self.jobs {
            let outcome = job.outcome.as_ref().expect("job left without outcome");
            match outcome {
                JobOutcome::Completed => {
                    report.completed += 1;
                    if job.faults > 0 {
                        report.retried_jobs_completed += 1;
                    }
                }
                JobOutcome::GuardKilled => report.guard_kills += 1,
                JobOutcome::Failed => report.failed += 1,
                JobOutcome::Rejected { .. } => report.rejected += 1,
            }
            report.faults += job.faults as usize;
            report.total_cost_dollars += job.cost;
            report.wasted_steps += job.wasted_steps;
            let slo_met = match job.spec.objective {
                Objective::Deadline(d) => {
                    report.slo_total += 1;
                    let met = *outcome == JobOutcome::Completed
                        && job.finish_s - job.spec.submit_s <= d;
                    if met {
                        report.slo_attained += 1;
                    }
                    Some(met)
                }
                _ => None,
            };
            if report.job_reports.len() < max_job_reports {
                report.job_reports.push(JobReport {
                    name: job.spec.name.clone(),
                    outcome: outcome.clone(),
                    cost_dollars: job.cost,
                    run_seconds: job.prior_attempts_s,
                    attempts: job.attempts,
                    faults: job.faults,
                    wasted_steps: job.wasted_steps,
                    finish_s: job.finish_s,
                    slo_met,
                });
            }
        }
        for state in &self.pools {
            report.platforms.push(PlatformReport {
                platform: state.pool.platform.abbrev.to_string(),
                nodes_total: state.pool.nodes_total(),
                peak_nodes_busy: state.pool.peak_nodes_busy(),
                attempts: state.attempts,
                faults: state.faults,
                guard_kills: state.guard_kills,
                cost_dollars: state.cost,
                busy_node_seconds: state.pool.busy_node_seconds(),
                billed_node_seconds: state.billed_node_seconds,
                utilization: state.pool.utilization(makespan),
            });
        }
        report.compute_error_percentiles();
        // Calibration-error gauges, set serially (hence deterministic).
        // Degenerate campaigns (no measured placements) simply omit the
        // gauge rather than leak a non-finite value into snapshots the
        // verify gate greps.
        let registry = &self.obs.registry;
        let set_finite = |name: &str, v: Option<f64>| {
            if let Some(v) = v.filter(|v| v.is_finite()) {
                registry.gauge(name).set(v);
            }
        };
        set_finite(
            "sched.calibration.mape_uncalibrated_pct",
            report.mape_first_quartile_uncalibrated_pct,
        );
        set_finite(
            "sched.calibration.mape_calibrated_pct",
            report.mape_calibrated_pct,
        );
        set_finite("sched.makespan_s", Some(makespan));
        registry
            .gauge("sched.calibration.observations")
            .set(self.global_calibrator.len() as f64);
        // Per-link utilization gauges for routed pools: forwarded bytes
        // over the link's byte capacity across the makespan. Set serially
        // from the counters, so deterministic; degenerate (zero-makespan)
        // campaigns omit them rather than leak non-finite values.
        for (p, state) in self.pools.iter().enumerate() {
            let Some((_, topology)) = &state.topology else {
                continue;
            };
            let links = topology.links();
            let mut delivered_total = 0u64;
            for counter in &self.obs.fabric_delivered[p] {
                delivered_total += counter.get();
            }
            registry
                .gauge(&format!("fabric.pool{p}.delivered_bytes_total"))
                .set(delivered_total as f64);
            if makespan > 0.0 {
                for (i, counter) in self.obs.fabric_forwarded[p].iter().enumerate() {
                    let util = counter.get() as f64 / (links[i].bytes_per_s() * makespan);
                    registry
                        .gauge(&format!("fabric.pool{p}.link.utilization.{i}"))
                        .set(util);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_expectation_is_rate_times_node_hours() {
        // The pinning triple from the config rustdoc: 0.1 faults per
        // node-hour on 2 nodes for half an hour expects 0.1 faults, and
        // the slice is interrupted with probability 1 − e^(−0.1).
        let lambda = expected_faults(0.1, 2, 1800.0);
        assert_eq!(lambda, 0.1);
        let p = fault_probability(lambda);
        assert!((p - (1.0 - (-0.1f64).exp())).abs() < 1e-15, "p = {p}");
        // Degenerate corners: no rate, no nodes, or no time ⇒ no faults.
        assert_eq!(expected_faults(0.0, 8, 3600.0), 0.0);
        assert_eq!(expected_faults(0.15, 0, 3600.0), 0.0);
        assert_eq!(expected_faults(0.15, 8, 0.0), 0.0);
        assert_eq!(fault_probability(0.0), 0.0);
        // The demo rate: 0.15 per node-hour, 2 nodes, 30 minutes.
        let demo = fault_probability(expected_faults(0.15, 2, 1800.0));
        assert!((demo - 0.139_292_023_574_942_34).abs() < 1e-15, "{demo}");
    }

    /// Fault-rate extremes the sweep harness runs on purpose: every λ and
    /// every probability must stay finite and inside `[0, 1]` — a NaN
    /// here would poison an entire scenario cell's report.
    #[test]
    fn fault_helpers_are_total_at_extremes() {
        // inf × 0 corners: zero-duration slices and zero-node windows at
        // an infinite rate are "no exposure", not NaN.
        assert_eq!(expected_faults(f64::INFINITY, 8, 0.0), 0.0);
        assert_eq!(expected_faults(f64::INFINITY, 0, 3600.0), 0.0);
        assert_eq!(expected_faults(0.0, 8, f64::INFINITY), 0.0);
        // Hostile inputs clamp instead of propagating.
        assert_eq!(expected_faults(f64::NAN, 4, 100.0), 0.0);
        assert_eq!(expected_faults(-0.5, 4, 100.0), 0.0);
        assert_eq!(expected_faults(0.5, 4, f64::NAN), 0.0);
        assert_eq!(expected_faults(0.5, 4, -100.0), 0.0);
        // λ → 0⁺ keeps full precision through exp_m1: p ≈ λ.
        let tiny = fault_probability(1e-300);
        assert!(tiny > 0.0 && (tiny - 1e-300).abs() < 1e-315, "{tiny}");
        // λ huge / infinite saturates at exactly 1.
        assert_eq!(fault_probability(1e9), 1.0);
        assert_eq!(fault_probability(f64::MAX), 1.0);
        assert_eq!(fault_probability(f64::INFINITY), 1.0);
        // Negative / NaN λ count as no exposure.
        assert_eq!(fault_probability(-3.0), 0.0);
        assert_eq!(fault_probability(f64::NAN), 0.0);
        assert_eq!(fault_probability(f64::NEG_INFINITY), 0.0);
        // Random sweep: the composition is always a probability.
        let mut rng = hemocloud_rt::rng::Rng::new(0xFA);
        for _ in 0..10_000 {
            let rate = (rng.next_f64() - 0.25) * 1e6;
            let dur = (rng.next_f64() - 0.25) * 1e9;
            let nodes = (rng.next_u64() % 1000) as usize;
            let p = fault_probability(expected_faults(rate, nodes, dur));
            assert!((0.0..=1.0).contains(&p), "p = {p} at rate {rate} dur {dur}");
        }
    }

    /// The option loop has one body: what a campaign caches per (pool,
    /// model) is the matching `Dashboard::build` row, bit for bit,
    /// wherever the scheduler's own constraints (grid size, pool
    /// capacity) admit the option too. And it caches it once, on the
    /// model's first try — also for a model interned after another's rows
    /// exist, and for rows that came out empty.
    #[test]
    fn cached_options_are_the_dashboard_rows_the_pool_can_host() {
        use crate::demo::demo_config;
        use hemocloud_core::dashboard::Dashboard;
        use hemocloud_geometry::anatomy::CylinderSpec;
        use hemocloud_geometry::voxel::{CellType, VoxelGrid};

        let config = demo_config(42);
        let pools = Platform::all().into_iter().map(|platform| PoolSpec {
            platform,
            nodes: 2,
            overheads: Overheads::default(),
            topology: None,
        });
        let mut campaign = Campaign::new(config.clone(), pools.collect());
        let grid = CylinderSpec::default().with_resolution(8).build();
        let workload = Arc::new(Workload::harvey(&grid, 250_000));
        let job = campaign.submit(JobSpec {
            name: "probe".into(),
            workload: Arc::clone(&workload),
            model_key: "cyl8".into(),
            objective: Objective::MinCost,
            tolerance: 1.0,
            budget_dollars: 1.0,
            max_retries: 0,
            checkpoint_steps: 1,
            hidden_steps_factor: 1.0,
            submit_s: 0.0,
        });
        // A second model, too small for any rank option on any pool.
        let speck = VoxelGrid::filled(1, 1, 4, 1.0, CellType::Bulk);
        assert!(config.rank_options.iter().all(|&ranks| ranks > speck.fluid_count()));
        let hopeless = campaign.submit(JobSpec {
            name: "speck".into(),
            workload: Arc::new(Workload::harvey(&speck, 1_000)),
            model_key: "speck".into(),
            ..campaign.jobs[job].spec.clone()
        });
        let n_pools = campaign.pools.len();
        assert_eq!(campaign.pool_options, vec![None; 2 * n_pools], "nothing is built at submit");
        campaign.ensure_options(job);
        assert!(campaign.pool_options[..n_pools].iter().all(Option::is_some));
        assert_eq!(campaign.pool_options[n_pools..], vec![None; n_pools], "rows are per model");

        let mut compared = 0;
        for (pool_idx, state) in campaign.pools.iter().enumerate() {
            let platform = &state.pool.platform;
            let rows = Dashboard::build(
                std::slice::from_ref(&state.character),
                &workload,
                &config.rank_options,
                &config.prices,
            )
            .entries;
            let cached = campaign.options(pool_idx, 0);
            for opt in cached {
                let row = rows
                    .iter()
                    .find(|row| row.ranks == opt.raw.ranks)
                    .unwrap_or_else(|| panic!("{}: no row at {} ranks", platform.abbrev, opt.raw.ranks));
                let time_s = opt.raw.step_time_s * workload.steps as f64;
                assert_eq!(row.nodes, opt.nodes);
                assert_eq!(row.time_to_solution_s.to_bits(), time_s.to_bits());
                assert_eq!(row.predicted_mflups.to_bits(), opt.raw.mflups.to_bits());
                assert_eq!(
                    row.cost_dollars.to_bits(),
                    config.prices.cost(platform, opt.nodes, time_s).to_bits()
                );
                compared += 1;
            }
            // What the dashboard offers and the campaign does not is
            // exactly what the grid or the pool cannot host.
            for row in rows.iter().filter(|row| !cached.iter().any(|o| o.raw.ranks == row.ranks)) {
                assert!(
                    row.ranks > grid.fluid_count() || !state.pool.can_host(row.nodes),
                    "{}: {} ranks dropped",
                    platform.abbrev,
                    row.ranks
                );
            }
        }
        assert!(compared >= Platform::all().len(), "only {compared} options compared");

        // The second model's first try finds the first's rows in place
        // and builds its own: empty, but built.
        campaign.ensure_options(hopeless);
        assert_eq!(campaign.jobs[hopeless].model_id, 1);
        for pool_idx in 0..n_pools {
            assert!(campaign.options(pool_idx, 1).is_empty());
        }
        // Swap the workloads the rows were built from and try both
        // models again: a rebuild — of an empty row too — would differ.
        let built = campaign.pool_options.clone();
        campaign.model_workloads.swap(0, 1);
        campaign.ensure_options(job);
        campaign.ensure_options(hopeless);
        assert_eq!(campaign.pool_options, built);
    }

    /// The contention memo's contract: a stored value is a pure function
    /// of its key. Every entry of a routed campaign is re-derived from
    /// its key alone — through a fresh set exchange (bitwise, per task)
    /// and through the single-victim oracle `run_slice_contended` — and
    /// keys that differ in one member's nodes or ranks hold different
    /// values.
    #[test]
    fn contention_prices_are_a_pure_function_of_the_active_set() {
        use hemocloud_geometry::anatomy::CylinderSpec;

        // 8-node spread pool, 4 racks (rack = id % 4); 12 and 16 ranks
        // both take 2 of its 8-core nodes. The small cylinder is placed
        // at 12 ranks, the larger at 16.
        let mut campaign = Campaign::new(
            CampaignConfig {
                rank_options: vec![12, 16],
                slice_steps: 40_000,
                ..CampaignConfig::default()
            },
            vec![PoolSpec {
                platform: Platform::csp2_small(),
                nodes: 8,
                overheads: Overheads::default(),
                topology: Some(TopologyVariant::Spread),
            }],
        );
        let grids = [8, 16].map(|res| CylinderSpec::default().with_resolution(res).build());
        for i in 0..18usize {
            campaign.submit(JobSpec {
                name: format!("job-{i:02}"),
                workload: Arc::new(Workload::harvey(
                    &grids[i % 2],
                    100_000 + 20_000 * (i as u64 % 3),
                )),
                model_key: format!("cyl{}", i % 2),
                objective: Objective::MinCost,
                tolerance: 20.0,
                budget_dollars: 500.0,
                max_retries: 0,
                checkpoint_steps: 40_000,
                hidden_steps_factor: 1.0,
                submit_s: 0.0,
            });
        }
        let report = campaign.run();
        assert_eq!(report.completed, 18);

        let snap = campaign.obs_snapshot();
        let slices = snap.counter("sched.contention.slices").unwrap();
        let exchanges = snap.counter("sched.contention.exchanges").unwrap();
        assert_eq!(slices, snap.counter("sched.slices").unwrap(), "one routed pool");
        assert_eq!(exchanges as usize, campaign.contention.len());
        assert!(exchanges < slices, "{exchanges} exchanges for {slices} slices: sets must recur");
        assert!(campaign.contention.keys().any(|set| set.len() > 1));

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (_, topology) = campaign.pools[0].topology.as_ref().unwrap();
        for (set, prices) in &campaign.contention {
            assert!(set.windows(2).all(|w| w[0] < w[1]), "key not sorted: {set:?}");
            let members: Vec<(&PreparedRun, &[usize])> = set
                .iter()
                .map(|(prep_key, ids)| (&*campaign.prepared[prep_key], ids.as_slice()))
                .collect();
            let fresh = routed_set_comm(topology, &members);
            for (victim, &(run, ids)) in members.iter().enumerate() {
                assert_eq!(bits(&prices[victim]), bits(&fresh[victim]));
                let background: Vec<Flow> = members
                    .iter()
                    .enumerate()
                    .filter(|&(other, _)| other != victim)
                    .flat_map(|(_, &(r, other_ids))| r.flows(other_ids, 0))
                    .collect();
                assert_eq!(
                    run.run_slice_priced(1_000, 9, 1.5, &prices[victim]),
                    run.run_slice_contended(1_000, 9, 1.5, topology, ids, &background),
                    "member {victim} of {set:?}"
                );
            }
        }

        // Key completeness, on sets written by hand: the victim on nodes
        // {0, 1} with a neighbour that shares its racks ({4, 5}), one
        // that does not ({2, 3}), and one on the same nodes at other ranks.
        let r16 = *campaign.prepared.keys().find(|k| k.2 == 16).expect("16 ranks placed");
        let r12 = (r16.0, r16.1, 12); // same pool, same model, other ranks
        let workload = &campaign.model_workloads[r16.1 as usize];
        let at_12 = PreparedRun::from_census(
            &Platform::csp2_small(),
            workload.census(12).unwrap(),
            &workload.kernel,
            workload.profile.boundary_point_bytes,
            &Overheads::default(),
            CommModel::Routed(TopologyVariant::Spread),
        )
        .unwrap();
        campaign.prepared.insert(r12, Arc::new(at_12));
        let mut victim_price = |neighbour: Footprint| -> Vec<u64> {
            let set = vec![(r16, vec![0, 1]), neighbour];
            bits(&campaign.set_prices(0, set)[0])
        };
        let shared_racks = victim_price((r16, vec![4, 5]));
        assert_ne!(shared_racks, victim_price((r16, vec![2, 3])), "node ids are in the key");
        assert_ne!(shared_racks, victim_price((r12, vec![4, 5])), "ranks are in the key");
    }

    #[test]
    fn retry_backoff_doubles_then_saturates_finite() {
        // Doubling run: 30, 60, 120, ... capped at one hour.
        assert_eq!(retry_backoff_s(30.0, 3600.0, 1), 30.0);
        assert_eq!(retry_backoff_s(30.0, 3600.0, 2), 60.0);
        assert_eq!(retry_backoff_s(30.0, 3600.0, 5), 480.0);
        assert_eq!(retry_backoff_s(30.0, 3600.0, 8), 3600.0);
        // 60 retries (the regression shape): every delay finite, capped,
        // and the re-arrival sequence monotonically ordered.
        let mut clock = 0.0f64;
        let mut prev_backoff = 0.0f64;
        for retry in 1..=60u32 {
            let b = retry_backoff_s(30.0, 3600.0, retry);
            assert!(b.is_finite() && b > 0.0, "retry {retry}: {b}");
            assert!(b <= 3600.0, "retry {retry} beyond cap: {b}");
            assert!(b >= prev_backoff, "backoff shrank at retry {retry}");
            prev_backoff = b;
            let next = clock + b;
            assert!(next > clock, "re-arrival did not advance at {retry}");
            clock = next;
        }
        // Uncapped, the 60th retry would already be 30·2^59 ≈ 1.7e19 s;
        // the clamp keeps the whole sequence within retries × cap.
        assert!(clock <= 60.0 * 3600.0, "clock = {clock}");
        // Exponents that overflow 2^e to infinity still come back capped.
        assert_eq!(retry_backoff_s(30.0, 3600.0, 2000), 3600.0);
        assert_eq!(retry_backoff_s(30.0, 3600.0, u32::MAX), 3600.0);
        // A degenerate cap falls back to a finite ceiling, never inf.
        assert!(retry_backoff_s(30.0, f64::INFINITY, 4000).is_finite());
        assert!(retry_backoff_s(30.0, 0.0, 4000).is_finite());
        // Non-positive bases mean "retry immediately".
        assert_eq!(retry_backoff_s(0.0, 3600.0, 7), 0.0);
    }
}
