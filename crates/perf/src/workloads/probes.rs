//! Layer probes: calls too short to time once inside a pass (a model
//! query, a guard check, one fabric exchange), timed here in loops, and
//! calls a pass only reaches through another layer (the decomposition
//! sweeps inside the general model's fit). Traced runs only; none of
//! this is inside the measured window.

use std::hint::black_box;
use std::time::Instant;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{build_topology, CommModel, TopologyVariant};
use hemocloud_core::characterize::characterize;
use hemocloud_core::dashboard::{Dashboard, DashboardEntry, Objective};
use hemocloud_core::general::GeneralModel;
use hemocloud_core::guard::JobGuard;
use hemocloud_core::refine::ModelCalibrator;
use hemocloud_core::workload::Workload;
use hemocloud_decomp::events::{event_sweep_rcb, fit_event_sweep};
use hemocloud_decomp::imbalance::{fit_sweep, imbalance_sweep_rcb};
use hemocloud_fabric::exchange;
use hemocloud_fitting::models::{EventModel, ImbalanceModel};
use hemocloud_fitting::{fit_line, fit_two_line};
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_microbench::stream::{stream_kernel, StreamKernel};
use hemocloud_obs::{Registry, Render};
use hemocloud_rt::{par, pool};
use hemocloud_sched::{Event, ShardedEventQueue};

use super::Outcome;
use crate::provenance::cache_bytes;
use crate::trace::Tracer;

/// Time `f` in one span of as many iterations as fit `budget_s` (judged
/// from one untimed call), so short and long calls both get a stable
/// per-call figure. Returns seconds per call.
fn looped<R>(t: &Tracer, span: &'static str, budget_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let once = Instant::now();
    black_box(f());
    let once_s = once.elapsed().as_secs_f64().max(1e-9);
    let n = ((budget_s / once_s) as u64).clamp(1, 1_000_000);
    t.time_n(span, n, || {
        for _ in 0..n {
            black_box(f());
        }
    });
    t.median_s(span)
}

fn platform_named(abbrev: &str) -> Platform {
    Platform::all()
        .into_iter()
        .find(|p| p.abbrev == abbrev)
        .expect("probe platform comes from Platform::all()")
}

/// Set-up's geometry and mesh spans as metrics (`plan_*` and `solve_*`
/// share that part of their set-up).
pub fn geometry_and_mesh(t: &Tracer, out: &mut Outcome, stats: &GeometryStats) {
    let fluid = stats.fluid_points as f64;
    out.set_seconds(
        t,
        &["geometry.voxelize", "geometry.stats", "lbm.mesh_build"],
    );
    out.set(
        "geometry.voxels_per_s",
        stats.total_voxels as f64 / t.median_s("geometry.voxelize"),
    );
    out.set("geometry.fluid_cells", fluid);
    out.set("geometry.fluid_fraction", stats.fluid_fraction);
    out.set("lbm.mesh_cells_per_s", fluid / t.median_s("lbm.mesh_build"));
}

/// The two RCB sweeps `GeneralModel::from_characterization` runs per
/// platform, called directly so their cost has its own row.
pub fn decomp_sweeps(t: &Tracer, out: &mut Outcome, grid: &VoxelGrid) {
    let counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let imbalance = t.time("probe.decomp.imbalance_sweep", || {
        imbalance_sweep_rcb(grid, &counts)
    });
    let events = t.time("probe.decomp.event_sweep", || {
        event_sweep_rcb(grid, &counts, 36)
    });
    black_box(t.time_n("probe.fitting.model_fits", 2, || {
        (fit_sweep(&imbalance), fit_event_sweep(&events))
    }));
    out.set_span(
        t,
        "decomp.imbalance_sweep_s",
        "probe.decomp.imbalance_sweep",
        1.0,
    );
    out.set_span(t, "decomp.event_sweep_s", "probe.decomp.event_sweep", 1.0);
}

/// The two fits characterization leans on, over sweep-shaped data.
pub fn fitting(t: &Tracer, out: &mut Outcome) {
    let threads: Vec<f64> = (1..=36).map(f64::from).collect();
    let bandwidths: Vec<f64> = threads
        .iter()
        .map(|&n| (7800.0 * n).min(60_000.0 + 9.0 * n) * (1.0 + 0.004 * (n * 1.7).sin()))
        .collect();
    let two_line = looped(t, "probe.fitting.fit_two_line", 0.05, || {
        fit_two_line(black_box(&threads), black_box(&bandwidths))
    });
    let sizes: Vec<f64> = (0..20)
        .map(|i| 1024.0 * f64::from(1 << (i % 10)) + f64::from(i))
        .collect();
    let times: Vec<f64> = sizes.iter().map(|&b| 23.6 + b / 1805.0).collect();
    let line = looped(t, "probe.fitting.fit_line", 0.05, || {
        fit_line(black_box(&sizes), black_box(&times))
    });
    out.set("fitting.fit_two_line_us", two_line * 1e6);
    out.set("fitting.fit_line_us", line * 1e6);
    out.set(
        "fitting.fits",
        (t.items("probe.fitting.fit_two_line")
            + t.items("probe.fitting.fit_line")
            + t.items("probe.fitting.model_fits")) as f64,
    );
}

/// Model query, guard, recommendation and calibrator update — the calls
/// the scheduler makes per placement and per slice.
pub fn core(
    t: &Tracer,
    out: &mut Outcome,
    workload: &Workload,
    platform: &str,
    ranks: usize,
    characterization_seed: u64,
) {
    let platform = platform_named(platform);
    let character = characterize(&platform, characterization_seed);
    // The fitted constants do not change what a query costs.
    let general = GeneralModel::with_models(
        &character,
        workload,
        ImbalanceModel::perfect(),
        EventModel {
            k1: 0.0,
            k2: 1.0,
            sse: 0.0,
        },
    );
    let predict = looped(t, "probe.core.general_predict", 0.05, || {
        general.predict(black_box(ranks))
    });
    let prediction = general.predict(ranks);
    let guard = looped(t, "probe.core.guard", 0.05, || {
        let g = JobGuard::from_prediction(black_box(&prediction), workload.steps, &platform, 0.10);
        g.check(g.predicted_seconds, 0.0)
    });
    let mut calibrator = ModelCalibrator::bounded(1024);
    let record = looped(t, "probe.core.calibrator_record", 0.05, || {
        calibrator.record(ranks, prediction.step_time_s, 1.3 * prediction.step_time_s)
    });
    // A dashboard the size a campaign builds per placement.
    let dashboard = Dashboard {
        workload_name: workload.name.clone(),
        entries: (0..64u32)
            .map(|i| {
                let x = f64::from((i * 37) % 64 + 1);
                DashboardEntry {
                    platform: platform.abbrev.to_string(),
                    ranks: 8 * (i as usize + 1),
                    nodes: i as usize / 4 + 1,
                    predicted_mflups: 10.0 * x,
                    time_to_solution_s: 5.0e4 / x,
                    cost_dollars: 3.0 + (x - 20.0).abs(),
                    updates_per_dollar: 1.0e9 / x,
                    topology: "scalar".to_string(),
                }
            })
            .collect(),
    };
    let recommend = looped(t, "probe.core.recommend", 0.05, || {
        [
            Objective::MaxThroughput,
            Objective::MinCost,
            Objective::Deadline(2.0e3),
        ]
        .map(|o| black_box(&dashboard).recommend_index(o))
    });
    out.set("core.general_predict_ns", predict * 1e9);
    out.set("core.guard_us", guard * 1e6);
    out.set("core.calibrator_record_ns", record * 1e9);
    out.set("core.recommend_us", recommend / 3.0 * 1e6);
}

/// A two-node-or-wider routed job sharing a spread pool with a twin:
/// slice pricing alone, under contention, and the raw exchange.
pub fn cluster_fabric(
    t: &Tracer,
    out: &mut Outcome,
    workload: &Workload,
    platform: &str,
    ranks: usize,
    noise_seed: u64,
) {
    let platform = platform_named(platform);
    let variant = TopologyVariant::Spread;
    let ranks = ranks
        .max(2 * platform.cores_per_node)
        .min(platform.total_cores);
    let Some(prepared) = PreparedRun::new_with_comm(
        &platform,
        &workload.grid,
        &workload.kernel,
        ranks,
        &Overheads::default(),
        CommModel::Routed(variant),
    ) else {
        return; // geometry too small to span nodes
    };
    let nodes = prepared.nodes();
    let topology = t.time("probe.cluster.build_topology", || {
        build_topology(&platform, variant, 2 * nodes)
    });
    // Interleaved node sets, as lowest-free-first allocation hands them
    // to two co-scheduled jobs.
    let own: Vec<usize> = (0..nodes).map(|i| 2 * i).collect();
    let twin: Vec<usize> = (0..nodes).map(|i| 2 * i + 1).collect();
    let background = prepared.flows(&twin, 1 << 32);
    let mut flows = prepared.flows(&own, 0);
    let job_flows = looped(t, "probe.cluster.job_flows", 0.05, || {
        prepared.flows(&own, 0)
    });
    let slice = looped(t, "probe.cluster.run_slice", 0.05, || {
        prepared.run_slice(workload.steps, noise_seed, 0.0)
    });
    let contended = looped(t, "probe.cluster.run_slice_contended", 0.2, || {
        prepared.run_slice_contended(
            workload.steps,
            noise_seed,
            0.0,
            &topology,
            &own,
            &background,
        )
    });
    flows.extend_from_slice(&background);
    let exchange_s = looped(t, "probe.fabric.exchange", 0.2, || {
        exchange(&topology, &flows)
    });
    out.set_span(
        t,
        "cluster.build_topology_s",
        "probe.cluster.build_topology",
        1.0,
    );
    out.set("cluster.job_flows_us", job_flows * 1e6);
    out.set("cluster.run_slice_us", slice * 1e6);
    out.set("cluster.run_slice_contended_us", contended * 1e6);
    out.set("fabric.exchange_us", exchange_s * 1e6);
    out.set("fabric.flows_per_exchange", flows.len() as f64);
    out.set("fabric.flows_per_s", flows.len() as f64 / exchange_s);
}

/// What the instrumentation every layer carries costs per event.
pub fn obs(t: &Tracer, out: &mut Outcome) {
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    let inc = looped(t, "probe.obs.counter_inc", 0.02, || counter.inc());
    for c in registry.counter_family("probe.family", 64) {
        c.add(3);
    }
    registry.gauge("probe.gauge").set(1.5);
    let snapshot = looped(t, "probe.obs.snapshot", 0.05, || {
        registry.snapshot().to_json(Render::Deterministic).len()
    });
    out.set("obs.counter_inc_ns", inc * 1e9);
    out.set("obs.snapshot_s", snapshot);
}

/// One push and one pop against a queue holding a campaign's worth of
/// in-flight events.
pub fn event_queue(t: &Tracer, out: &mut Outcome, lanes: usize, shards: usize) {
    let mut queue = ShardedEventQueue::new(lanes, shards);
    let mut clock = 0.0f64;
    for job in 0..4096usize {
        queue.push(
            job % lanes,
            clock + (job % 97) as f64,
            Event::Arrive { job },
        );
    }
    let mut job = 0usize;
    let push_pop = looped(t, "probe.sched.queue_push_pop", 0.05, || {
        job += 1;
        let (time_s, _, _) = queue.pop().expect("queue never drains: one push per pop");
        clock = time_s;
        queue.push(
            job % lanes,
            clock + (job % 97) as f64 + 1.0,
            Event::SliceDone { job, attempt: 1 },
        );
    });
    out.set("sched.queue_push_pop_ns", push_pop * 1e9);
}

/// Round trip of an empty job through the shared pool at full width.
pub fn pool_dispatch(t: &Tracer, out: &mut Outcome) {
    let pool = pool::global();
    let width = pool.threads();
    let dispatch = looped(t, "probe.rt.pool_dispatch", 0.1, || {
        pool.run(width, &|w: usize| {
            black_box(w);
        })
    });
    out.set("rt.pool.dispatch_us", dispatch * 1e6);
}

/// STREAM Copy and Triad at full width over arrays at least four times
/// the reported last-level cache (and never under 64 MiB); returns
/// Triad in GB/s.
pub fn stream(t: &Tracer, out: &mut Outcome, max_elements: usize) -> f64 {
    let llc = cache_bytes(3).max(cache_bytes(2));
    let elements = ((4 * llc as usize / 8).max(8 << 20)).min(max_elements);
    eprintln!(
        "stream: {} MiB per array, reported LLC {} MiB",
        (elements * 8) >> 20,
        llc >> 20
    );
    let threads = par::max_threads();
    let copy = t.time("probe.microbench.stream_copy", || {
        stream_kernel(StreamKernel::Copy, threads, elements, 3).bandwidth_mb_s / 1e3
    });
    let triad = t.time("probe.microbench.stream_triad", || {
        stream_kernel(StreamKernel::Triad, threads, elements, 3).bandwidth_mb_s / 1e3
    });
    out.set("microbench.stream_copy_gb_s", copy);
    out.set("microbench.stream_triad_gb_s", triad);
    triad
}
