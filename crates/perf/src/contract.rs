//! What the benchmark promises: its workloads, its end-to-end metrics
//! with their bounds, and its per-layer metrics. `BENCHMARK.json` at the
//! repository root is `benchmark_json()` verbatim (a test holds the two
//! together), so a metric cannot be emitted without being declared.

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const WORKLOADS: [WorkloadDecl; 6] = [
    WorkloadDecl {
        name: "plan_aorta",
        why: "paper loop on a dense anatomy (365k cells, 29% of its box): core and decomp do nearly all the work, lbm and sched none",
    },
    WorkloadDecl {
        name: "plan_cerebral",
        why: "same loop on a sparse tree (20k cells in a 3.5M-voxel box, 0.6% fluid): cost follows the box, not the fluid count, so fluid-indexed decomposition shows here",
    },
    WorkloadDecl {
        name: "solve_dram",
        why: "Solver on 923k cells (351 MB per AB solver, 1.3x the reported L3, nothing reused between steps): memory traffic and rt::pool scaling dominate",
    },
    WorkloadDecl {
        name: "solve_cache",
        why: "the BENCH_lbm.json mesh (42k cells, L3-resident): gather/collide arithmetic and pool dispatch dominate; adds f32 and ranked rows",
    },
    WorkloadDecl {
        name: "campaign_scale",
        why: "bench_sched's synthetic campaign (300k jobs, four scalar pools): event dispatch and indexed ready/wait state dominate, fabric does nothing",
    },
    WorkloadDecl {
        name: "campaign_routed",
        why: "2,000 jobs on two routed pools, every job spans nodes: per-slice contention pricing through fabric::exchange dominates Campaign::run",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the driver requires one
/// set for all workloads), so they are the metrics every run has.
/// `throughput` counts the workload's own unit of work: plan passes,
/// cell updates, scheduler events. The two timing bounds are as wide as
/// the driver allows because this host's speed is: see "Steadiness" in
/// the README for the two sets of runs behind them.
pub const END_TO_END: [MetricDecl; 3] = [
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// Read from the traced run. A metric whose layer a workload does not
/// exercise reads 0 there. Counts are fixed by the input and repeat
/// exactly; their direction says which way a cost would move.
pub const PER_LAYER: [MetricDecl; 91] = [
    // The workload-specific end-to-end figures behind `throughput`.
    lo("core.plan_s", "s"),
    hi("lbm.mflups.ab", "MFLUPS"),
    hi("lbm.mflups.aa", "MFLUPS"),
    hi("lbm.mflups.ab_par", "MFLUPS"),
    hi("lbm.mflups.aa_f32", "MFLUPS"),
    hi("lbm.mflups.ranked", "MFLUPS"),
    hi("sched.events_per_s", "1/s"),
    lo("sched.placement_mape_pct", "%"),
    // geometry
    lo("geometry.voxelize_s", "s"),
    hi("geometry.voxels_per_s", "1/s"),
    lo("geometry.fluid_cells", "count"),
    hi("geometry.fluid_fraction", "ratio"),
    lo("geometry.stats_s", "s"),
    // lbm
    lo("lbm.mesh_build_s", "s"),
    hi("lbm.mesh_cells_per_s", "1/s"),
    lo("lbm.solver_new_s", "s"),
    lo("lbm.step_ms_p50.ab", "ms"),
    lo("lbm.step_ms_p50.aa", "ms"),
    lo("lbm.step_ms_p50.ab_par", "ms"),
    lo("lbm.step_ms_p50.aa_f32", "ms"),
    lo("lbm.step_ms_p99.ab", "ms"),
    lo("lbm.step_ms_p99.aa", "ms"),
    lo("lbm.step_ms_p99.ab_par", "ms"),
    lo("lbm.step_ms_p99.aa_f32", "ms"),
    lo("lbm.bytes_per_update_modeled", "B"),
    lo("lbm.bytes_per_update_implied", "B"),
    lo("lbm.measured_over_modeled", "ratio"),
    lo("lbm.cells.bulk", "count"),
    lo("lbm.cells.wall", "count"),
    lo("lbm.cells.inlet", "count"),
    lo("lbm.cells.outlet", "count"),
    lo("lbm.distribution_mib", "MiB"),
    lo("lbm.ranked.step_ms_p50", "ms"),
    lo("lbm.ranked.halo_bytes_per_step", "B"),
    lo("lbm.ranked.halo_messages_per_step", "count"),
    lo("lbm.ranked.over_global", "ratio"),
    // rt
    lo("rt.pool.dispatch_us", "us"),
    hi("rt.pool.speedup", "ratio"),
    hi("rt.pool.efficiency", "ratio"),
    // microbench
    hi("microbench.stream_copy_gb_s", "GB/s"),
    hi("microbench.stream_triad_gb_s", "GB/s"),
    // decomp
    lo("decomp.rcb_s", "s"),
    hi("decomp.rcb_cells_per_s", "1/s"),
    lo("decomp.halo_analyze_s", "s"),
    lo("decomp.imbalance_sweep_s", "s"),
    lo("decomp.event_sweep_s", "s"),
    lo("decomp.z_factor", "ratio"),
    lo("decomp.max_messages", "count"),
    // fitting
    lo("fitting.fit_two_line_us", "us"),
    lo("fitting.fit_line_us", "us"),
    lo("fitting.fits", "count"),
    // core
    lo("core.workload_new_s", "s"),
    lo("core.characterize_all_s", "s"),
    lo("core.general_fit_s", "s"),
    lo("core.general_predict_ns", "ns"),
    lo("core.direct_predict_s", "s"),
    lo("core.dashboard_build_s", "s"),
    lo("core.dashboard_entries", "count"),
    hi("core.candidates_per_s", "1/s"),
    lo("core.recommend_us", "us"),
    lo("core.guard_us", "us"),
    lo("core.calibrator_record_ns", "ns"),
    // cluster
    lo("cluster.prepared_run_new_s", "s"),
    lo("cluster.run_slice_us", "us"),
    lo("cluster.run_slice_contended_us", "us"),
    lo("cluster.job_flows_us", "us"),
    lo("cluster.build_topology_s", "s"),
    // fabric
    lo("fabric.exchange_us", "us"),
    lo("fabric.flows_per_exchange", "count"),
    hi("fabric.flows_per_s", "1/s"),
    // sched
    lo("sched.campaign_new_s", "s"),
    hi("sched.submit_jobs_per_s", "1/s"),
    lo("sched.run_s", "s"),
    lo("sched.us_per_event", "us"),
    lo("sched.us_per_slice", "us"),
    lo("sched.report_render_s", "s"),
    lo("sched.report_bytes", "B"),
    lo("sched.queue_push_pop_ns", "ns"),
    lo("sched.events", "count"),
    lo("sched.slices", "count"),
    lo("sched.placements", "count"),
    lo("sched.faults", "count"),
    lo("sched.retries", "count"),
    lo("sched.guard_kills", "count"),
    lo("sched.rejected", "count"),
    // obs
    lo("obs.snapshot_s", "s"),
    lo("obs.counter_inc_ns", "ns"),
    // the ledger itself
    lo("perf.trace_overhead_pct", "%"),
    lo("perf.unaccounted_pct", "%"),
    hi("perf.samples", "count"),
    lo("perf.window_s", "s"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"-p\", \"hemocloud-perf\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |s: &mut String, key: &str, rows: Vec<String>, last: bool| {
        s.push_str(&format!("  \"{key}\": [\n"));
        s.push_str(&rows.join(",\n"));
        s.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
    };
    rows(
        &mut s,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut s,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
        true,
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_stay_inside_the_driver_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(ok_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_text() {
        let committed = include_str!("../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-contract"
        );
    }
}
