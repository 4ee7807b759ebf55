//! `plan_aorta` / `plan_cerebral`: one user's full paper loop.
//!
//! Set-up voxelizes the anatomy, takes its census and builds the fluid
//! mesh. A pass then goes from that voxel grid to a guarded, refined
//! recommendation: decompose, analyse the halo, describe the workload,
//! characterize every platform, build the routed dashboard, recommend
//! under three objectives, fit and query both models for the pick,
//! guard it, run a slice of it on the simulated platform and feed the
//! measurement back to the calibrator. Every pass sees the same inputs,
//! so every pass must produce the same dashboard and the same pick.

use std::time::Instant;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::topology::TopologyVariant;
use hemocloud_core::characterize::characterize_all;
use hemocloud_core::dashboard::{Dashboard, Objective};
use hemocloud_core::direct::DirectModel;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::guard::{GuardVerdict, JobGuard};
use hemocloud_core::refine::ModelCalibrator;
use hemocloud_core::workload::Workload;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec};
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::mesh::FluidMesh;
use hemocloud_rt::rng::SplitMix64;

use super::{probes, set_up, Outcome, RunCfg};
use crate::stats::{describe, median};
use crate::trace::Tracer;

pub enum Anatomy {
    Aorta {
        resolution: usize,
    },
    Cerebral {
        generations: usize,
        resolution: usize,
    },
}

impl Anatomy {
    // The cerebral tree keeps its default seed: another tree seed changes
    // the bounding box, and with it the work, by tens of percent, and the
    // driver compares medians across seeds.
    fn build(&self) -> VoxelGrid {
        match *self {
            Anatomy::Aorta { resolution } => {
                AortaSpec::default().with_resolution(resolution).build()
            }
            Anatomy::Cerebral {
                generations,
                resolution,
            } => CerebralSpec::default()
                .with_generations(generations)
                .with_resolution(resolution)
                .build(),
        }
    }
}

pub struct Sizes {
    pub anatomy: Anatomy,
    /// Rank counts the dashboard offers.
    pub rank_options: Vec<usize>,
    /// Rank count of the pass's own decomposition census.
    pub ref_ranks: usize,
}

impl Sizes {
    pub fn aorta() -> Self {
        Self {
            anatomy: Anatomy::Aorta { resolution: 40 },
            rank_options: vec![16, 64, 128],
            ref_ranks: 64,
        }
    }

    pub fn cerebral() -> Self {
        Self {
            anatomy: Anatomy::Cerebral {
                generations: 5,
                resolution: 12,
            },
            rank_options: vec![16, 64, 128],
            ref_ranks: 64,
        }
    }

    #[cfg(test)]
    pub fn tiny(cerebral: bool) -> Self {
        Self {
            anatomy: if cerebral {
                Anatomy::Cerebral {
                    generations: 2,
                    resolution: 5,
                }
            } else {
                Anatomy::Aorta { resolution: 6 }
            },
            rank_options: vec![8, 40],
            ref_ranks: 8,
        }
    }
}

/// What the seed generated.
struct Inputs {
    characterization_seed: u64,
    noise_seed: u64,
    steps: u64,
}

/// What a pass produced, kept to compare passes and to feed the probes.
struct Pass {
    dashboard_json: String,
    /// (platform, topology, ranks) recommended under each objective.
    picks: Vec<(String, String, usize)>,
    entries: usize,
    z_factor: f64,
    max_messages: usize,
    guard_accepts_own_prediction: bool,
    /// |refined − measured| / measured for the calibrated step time.
    refined_rel_err: f64,
    direct_feasible: bool,
}

fn pass(grid: &VoxelGrid, sizes: &Sizes, inputs: &Inputs, t: &Tracer) -> Pass {
    let partition = t.time("decomp.rcb", || RcbPartition::new(grid, sizes.ref_ranks));
    let analysis = t.time("decomp.halo_analyze", || {
        DecompAnalysis::analyze(grid, &partition)
    });
    let workload = t.time("core.workload_new", || Workload::harvey(grid, inputs.steps));
    let characters = t.time("core.characterize_all", || {
        characterize_all(inputs.characterization_seed)
    });
    let prices = PriceSheet::default();
    let dashboard = t.time("core.dashboard_build", || {
        Dashboard::build_routed(
            &characters,
            &workload,
            &sizes.rank_options,
            &prices,
            &[TopologyVariant::FatTree, TopologyVariant::Spread],
        )
    });
    let fastest = dashboard
        .recommend(Objective::MaxThroughput)
        .map_or(f64::INFINITY, |e| e.time_to_solution_s);
    let objectives = [
        Objective::MaxThroughput,
        Objective::MinCost,
        Objective::Deadline(2.0 * fastest),
    ];
    let picked = t.time_n("core.recommend", 3, || {
        objectives.map(|o| dashboard.recommend(o))
    });
    let picks = picked
        .iter()
        .flatten()
        .map(|e| (e.platform.clone(), e.topology.clone(), e.ranks))
        .collect();

    // The cheapest option is the one this user buys.
    let entry = picked[1].expect("a dashboard with entries has a cheapest one");
    let character = characters
        .iter()
        .find(|c| c.platform.abbrev == entry.platform)
        .expect("dashboard rows come from characterized platforms");
    let general = t.time("core.general_fit", || {
        GeneralModel::from_characterization(character, &workload)
    });
    let prediction = t.time("core.general_predict", || general.predict(entry.ranks));
    let direct = t.time("core.direct_predict", || {
        DirectModel::new(character.clone(), workload.clone()).predict(entry.ranks)
    });
    let (guard, verdict) = t.time("core.guard", || {
        let g = JobGuard::from_prediction(&prediction, inputs.steps, &character.platform, 0.10);
        let v = g.check(g.predicted_seconds, 0.0);
        (g, v)
    });
    let prepared = t
        .time("cluster.prepared_run_new", || {
            PreparedRun::new(
                &character.platform,
                grid,
                &workload.kernel,
                entry.ranks,
                &Overheads::default(),
            )
        })
        .expect("a dashboard option fits its platform");
    let slice = t.time("cluster.run_slice", || {
        prepared.run_slice(inputs.steps, inputs.noise_seed, 0.0)
    });
    let mut calibrator = ModelCalibrator::new();
    let refined = t.time("core.calibrator_record", || {
        calibrator.record(entry.ranks, prediction.step_time_s, slice.step_time_s);
        calibrator.corrected_step_s(prediction.step_time_s)
    });

    t.time("perf.check", || Pass {
        dashboard_json: dashboard.to_json(),
        picks,
        entries: dashboard.entries.len(),
        z_factor: analysis.z_factor(),
        max_messages: analysis.max_messages(),
        guard_accepts_own_prediction: verdict == GuardVerdict::WithinLimits
            && guard.ranks == entry.ranks,
        refined_rel_err: (refined - slice.step_time_s).abs() / slice.step_time_s,
        direct_feasible: direct.is_some_and(|d| d.mflups > 0.0),
    })
}

pub fn run(sizes: &Sizes, cfg: &RunCfg, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut sm = SplitMix64::new(cfg.seed ^ 0x706c_616e);
    let inputs = Inputs {
        characterization_seed: sm.next_u64(),
        noise_seed: sm.next_u64(),
        steps: 100_000 + sm.next_u64() % 100_000,
    };

    let (grid, stats, mesh_cells) = set_up(cfg, t, &mut out, || {
        let grid = t.time("geometry.voxelize", || sizes.anatomy.build());
        let stats = t.time("geometry.stats", || GeometryStats::measure(&grid));
        let cells = t.time("lbm.mesh_build", || FluidMesh::build(&grid).len());
        (grid, stats, cells)
    });
    let fluid = stats.fluid_points;
    out.check(mesh_cells == fluid && fluid == grid.fluid_count(), || {
        format!(
            "mesh has {mesh_cells} cells, census {fluid}, grid {}",
            grid.fluid_count()
        )
    });

    // At least two passes (the identity check needs a pair), then as many
    // as finish inside the time.
    let mut pass_s: Vec<f64> = Vec::new();
    let mut reference: Option<Pass> = None;
    let window = Instant::now();
    t.time("perf.window", || loop {
        t.set_run(pass_s.len() as u32);
        let start = Instant::now();
        let p = t.time("perf.unit", || pass(&grid, sizes, &inputs, t));
        pass_s.push(start.elapsed().as_secs_f64());
        out.attempted += 1;

        let mut bad = Vec::new();
        if !p.guard_accepts_own_prediction {
            bad.push("guard rejects its own prediction".to_string());
        }
        if p.refined_rel_err > 1e-9 {
            bad.push(format!("refined step time off by {:e}", p.refined_rel_err));
        }
        if !p.direct_feasible || p.picks.len() != 3 || p.entries == 0 {
            bad.push("a model or objective produced no option".to_string());
        }
        match &reference {
            Some(first) => {
                if first.dashboard_json != p.dashboard_json {
                    bad.push("dashboard JSON differs from the first pass".to_string());
                }
                if first.picks != p.picks {
                    bad.push(format!("picks {:?} differ from {:?}", p.picks, first.picks));
                }
            }
            None => reference = Some(p),
        }
        if !bad.is_empty() {
            out.failed += 1;
            out.failures.extend(
                bad.into_iter()
                    .map(|b| format!("pass {}: {b}", pass_s.len())),
            );
        }
        let elapsed = window.elapsed().as_secs_f64();
        let enough = pass_s.len() >= 2 || !cfg.full;
        if enough && elapsed + median(&pass_s) > cfg.seconds {
            break;
        }
    });
    out.window_s = window.elapsed().as_secs_f64();
    out.samples = pass_s.len();
    out.throughput = 1.0 / median(&pass_s);
    out.notes.push(format!(
        "{fluid} fluid cells in {} voxels ({:.2}% fluid); pass: {}",
        stats.total_voxels,
        100.0 * stats.fluid_fraction,
        describe(&pass_s, 1.0, "s")
    ));

    if t.enabled() {
        let first = reference.expect("at least one pass");
        out.set("core.plan_s", median(&pass_s));
        probes::geometry_and_mesh(t, &mut out, &stats);
        out.set_seconds(
            t,
            &[
                "decomp.rcb",
                "decomp.halo_analyze",
                "core.workload_new",
                "core.characterize_all",
                "core.general_fit",
                "core.direct_predict",
                "core.dashboard_build",
                "cluster.prepared_run_new",
            ],
        );
        out.set(
            "decomp.rcb_cells_per_s",
            fluid as f64 / t.median_s("decomp.rcb"),
        );
        out.set("decomp.z_factor", first.z_factor);
        out.set("decomp.max_messages", first.max_messages as f64);
        out.set("core.dashboard_entries", first.entries as f64);
        out.set(
            "core.candidates_per_s",
            first.entries as f64 / t.median_s("core.dashboard_build"),
        );

        let workload = Workload::harvey(&grid, inputs.steps);
        let (platform, _, ranks) = &first.picks[1];
        probes::decomp_sweeps(t, &mut out, &grid);
        probes::fitting(t, &mut out);
        probes::core(
            t,
            &mut out,
            &workload,
            platform,
            *ranks,
            inputs.characterization_seed,
        );
        probes::cluster_fabric(t, &mut out, &workload, platform, *ranks, inputs.noise_seed);
        probes::obs(t, &mut out);
    }
    out
}
