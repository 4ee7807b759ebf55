//! `solve_dram` / `solve_cache`: the sparse D3Q19 solver, one step per
//! sample, over the kernel configurations users run.
//!
//! Set-up voxelizes the cylinder, builds the mesh and constructs the
//! baseline solver. Every row then advances the same number of steps
//! from the same rest state, so their results can be held against each
//! other: AA's natural-order moments against AB's post-stream moments,
//! the pooled run against the single-worker run bit for bit, and the
//! rank-decomposed run against the global one bit for bit with its halo
//! ledger matching the decomposition census.

use std::time::Instant;

use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_geometry::anatomy::CylinderSpec;
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_geometry::voxel::CellType;
use hemocloud_lbm::access_profile::{average_solid_links, AccessProfile};
use hemocloud_lbm::kernel::{KernelConfig, Layout, Precision, Propagation};
use hemocloud_lbm::mesh::FluidMesh;
use hemocloud_lbm::ranked::{RankAssignment, RankedSolver};
use hemocloud_lbm::solver::{Solver, SolverConfig};
use hemocloud_obs::Registry;
use hemocloud_rt::pool;
use hemocloud_rt::rng::SplitMix64;

use super::{probes, set_up, Outcome, RunCfg};
use crate::stats::{describe, median, percentile_with_ten_beyond};
use crate::trace::Tracer;

pub struct Sizes {
    /// Voxels across the cylinder diameter.
    pub resolution: usize,
    /// Also run AA/SoA f32 and the rank-decomposed solver.
    pub f32_and_ranked: bool,
    /// Timed steps per row, whatever the time allows.
    pub min_steps: u64,
    /// Cap on STREAM array length (elements), for the tiny pass.
    pub stream_max_elements: usize,
}

const WARM_STEPS: u64 = 2;
const RANKS: usize = 8;

impl Sizes {
    pub fn dram() -> Self {
        Self {
            resolution: 56,
            f32_and_ranked: false,
            min_steps: 10,
            stream_max_elements: usize::MAX,
        }
    }

    /// 1000 steps per row so p99 has its ten samples beyond it.
    pub fn cache() -> Self {
        Self {
            resolution: 20,
            f32_and_ranked: true,
            min_steps: 1000,
            stream_max_elements: usize::MAX,
        }
    }

    #[cfg(test)]
    pub fn tiny(cache: bool) -> Self {
        Self {
            resolution: 6,
            f32_and_ranked: cache,
            min_steps: 4,
            stream_max_elements: 1 << 16,
        }
    }
}

/// Seconds per step over the warm-up steps.
fn warm(t: &Tracer, mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    t.time_n("lbm.warm_steps", WARM_STEPS, || {
        for _ in 0..WARM_STEPS {
            step();
        }
    });
    start.elapsed().as_secs_f64() / WARM_STEPS as f64
}

/// Mass finite and positive, peak velocity inside the stable band.
fn physical(out: &mut Outcome, label: &str, solver: &Solver) -> bool {
    let (mass, umax) = (solver.total_mass(), solver.max_velocity());
    let ok = mass.is_finite() && mass > 0.0 && umax > 0.0 && umax < 0.3;
    out.check(ok, || {
        format!("{label}: total mass {mass}, max velocity {umax}")
    });
    ok
}

/// The timed rows of one run: (row name, per-step wall seconds).
struct Rows<'t> {
    t: &'t Tracer,
    steps: u64,
    timed: Vec<(&'static str, Vec<f64>)>,
}

impl Rows<'_> {
    /// Time `steps` steps of a warmed-up solver under span `lbm.step.<row>`,
    /// then check it; a failed check fails every step of the row.
    fn time<S>(
        &mut self,
        out: &mut Outcome,
        span: &'static str,
        solver: &mut S,
        step: impl Fn(&mut S),
        check: impl FnOnce(&mut Outcome, &S) -> bool,
    ) {
        let t = self.t;
        t.set_run(self.timed.len() as u32);
        let samples = t.time("perf.unit", || {
            (0..self.steps)
                .map(|_| {
                    let start = Instant::now();
                    t.time(span, || step(solver));
                    start.elapsed().as_secs_f64()
                })
                .collect()
        });
        if !t.time("perf.check", || check(out, solver)) {
            out.failed += self.steps;
        }
        let row = span
            .strip_prefix("lbm.step.")
            .expect("row spans are lbm.step.<row>");
        self.timed.push((row, samples));
    }
}

pub fn run(sizes: &Sizes, cfg: &RunCfg, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    // The seed picks the inlet velocity: other numbers, same work.
    let unit = SplitMix64::new(cfg.seed ^ 0x736f_6c76).next_u64() as f64 / u64::MAX as f64;
    let base = SolverConfig {
        u_max: 0.04 + 0.02 * unit,
        parallel: false,
        ..Default::default()
    };
    let with_kernel = |kernel| SolverConfig { kernel, ..base };
    let ab_config = with_kernel(KernelConfig::sparse(Propagation::Ab, Layout::Aos));
    let workers = pool::global().threads();

    let registry = Registry::new();
    let (grid, stats, mesh, mut ab) = set_up(cfg, t, &mut out, || {
        let grid = t.time("geometry.voxelize", || {
            CylinderSpec::default()
                .with_resolution(sizes.resolution)
                .build()
        });
        let stats = t.time("geometry.stats", || GeometryStats::measure(&grid));
        let mesh = t.time("lbm.mesh_build", || FluidMesh::build(&grid));
        let for_solver = mesh.clone();
        let solver = t.time("lbm.solver_new", || {
            Solver::new_in(for_solver, ab_config, &registry)
        });
        (grid, stats, mesh, solver)
    });
    let cells = mesh.len();
    let n_rows = if sizes.f32_and_ranked { 5 } else { 3 };

    // One step count for every row (even, so AA ends in natural order),
    // sized from the baseline's warm-up so the rows together fill the time.
    let est_step_s = warm(t, || ab.step_with_workers(1));
    let min_steps = if cfg.full { sizes.min_steps } else { 10 };
    let steps = ((cfg.seconds / (n_rows as f64 * est_step_s)) as u64).max(min_steps) & !1;
    let mut rows = Rows {
        t,
        steps,
        timed: Vec::new(),
    };

    let window = Instant::now();
    t.time("perf.window", || {
        rows.time(
            &mut out,
            "lbm.step.ab",
            &mut ab,
            |s| s.step_with_workers(1),
            |out, s| physical(out, "ab", s),
        );

        let aa_config = with_kernel(KernelConfig::sparse(Propagation::Aa, Layout::Aos));
        let mut aa = t.time("lbm.solver_new", || Solver::new(mesh.clone(), aa_config));
        warm(t, || aa.step_with_workers(1));
        rows.time(
            &mut out,
            "lbm.step.aa",
            &mut aa,
            |s| s.step_with_workers(1),
            |out, aa| {
                let mut diff = 0.0f64;
                for cell in 0..cells {
                    let (r0, x0, y0, z0) = ab.post_stream_macroscopics(cell);
                    let (r1, x1, y1, z1) = aa.macroscopics(cell);
                    for d in [r0 - r1, x0 - x1, y0 - y1, z0 - z1] {
                        diff = diff.max(d.abs());
                    }
                }
                out.check(diff <= 1e-12, || {
                    format!("aa moments differ from ab post-stream by {diff:e}")
                });
                physical(out, "aa", aa) && diff <= 1e-12
            },
        );
        t.time("lbm.solver_drop", || drop(aa));

        let mut par = t.time("lbm.solver_new", || Solver::new(mesh.clone(), ab_config));
        warm(t, || par.step_with_workers(workers));
        rows.time(
            &mut out,
            "lbm.step.ab_par",
            &mut par,
            |s| s.step_with_workers(workers),
            |out, par| {
                let same = par.distributions() == ab.distributions();
                out.check(same, || {
                    format!("{workers}-worker distributions differ from 1-worker")
                });
                same
            },
        );
        t.time("lbm.solver_drop", || drop(par));

        if !sizes.f32_and_ranked {
            return;
        }
        let f32_config = with_kernel(KernelConfig::sparse_with_precision(
            Propagation::Aa,
            Layout::Soa,
            Precision::Single,
        ));
        let mut single = t.time("lbm.solver_new", || Solver::new(mesh.clone(), f32_config));
        warm(t, || single.step_with_workers(1));
        rows.time(
            &mut out,
            "lbm.step.aa_f32",
            &mut single,
            |s| s.step_with_workers(1),
            |out, s| physical(out, "aa_f32", s),
        );
        t.time("lbm.solver_drop", || drop(single));

        let partition = t.time("decomp.rcb", || RcbPartition::new(&grid, RANKS));
        let mut ranked = t.time("lbm.ranked_new", || {
            let owners = RankAssignment::new(partition.assign_fluid_cells(&grid), RANKS);
            RankedSolver::new(mesh.clone(), owners, ab_config)
        });
        warm(t, || ranked.step_with_workers(1));
        rows.time(
            &mut out,
            "lbm.step.ranked",
            &mut ranked,
            |s| s.step_with_workers(1),
            |out, ranked| {
                let same = ranked.distributions() == ab.distributions();
                out.check(same, || {
                    "ranked distributions differ from the global solver".to_string()
                });
                // Eq. 9: each boundary point ships its 19 f64 values to each peer.
                let census = DecompAnalysis::analyze(&grid, &partition);
                let ledger_ok = ranked.ledgers().iter().enumerate().all(|(task, l)| {
                    let points: usize = census.messages[task].values().sum();
                    l.bytes_sent == (points * 19 * 8) as u64
                        && l.messages_sent as usize == census.messages[task].len()
                });
                out.check(ledger_ok, || {
                    "halo ledger differs from the Eq. 9 census".to_string()
                });
                same && ledger_ok
            },
        );
        if t.enabled() {
            let bytes: u64 = ranked.ledgers().iter().map(|l| l.bytes_sent).sum();
            let messages: u64 = ranked.ledgers().iter().map(|l| l.messages_sent).sum();
            out.set("lbm.ranked.halo_bytes_per_step", bytes as f64);
            out.set("lbm.ranked.halo_messages_per_step", messages as f64);
        }
        t.time("lbm.solver_drop", || drop(ranked));
    });
    out.window_s = window.elapsed().as_secs_f64();
    let rows = rows.timed;
    out.attempted = steps * rows.len() as u64;
    out.samples = steps as usize;
    let medians: Vec<f64> = rows.iter().map(|(_, s)| median(s)).collect();
    let mflups = |row: &str| {
        rows.iter()
            .position(|(n, _)| *n == row)
            .map_or(0.0, |i| cells as f64 / medians[i] / 1e6)
    };
    // Cell updates per second over the rows: the harmonic mean of their rates.
    out.throughput = (rows.len() * cells) as f64 / medians.iter().sum::<f64>();
    out.notes.push(format!(
        "{cells} cells, {} MiB of distributions per AB solver, {steps} timed steps per row",
        ab.distribution_bytes() >> 20
    ));
    for (row, samples) in &rows {
        out.notes.push(format!(
            "  {row}: {:.2} MFLUPS; step: {}",
            mflups(row),
            describe(samples, 1e3, "ms")
        ));
    }

    if t.enabled() {
        for (row, samples) in &rows {
            let p50 = median(samples) * 1e3;
            out.set(&format!("lbm.mflups.{row}"), mflups(row));
            if *row == "ranked" {
                out.set("lbm.ranked.step_ms_p50", p50);
                out.set("lbm.ranked.over_global", p50 / (medians[0] * 1e3));
            } else {
                let p99 = percentile_with_ten_beyond(samples, 99.0).map_or(0.0, |s| s * 1e3);
                out.set(&format!("lbm.step_ms_p50.{row}"), p50);
                out.set(&format!("lbm.step_ms_p99.{row}"), p99);
            }
        }
        let speedup = mflups("ab_par") / mflups("ab");
        out.set("rt.pool.speedup", speedup);
        out.set("rt.pool.efficiency", speedup / workers as f64);

        probes::geometry_and_mesh(t, &mut out, &stats);
        out.set_seconds(t, &["lbm.solver_new"]);
        out.set(
            "lbm.distribution_mib",
            ab.distribution_bytes() as f64 / f64::from(1 << 20),
        );
        if sizes.f32_and_ranked {
            out.set_seconds(t, &["decomp.rcb"]);
            out.set(
                "decomp.rcb_cells_per_s",
                cells as f64 / t.median_s("decomp.rcb"),
            );
        }

        // Cells each kernel list updated per step, as the solver counted them.
        let counted = registry.snapshot();
        let steps_counted = counted.counter("lbm.steps").unwrap_or(0).max(1) as f64;
        for kind in ["bulk", "inlet", "outlet"] {
            let updates = counted
                .counter(&format!("lbm.cell_updates.{kind}"))
                .unwrap_or(0);
            out.set(&format!("lbm.cells.{kind}"), updates as f64 / steps_counted);
        }
        out.set(
            "lbm.cells.wall",
            mesh.cells_of_type(CellType::Wall).len() as f64,
        );

        // Bytes the Eq. 9 model charges per update against the bytes the
        // memory system could have moved in the time an update took, both
        // at pool width, STREAM measured in this same run.
        let modeled = AccessProfile::for_kernel(&ab_config.kernel, average_solid_links(&mesh))
            .bytes_per_point(&stats);
        drop(ab);
        let triad_gb_s = probes::stream(t, &mut out, sizes.stream_max_elements);
        let implied = triad_gb_s * 1e3 / mflups("ab_par");
        out.set("lbm.bytes_per_update_modeled", modeled);
        out.set("lbm.bytes_per_update_implied", implied);
        out.set("lbm.measured_over_modeled", implied / modeled);
        probes::pool_dispatch(t, &mut out);
        probes::obs(t, &mut out);
    }
    out
}
