//! Cross-crate property-based tests (`hemocloud_rt::check`): invariants
//! that must hold for *arbitrary* inputs, not just the handcrafted cases.
//! Historic failing seeds are committed as explicit `regression_*` tests.

use hemocloud::prelude::*;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_fitting::two_line::{fit_two_line, TwoLineFit};
use hemocloud_geometry::classify::classify_walls;
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::equilibrium::{equilibrium_d3q19, macroscopics_d3q19};
use hemocloud_lbm::mesh::FluidMesh;
use hemocloud_lbm::solver::SolverConfig;
use hemocloud_rt::check::{self, Config};
use hemocloud_rt::rng::Rng;

/// A small random grid: a solid box with a random fluid blob pattern
/// (every fluid voxel chosen i.i.d., then walls classified).
fn random_grid(rng: &mut Rng) -> VoxelGrid {
    let nx = rng.range_usize(3, 7);
    let ny = rng.range_usize(3, 7);
    let nz = rng.range_usize(3, 7);
    let mut grid = VoxelGrid::solid(nx, ny, nz, 1.0);
    let mut any_fluid = false;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if rng.range_u64(0, 100) < 60 {
                    grid.set(x, y, z, CellType::Bulk);
                    any_fluid = true;
                }
            }
        }
    }
    if !any_fluid {
        grid.set(nx / 2, ny / 2, nz / 2, CellType::Bulk);
    }
    classify_walls(&mut grid);
    grid
}

#[test]
fn equilibrium_moments_roundtrip() {
    check::run("equilibrium_moments_roundtrip", Config::cases(24), |rng| {
        let rho = rng.range_f64(0.5, 2.0);
        let ux = rng.range_f64(-0.1, 0.1);
        let uy = rng.range_f64(-0.1, 0.1);
        let uz = rng.range_f64(-0.1, 0.1);
        let mut f = [0.0; 19];
        equilibrium_d3q19(rho, ux, uy, uz, &mut f);
        let (r, vx, vy, vz) = macroscopics_d3q19(&f);
        assert!((r - rho).abs() < 1e-12);
        assert!((vx - ux).abs() < 1e-12);
        assert!((vy - uy).abs() < 1e-12);
        assert!((vz - uz).abs() < 1e-12);
    });
}

#[test]
fn closed_box_mass_is_conserved_on_random_geometry() {
    check::run(
        "closed_box_mass_is_conserved_on_random_geometry",
        Config::cases(24),
        |rng| {
            // Any sealed random blob: perturb one cell, run, mass must hold.
            let grid = random_grid(rng);
            let bump = rng.range_f64(0.0, 0.02);
            let mesh = FluidMesh::build(&grid);
            let mut solver = Solver::new(
                mesh,
                SolverConfig {
                    parallel: false,
                    ..Default::default()
                },
            );
            // (random grids have no inlets/outlets, so the system is closed)
            let m0 = solver.total_mass() + bump;
            solver.bump_first_cell(bump);
            for _ in 0..20 {
                solver.step();
            }
            let m1 = solver.total_mass();
            assert!((m0 - m1).abs() < 1e-9 * m0, "mass {m0} -> {m1}");
        },
    );
}

/// The invariants `rcb_partitions_any_geometry_exactly` asserts, factored
/// out so the historic regression case runs exactly the same checks.
fn assert_rcb_partitions_exactly(grid: &VoxelGrid, n_tasks: usize) {
    let n = n_tasks.min(grid.fluid_count());
    let partition = RcbPartition::new(grid, n);
    let analysis = DecompAnalysis::analyze(grid, &partition);
    // Every fluid point assigned exactly once.
    assert_eq!(
        analysis.points_per_task.iter().sum::<usize>(),
        grid.fluid_count()
    );
    // z is at least 1 by construction.
    assert!(analysis.z_factor() >= 1.0 - 1e-12);
    // Peer graph symmetric (sizes may differ across ragged fluid
    // boundaries: one sender point can border several receiver points),
    // and every message is non-empty and bounded by its sender's point
    // count.
    assert!(analysis.is_peer_symmetric());
    for (t, msgs) in analysis.messages.iter().enumerate() {
        for (&peer, &pts) in msgs {
            assert!(peer != t, "self-message");
            assert!(pts >= 1);
            assert!(pts <= analysis.points_per_task[t]);
        }
    }
}

#[test]
fn rcb_partitions_any_geometry_exactly() {
    check::run(
        "rcb_partitions_any_geometry_exactly",
        Config::cases(24),
        |rng| {
            let grid = random_grid(rng);
            let n_tasks = rng.range_usize(1, 9);
            assert_rcb_partitions_exactly(&grid, n_tasks);
        },
    );
}

/// Historic proptest-shrunk failure (formerly in
/// `properties.proptest-regressions`): a 3×3×3 all-solid/wall blob whose
/// two fluid islands once broke peer symmetry at `n_tasks = 2`.
#[test]
fn regression_rcb_two_tasks_on_sparse_wall_blob() {
    use CellType::{Solid, Wall};
    let cells = [
        Solid, Solid, Wall, Wall, Wall, Wall, Wall, Wall, Solid, //
        Wall, Solid, Solid, Solid, Solid, Solid, Solid, Solid, Wall, //
        Wall, Wall, Wall, Solid, Solid, Wall, Solid, Solid, Wall,
    ];
    let mut grid = VoxelGrid::solid(3, 3, 3, 1.0);
    for (idx, &cell) in cells.iter().enumerate() {
        grid.set_linear(idx, cell);
    }
    assert_rcb_partitions_exactly(&grid, 2);
}

#[test]
fn two_line_fit_recovers_noiseless_curves() {
    check::run(
        "two_line_fit_recovers_noiseless_curves",
        Config::cases(24),
        |rng| {
            let a1 = rng.range_f64(1000.0, 20_000.0);
            let a2_frac = rng.range_f64(-0.05, 0.5);
            let a3 = rng.range_f64(2.0, 20.0);
            let cores = rng.range_usize(8, 48);
            let truth = TwoLineFit {
                a1,
                a2: a1 * a2_frac,
                a3: a3.min(cores as f64 - 1.0),
                sse: 0.0,
            };
            let ns: Vec<f64> = (1..=cores).map(|n| n as f64).collect();
            let bs: Vec<f64> = ns.iter().map(|&n| truth.eval(n)).collect();
            let fit = fit_two_line(&ns, &bs).expect("fittable");
            // The fitted curve reproduces the data everywhere (parameters
            // may trade off when the knee sits between integer thread
            // counts).
            for (&n, &b) in ns.iter().zip(&bs) {
                assert!(
                    (fit.eval(n) - b).abs() <= 0.03 * b.abs().max(1.0),
                    "n={}: fit {} vs truth {}",
                    n,
                    fit.eval(n),
                    b
                );
            }
        },
    );
}

#[test]
fn relative_value_matrix_is_reciprocal() {
    check::run(
        "relative_value_matrix_is_reciprocal",
        Config::cases(24),
        |rng| {
            let len = rng.range_usize(2, 6);
            let entries: Vec<(String, f64)> = (0..len)
                .map(|i| (format!("p{i}"), rng.range_f64(1.0, 1000.0)))
                .collect();
            let matrix = hemocloud_core::value::relative_value_matrix(&entries);
            for b in 0..entries.len() {
                assert!((matrix.get(b, b) - 1.0).abs() < 1e-12);
                for a in 0..entries.len() {
                    assert!((matrix.get(b, a) * matrix.get(a, b) - 1.0).abs() < 1e-9);
                }
            }
        },
    );
}

#[test]
fn guard_never_rejects_usage_within_prediction() {
    check::run(
        "guard_never_rejects_usage_within_prediction",
        Config::cases(24),
        |rng| {
            use hemocloud_core::composition::{Composition, Prediction};
            use hemocloud_core::guard::{GuardVerdict, JobGuard};
            let step_us = rng.range_f64(1.0, 10_000.0);
            let steps = rng.range_u64(1, 100_000);
            let tolerance = rng.range_f64(0.0, 0.5);
            let pred = Prediction::from_composition(
                36,
                1_000_000,
                Composition {
                    mem_s: step_us * 1e-6,
                    ..Default::default()
                },
            );
            let guard = JobGuard::from_prediction(&pred, steps, &Platform::csp2(), tolerance);
            assert_eq!(
                guard.check(guard.predicted_seconds, 0.0),
                GuardVerdict::WithinLimits
            );
            let exceeded = matches!(
                guard.check(guard.max_seconds * 1.01 + 1e-9, 0.0),
                GuardVerdict::Exceeded { .. }
            );
            assert!(exceeded);
        },
    );
}

/// The one recommendation rule: [`Objective::pick`] against a naive
/// first-strict-minimum loop, on tables with planted exact duplicates,
/// `+∞` and NaN — and [`Dashboard::recommend_index`] over the equivalent
/// rows answers with the same index.
#[test]
fn objective_pick_matches_a_naive_reference() {
    use std::cmp::Ordering;
    fn naive(objective: Objective, rows: &[(f64, f64)]) -> Option<usize> {
        let metric = |&(time_s, cost): &(f64, f64)| match objective {
            Objective::MaxThroughput => time_s,
            Objective::MinCost | Objective::Deadline(_) => cost,
        };
        let mut best: Option<usize> = None;
        for (i, row) in rows.iter().enumerate() {
            let meets_deadline = match objective {
                Objective::Deadline(seconds) => row.0 <= seconds,
                _ => true,
            };
            if meets_deadline
                && best.is_none_or(|b| metric(row).total_cmp(&metric(&rows[b])) == Ordering::Less)
            {
                best = Some(i);
            }
        }
        best
    }
    check::run("objective_pick_matches_a_naive_reference", Config::cases(64), |rng| {
        // A small palette, so exact ties are the common case.
        let mut palette = vec![f64::INFINITY, f64::NAN, -f64::NAN, 0.0];
        palette.extend((0..rng.range_usize(1, 6)).map(|_| rng.range_f64(0.0, 1000.0)));
        let draw = |rng: &mut Rng| palette[rng.range_usize(0, palette.len())];
        let rows: Vec<(f64, f64)> = (0..rng.range_usize(0, 41))
            .map(|_| (draw(rng), draw(rng)))
            .collect();
        let dashboard = Dashboard {
            workload_name: "prop".into(),
            entries: rows
                .iter()
                .map(|&(time_to_solution_s, cost_dollars)| DashboardEntry {
                    platform: "P".into(),
                    ranks: 1,
                    nodes: 1,
                    predicted_mflups: 1.0,
                    time_to_solution_s,
                    cost_dollars,
                    updates_per_dollar: 1.0,
                    topology: "scalar".into(),
                })
                .collect(),
        };
        for objective in [
            Objective::MaxThroughput,
            Objective::MinCost,
            Objective::Deadline(draw(rng)),
        ] {
            let expected = naive(objective, &rows);
            let keyed = rows.iter().enumerate().map(|(i, &(t, c))| (i, t, c));
            assert_eq!(objective.pick(keyed), expected, "{objective:?} over {rows:?}");
            assert_eq!(dashboard.recommend_index(objective), expected, "{objective:?}");
        }
    });
}
