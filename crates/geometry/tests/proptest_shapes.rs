//! Property tests for the SDF machinery (`hemocloud_rt::check`): metric
//! properties that must hold for arbitrary shapes and query points.
//! Historic failing seeds are committed as explicit `regression_*` tests.

use hemocloud_geometry::shapes::{Sdf, TaperedCapsule, Vec3};
use hemocloud_geometry::tube::{Tube, VesselNetwork};
use hemocloud_geometry::voxel::CellType;
use hemocloud_rt::check::{self, Config};
use hemocloud_rt::rng::Rng;

fn vec3(rng: &mut Rng) -> Vec3 {
    Vec3::new(
        rng.range_f64(-20.0, 20.0),
        rng.range_f64(-20.0, 20.0),
        rng.range_f64(-20.0, 20.0),
    )
}

fn capsule(rng: &mut Rng) -> TaperedCapsule {
    TaperedCapsule {
        a: vec3(rng),
        b: vec3(rng),
        radius_a: rng.range_f64(0.5, 4.0),
        radius_b: rng.range_f64(0.5, 4.0),
    }
}

#[test]
fn capsule_sdf_is_nearly_one_lipschitz() {
    check::run(
        "capsule_sdf_is_nearly_one_lipschitz",
        Config::cases(64),
        |rng| {
            // The tapered capsule interpolates the radius at the closest
            // parameter, which keeps it Lipschitz with a constant only
            // slightly above 1 for bounded tapers.
            let c = capsule(rng);
            let p = vec3(rng);
            let q = vec3(rng);
            let lhs = (c.distance(p) - c.distance(q)).abs();
            let rhs = p.sub(q).norm();
            assert!(lhs <= 1.5 * rhs + 1e-9);
        },
    );
}

#[test]
fn capsule_contains_both_end_spheres() {
    check::run("capsule_contains_both_end_spheres", Config::cases(64), |rng| {
        // Points strictly inside either end sphere are inside the capsule.
        let c = capsule(rng);
        for (center, radius) in [(c.a, c.radius_a), (c.b, c.radius_b)] {
            let inside = center.add(Vec3::new(0.4 * radius, 0.0, 0.0));
            assert!(c.distance(inside) < 0.0);
        }
    });
}

#[test]
fn capsule_is_symmetric_in_endpoint_order() {
    check::run(
        "capsule_is_symmetric_in_endpoint_order",
        Config::cases(64),
        |rng| {
            let c = capsule(rng);
            let p = vec3(rng);
            let flipped = TaperedCapsule {
                a: c.b,
                b: c.a,
                radius_a: c.radius_b,
                radius_b: c.radius_a,
            };
            assert!((c.distance(p) - flipped.distance(p)).abs() < 1e-9);
        },
    );
}

/// The invariants `voxelized_tube_fluid_cells_are_inside_the_sdf` asserts,
/// factored out so the historic regression case runs the same checks.
fn assert_voxelized_tube_consistent(len: f64, r: f64, dx: f64) {
    // Every voxel marked fluid has a centre with negative distance;
    // rasterization must agree with the analytic SDF.
    let tube = Tube::straight(Vec3::new(0.0, 0.0, 0.0), Vec3::new(len, 0.0, 0.0), r, r);
    let mut net = VesselNetwork::new();
    net.add_tube(tube.clone());
    let grid = net.voxelize(dx);
    let (min, _) = net.bounding_box().unwrap();
    let origin = Vec3::new(min.x - dx, min.y - dx, min.z - dx);
    for (x, y, z, c) in grid.iter_cells() {
        if c == CellType::Bulk || c == CellType::Wall {
            let p = Vec3::new(
                origin.x + (x as f64 + 0.5) * dx,
                origin.y + (y as f64 + 0.5) * dx,
                origin.z + (z as f64 + 0.5) * dx,
            );
            assert!(
                tube.distance(p) < 0.0,
                "fluid cell ({x},{y},{z}) outside lumen: d = {}",
                tube.distance(p)
            );
        }
    }
    // And the lumen volume approximates the capsule volume (cylinder plus
    // the two hemispherical end caps) within rasterization error.
    let lumen = grid.fluid_count() as f64 * dx * dx * dx;
    let analytic = std::f64::consts::PI * r * r * len + 4.0 / 3.0 * std::f64::consts::PI * r * r * r;
    assert!(
        (lumen - analytic).abs() < 0.25 * analytic,
        "volume {lumen} vs analytic {analytic}"
    );
}

#[test]
fn voxelized_tube_fluid_cells_are_inside_the_sdf() {
    check::run(
        "voxelized_tube_fluid_cells_are_inside_the_sdf",
        Config::cases(64),
        |rng| {
            let len = rng.range_f64(6.0, 20.0);
            let r = rng.range_f64(1.5, 3.0);
            let dx = rng.range_f64(0.5, 1.0);
            assert_voxelized_tube_consistent(len, r, dx);
        },
    );
}

/// Historic proptest-shrunk failure (formerly in
/// `proptest_shapes.proptest-regressions`): a short, fat tube whose
/// end-cap voxels once leaked outside the analytic lumen.
#[test]
fn regression_voxelized_short_fat_tube() {
    assert_voxelized_tube_consistent(6.0, 2.6424478005166043, 0.5);
}
