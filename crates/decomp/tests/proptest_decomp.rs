//! Property tests for the partition machinery (`hemocloud_rt::check`):
//! tiling, ownership and balance invariants over arbitrary domains and
//! task counts.

use hemocloud_decomp::census::CALIBRATION_COUNTS;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::partition::{factorize3, BlockPartition, SlabPartition};
use hemocloud_decomp::placement::Placement;
use hemocloud_decomp::rcb::{self, RcbError, RcbPartition};
use hemocloud_geometry::anatomy::{
    AneurysmSpec, AortaSpec, CerebralSpec, CylinderSpec, StenosisSpec,
};
use hemocloud_geometry::voxel::{CellType, VoxelGrid};
use hemocloud_rt::check::{self, Config};
use hemocloud_rt::rng::Rng;

/// A random grid with extents in `extent` and about `fluid_pct` percent
/// fluid, at least one fluid cell.
fn lumpy_grid(rng: &mut Rng, extent: std::ops::RangeInclusive<usize>, fluid_pct: u64) -> VoxelGrid {
    let mut side = || rng.range_usize(*extent.start(), *extent.end() + 1);
    let (nx, ny, nz) = (side(), side(), side());
    let mut g = VoxelGrid::solid(nx, ny, nz, 1.0);
    for i in 0..g.len() {
        if rng.range_u64(0, 100) < fluid_pct {
            g.set_linear(i, CellType::Bulk);
        }
    }
    let seed_cell = rng.range_usize(0, g.len());
    g.set_linear(seed_cell, CellType::Bulk);
    g
}

/// Every calibration count cut from the one shared tree is the partition
/// a tree built for that count alone would be — same error where there is
/// none, same regions, same owner on every voxel.
fn assert_shared_tree_matches_direct(g: &VoxelGrid) {
    let swept = rcb::sweep(g, &CALIBRATION_COUNTS);
    for (&n, shared) in CALIBRATION_COUNTS.iter().zip(&swept) {
        match (shared, RcbPartition::try_new(g, n)) {
            (Ok(shared), Ok(direct)) => {
                assert_eq!(shared.n_tasks(), n);
                for t in 0..n {
                    assert_eq!(shared.region(t), direct.region(t), "{n} tasks, task {t}");
                }
                for i in 0..g.len() {
                    let (x, y, z) = g.coords(i);
                    assert_eq!(shared.owner_of(x, y, z), direct.owner_of(x, y, z));
                }
            }
            (Err(shared), Err(direct)) => assert_eq!(*shared, direct, "{n} tasks"),
            (shared, direct) => panic!(
                "{n} tasks: shared tree {:?}, own tree {:?}",
                shared.as_ref().err(),
                direct.err()
            ),
        }
    }
}

#[test]
fn factorize3_is_exact_and_within_bounds() {
    check::run(
        "factorize3_is_exact_and_within_bounds",
        Config::cases(48),
        |rng| {
            let n = rng.range_usize(1, 2049);
            let dx = rng.range_usize(4, 64);
            let dy = rng.range_usize(4, 64);
            let dz = rng.range_usize(4, 64);
            let (a, b, c) = factorize3(n, (dx, dy, dz));
            assert_eq!(a * b * c, n);
        },
    );
}

#[test]
fn block_partition_tiles_any_domain() {
    check::run("block_partition_tiles_any_domain", Config::cases(48), |rng| {
        let dx = rng.range_usize(2, 12);
        let dy = rng.range_usize(2, 12);
        let dz = rng.range_usize(2, 12);
        let n = rng.range_usize(1, 9);
        let (a, b, c) = factorize3(n, (dx, dy, dz));
        if !(a <= dx && b <= dy && c <= dz) {
            return; // vacuous case (the prop_assume! analog)
        }
        let p = BlockPartition::new((dx, dy, dz), n);
        let mut counts = vec![0usize; n];
        for z in 0..dz {
            for y in 0..dy {
                for x in 0..dx {
                    let t = p.owner_of(x, y, z);
                    assert!(t < n);
                    assert!(p.region(t).contains(x, y, z));
                    counts[t] += 1;
                }
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), dx * dy * dz);
        for (t, &cnt) in counts.iter().enumerate() {
            assert_eq!(cnt, p.region(t).volume());
        }
    });
}

#[test]
fn slab_owners_are_monotone_along_the_axis() {
    check::run(
        "slab_owners_are_monotone_along_the_axis",
        Config::cases(48),
        |rng| {
            let dx = rng.range_usize(2, 10);
            let dy = rng.range_usize(2, 10);
            let dz = rng.range_usize(2, 30);
            let n = rng.range_usize(1, 8);
            let dims = (dx, dy, dz);
            let longest = dx.max(dy).max(dz);
            if n > longest {
                return; // vacuous case
            }
            let p = SlabPartition::new(dims, n);
            let mut prev = 0usize;
            for v in 0..longest {
                let (x, y, z) = match p.axis() {
                    0 => (v, 0, 0),
                    1 => (0, v, 0),
                    _ => (0, 0, v),
                };
                let t = p.owner_of(x, y, z);
                assert!(t >= prev, "owners must be non-decreasing along the slab axis");
                prev = t;
            }
            assert_eq!(prev, n - 1, "last slab owned by last task");
        },
    );
}

#[test]
fn rcb_balances_dense_boxes_tightly() {
    check::run("rcb_balances_dense_boxes_tightly", Config::cases(48), |rng| {
        let dx = rng.range_usize(4, 12);
        let dy = rng.range_usize(4, 12);
        let dz = rng.range_usize(4, 12);
        let n = rng.range_usize(1, 9);
        let g = VoxelGrid::filled(dx, dy, dz, 1.0, CellType::Bulk);
        let p = RcbPartition::new(&g, n);
        let a = DecompAnalysis::analyze(&g, &p);
        // On a dense box the worst task holds at most ~1 slice more than
        // ideal; bound loosely.
        assert!(a.z_factor() < 1.8, "z = {}", a.z_factor());
        assert_eq!(a.points_per_task.iter().sum::<usize>(), dx * dy * dz);
    });
}

#[test]
fn placement_partitions_tasks_exactly() {
    check::run("placement_partitions_tasks_exactly", Config::cases(48), |rng| {
        let n_tasks = rng.range_usize(1, 200);
        let per_node = rng.range_usize(1, 64);
        let p = Placement::contiguous(n_tasks, per_node);
        assert_eq!(p.tasks_per_node().iter().sum::<usize>(), n_tasks);
        assert!(p.tasks_per_node().iter().all(|&c| c <= per_node));
        // Tasks on the same node are never internodal.
        for t in 1..n_tasks {
            if p.node_of(t) == p.node_of(t - 1) {
                assert!(!p.is_internodal(t, t - 1));
            } else {
                assert!(p.is_internodal(t, t - 1));
            }
        }
    });
}

#[test]
fn rcb_never_panics_up_to_one_task_per_fluid_point() {
    check::run(
        "rcb_never_panics_up_to_one_task_per_fluid_point",
        Config::cases(96),
        |rng| {
            let g = lumpy_grid(rng, 1..=4, 60);
            let fluid = g.fluid_count();
            for n in 1..=fluid {
                match RcbPartition::try_new(&g, n) {
                    Ok(p) => {
                        let a = DecompAnalysis::analyze(&g, &p);
                        assert_eq!(a.points_per_task.iter().sum::<usize>(), fluid);
                        let volume: usize = (0..n).map(|t| p.region(t).volume()).sum();
                        assert_eq!(volume, g.len(), "regions tile the box");
                    }
                    // A lumpy cut can strand two tasks on one voxel; that
                    // is an answer, not a crash.
                    Err(RcbError::Unsplittable { region, n_tasks }) => {
                        assert_eq!(region.volume(), 1);
                        assert!(n_tasks >= 2);
                    }
                    Err(e) => panic!("{n} tasks on {fluid} fluid points: {e}"),
                }
            }
            assert_eq!(
                RcbPartition::try_new(&g, fluid + 1).err(),
                Some(RcbError::TooManyTasks {
                    n_tasks: fluid + 1,
                    fluid_points: fluid
                })
            );
        },
    );
}

#[test]
fn power_of_two_partitions_nest_on_random_lumpy_grids() {
    // 216 to 729 voxels at 35-90% fluid straddle 256 fluid points: the
    // shared tree is built at 256 tasks in about a third of the cases and
    // below it (too few points, or an unsplittable voxel) in the rest.
    check::run(
        "power_of_two_partitions_nest_on_random_lumpy_grids",
        Config::cases(48),
        |rng| {
            let fluid_pct = rng.range_u64(35, 91);
            assert_shared_tree_matches_direct(&lumpy_grid(rng, 6..=9, fluid_pct));
        },
    );
}

#[test]
fn power_of_two_partitions_nest_on_the_five_anatomies() {
    for g in [
        AortaSpec::default().with_resolution(10).build(),
        CerebralSpec::default()
            .with_generations(3)
            .with_resolution(5)
            .build(),
        CylinderSpec::default().with_resolution(8).build(),
        StenosisSpec::default().build(),
        AneurysmSpec::default().build(),
    ] {
        assert!(g.fluid_count() >= 256);
        assert_shared_tree_matches_direct(&g);
    }
}
