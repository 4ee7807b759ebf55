//! Property tests for the fluid-row scan: `VoxelGrid::fluid_rows` yields
//! exactly the rows that hold fluid, and the censuses that now go through
//! it (`GeometryStats::measure`, `measured_avg_solid_links`) equal the
//! full-box loops they replaced, bit for bit.

use hemocloud_geometry::classify::{measured_avg_solid_links, solid_link_count};
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_geometry::{CellType, VoxelGrid};
use hemocloud_rt::check::{self, Config};
use hemocloud_rt::rng::Rng;

const KINDS: [CellType; 5] = [
    CellType::Solid,
    CellType::Bulk,
    CellType::Wall,
    CellType::Inlet,
    CellType::Outlet,
];

/// A random grid of 1 to 11 voxels a side (`nx == 1` a fifth of the
/// time), about `fluid_pct` percent fluid of the four fluid types, and
/// sometimes a whole solid z-slab.
fn random_grid(rng: &mut Rng) -> VoxelGrid {
    let nx = match rng.range_u64(0, 5) {
        0 => 1,
        _ => rng.range_usize(2, 12),
    };
    let (ny, nz) = (rng.range_usize(1, 12), rng.range_usize(1, 12));
    let fluid_pct = rng.range_u64(0, 101);
    let mut g = VoxelGrid::solid(nx, ny, nz, 1.0);
    for i in 0..g.len() {
        if rng.range_u64(0, 100) < fluid_pct {
            g.set_linear(i, KINDS[rng.range_usize(1, 5)]);
        }
    }
    if rng.range_u64(0, 2) == 0 {
        let z = rng.range_usize(0, nz);
        for y in 0..ny {
            for x in 0..nx {
                g.set(x, y, z, CellType::Solid);
            }
        }
    }
    g
}

/// The rows with fluid by the obvious filter.
fn naive_fluid_rows(g: &VoxelGrid) -> Vec<(usize, usize, Vec<CellType>)> {
    let (nx, ny, nz) = g.dims();
    let mut rows = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            let row: Vec<CellType> = (0..nx).map(|x| g.get(x, y, z)).collect();
            if row.iter().any(|c| c.is_fluid()) {
                rows.push((y, z, row));
            }
        }
    }
    rows
}

fn assert_fluid_rows(g: &VoxelGrid) {
    let got: Vec<(usize, usize, Vec<CellType>)> = g
        .fluid_rows()
        .map(|(y, z, row)| (y, z, row.to_vec()))
        .collect();
    assert_eq!(got, naive_fluid_rows(g), "{:?}", g.dims());
}

#[test]
fn fluid_rows_are_exactly_the_rows_with_fluid() {
    check::run(
        "fluid_rows_are_exactly_the_rows_with_fluid",
        Config::cases(96),
        |rng| assert_fluid_rows(&random_grid(rng)),
    );
    assert_eq!(VoxelGrid::solid(4, 5, 6, 1.0).fluid_rows().count(), 0);
    let mut column = VoxelGrid::solid(1, 3, 4, 1.0);
    column.set(0, 2, 1, CellType::Outlet);
    column.set(0, 0, 3, CellType::Wall);
    assert_fluid_rows(&column);
    assert_eq!(
        column
            .fluid_rows()
            .map(|(y, z, _)| (y, z))
            .collect::<Vec<_>>(),
        [(2, 1), (0, 3)]
    );
}

/// `GeometryStats::measure` as it was: one `match` per voxel of the box.
fn reference_measure(grid: &VoxelGrid) -> GeometryStats {
    let (mut bulk, mut wall, mut inlet, mut outlet) = (0usize, 0usize, 0usize, 0usize);
    for &c in grid.cells() {
        match c {
            CellType::Bulk => bulk += 1,
            CellType::Wall => wall += 1,
            CellType::Inlet => inlet += 1,
            CellType::Outlet => outlet += 1,
            CellType::Solid => {}
        }
    }
    let fluid = bulk + wall + inlet + outlet;
    GeometryStats {
        total_voxels: grid.len(),
        fluid_points: fluid,
        bulk_points: bulk,
        wall_points: wall,
        inlet_points: inlet,
        outlet_points: outlet,
        fluid_fraction: fluid as f64 / grid.len() as f64,
        bulk_wall_ratio: if wall == 0 {
            f64::INFINITY
        } else {
            bulk as f64 / wall as f64
        },
    }
}

/// `measured_avg_solid_links` as it was: every voxel of the box visited.
fn reference_avg_solid_links(grid: &VoxelGrid) -> f64 {
    let (mut total, mut walls) = (0usize, 0usize);
    for (x, y, z, c) in grid.iter_cells() {
        if c == CellType::Wall {
            total += solid_link_count(grid, x, y, z);
            walls += 1;
        }
    }
    if walls == 0 {
        0.0
    } else {
        total as f64 / walls as f64
    }
}

#[test]
fn censuses_through_fluid_rows_match_the_full_box_loops() {
    check::run(
        "censuses_through_fluid_rows_match_the_full_box_loops",
        Config::cases(96),
        |rng| {
            let g = random_grid(rng);
            let (got, want) = (GeometryStats::measure(&g), reference_measure(&g));
            assert_eq!(
                (got.total_voxels, got.fluid_points, got.bulk_points),
                (want.total_voxels, want.fluid_points, want.bulk_points)
            );
            assert_eq!(
                (got.wall_points, got.inlet_points, got.outlet_points),
                (want.wall_points, want.inlet_points, want.outlet_points)
            );
            assert_eq!(got.fluid_fraction.to_bits(), want.fluid_fraction.to_bits());
            assert_eq!(
                got.bulk_wall_ratio.to_bits(),
                want.bulk_wall_ratio.to_bits()
            );
            assert_eq!(
                measured_avg_solid_links(&g).to_bits(),
                reference_avg_solid_links(&g).to_bits()
            );
        },
    );
}
