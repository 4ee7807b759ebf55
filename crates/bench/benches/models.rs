//! Benches of the modeling pipeline itself (`hemocloud_rt::bench`): how
//! expensive are characterization, fitting, decomposition analysis and
//! the two prediction models — and pinning a run to a platform against
//! timing one slice of it, or pricing a co-scheduled set of runs through
//! the fabric? (The dashboard's interactivity depends on the former, a
//! campaign's event rate on the latter two.)

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::stream_bench::stream_sweep;
use hemocloud_cluster::topology::{build_topology, routed_set_comm, CommModel, TopologyVariant};
use hemocloud_core::characterize::{characterize, characterize_all};
use hemocloud_core::dashboard::Dashboard;
use hemocloud_core::direct::DirectModel;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::workload::Workload;
use hemocloud_decomp::census::Census;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::rcb::RcbPartition;
use hemocloud_fitting::models::fit_imbalance;
use hemocloud_fitting::sweep::fit_stream;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_geometry::classify::{classify_walls, measured_avg_solid_links};
use hemocloud_geometry::voxel::CellType;
use hemocloud_lbm::kernel::KernelConfig;
use hemocloud_rt::bench::{Harness, Throughput};

fn fitting(h: &mut Harness) {
    let platform = Platform::csp2();
    let sweep = stream_sweep(&platform, 1);
    h.bench_function("fit/two_line_36pt", |b| b.iter(|| fit_stream(&sweep).unwrap()));

    let counts: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let zs: Vec<f64> = counts
        .iter()
        .map(|&n| 0.2 * ((0.5 * (n as f64 - 1.0)) + 1.0).ln() + 1.0)
        .collect();
    h.bench_function("fit/imbalance_nelder_mead", |b| {
        b.iter(|| fit_imbalance(&counts, &zs).unwrap())
    });
}

fn characterization(h: &mut Harness) {
    let platform = Platform::csp2();
    h.bench_function("characterize/csp2", |b| b.iter(|| characterize(&platform, 7)));
}

fn decomposition(h: &mut Harness) {
    let grid = CylinderSpec::default().with_resolution(24).build();
    let mut group = h.group("decomp");
    group.sample_size(10);
    for n in [8usize, 64] {
        group.bench_function(&format!("rcb/{n}"), |b| {
            b.iter(|| RcbPartition::new(&grid, n))
        });
        let p = RcbPartition::new(&grid, n);
        group.bench_function(&format!("analyze/{n}"), |b| {
            b.iter(|| DecompAnalysis::analyze(&grid, &p))
        });
    }
    // All nine calibration counts into an empty census: one tree, one walk.
    let grid = std::sync::Arc::new(grid);
    group.bench_function("census_fill_9", |b| {
        b.iter(|| Census::new(grid.clone(), 380.5, 301.25).entry(256))
    });
    // The calibration fit and the routed dashboard read the workload's
    // census: cold rows describe a workload per iteration (the census is
    // filled inside the timing, `Workload::new` included), the warm row
    // refits a workload whose census is already there.
    let character = characterize(&Platform::csp2(), 7);
    group.bench_function("general_fit_cold", |b| {
        b.iter(|| GeneralModel::from_characterization(&character, &Workload::harvey(&grid, 100)))
    });
    let warm = Workload::harvey(&grid, 100);
    group.bench_function("general_fit_warm", |b| {
        b.iter(|| GeneralModel::from_characterization(&character, &warm))
    });
    let characters = characterize_all(7);
    let prices = PriceSheet::default();
    group.bench_function("dashboard_build_routed", |b| {
        b.iter(|| {
            Dashboard::build_routed(
                &characters,
                &Workload::harvey(&grid, 100),
                &[16, 64, 128],
                &prices,
                &[TopologyVariant::FatTree, TopologyVariant::Spread],
            )
        })
    });
    group.finish();
}

/// The same steps on `plan_cerebral`'s tree: 20k fluid cells in a
/// 3.5M-voxel box, where anything that scans or allocates the box rather
/// than the fluid shows.
fn sparse_decomposition(h: &mut Harness) {
    let grid = std::sync::Arc::new(
        CerebralSpec::default()
            .with_generations(5)
            .with_resolution(12)
            .build(),
    );
    let mut group = h.group("decomp");
    group.sample_size(10);
    group.bench_function("rcb_cerebral_64", |b| {
        b.iter(|| RcbPartition::new(&grid, 64))
    });
    group.bench_function("census_fill_9_cerebral", |b| {
        b.iter(|| Census::new(grid.clone(), 380.5, 301.25).entry(256))
    });
    group.finish();
    let mut group = h.group("core");
    group.sample_size(10);
    group.bench_function("workload_new_cerebral", |b| {
        b.iter(|| Workload::harvey(&grid, 100))
    });
    group.finish();
}

/// The same steps on `plan_aorta`'s anatomy: 365k fluid cells filling
/// 29% of a 1.26M-voxel box, where the bisection and the walk cost what
/// the fluid costs and the res-24 cylinder's rows above hide it.
fn dense_decomposition(h: &mut Harness) {
    let grid = std::sync::Arc::new(AortaSpec::default().with_resolution(40).build());
    let mut group = h.group("decomp");
    group.sample_size(10);
    for n in [64usize, 256] {
        group.bench_function(&format!("rcb_aorta_{n}"), |b| {
            b.iter(|| RcbPartition::new(&grid, n))
        });
    }
    let p = RcbPartition::new(&grid, 64);
    group.bench_function("analyze_aorta_64", |b| {
        b.iter(|| DecompAnalysis::analyze(&grid, &p))
    });
    group.bench_function("census_fill_9_aorta", |b| {
        b.iter(|| Census::new(grid.clone(), 380.5, 301.25).entry(256))
    });
    // The neighbourhood scans beside the walk: the wall-link average
    // `Workload::new` and `PreparedRun::new` read, and the wall pass that
    // ends the voxelization (on the lumen before it, walls made bulk
    // again; the copy is in the timing, ~1% of it).
    group.bench_function("avg_solid_links_aorta", |b| {
        b.iter(|| measured_avg_solid_links(&grid))
    });
    let mut lumen = (*grid).clone();
    for i in 0..lumen.len() {
        if lumen.cells()[i] == CellType::Wall {
            lumen.set_linear(i, CellType::Bulk);
        }
    }
    group.bench_function("classify_walls_aorta", |b| {
        b.iter(|| {
            let mut g = lumen.clone();
            classify_walls(&mut g);
            g
        })
    });
    // What `plan_aorta`'s prepared run pays: the link average, its own
    // tree and a one-level walk.
    let platform = Platform::csp2();
    group.bench_function("prepared_run_new_aorta_16", |b| {
        b.iter(|| {
            PreparedRun::new(
                &platform,
                &grid,
                &KernelConfig::harvey(),
                16,
                &Overheads::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn predictions(h: &mut Harness) {
    let grid = CylinderSpec::default().with_resolution(16).build();
    let workload = Workload::harvey(&grid, 100);
    let character = characterize(&Platform::csp2(), 7);
    let direct = DirectModel::new(character.clone(), workload.clone());
    let general = GeneralModel::from_characterization(&character, &workload);
    let mut group = h.group("predict");
    group.sample_size(10);
    // The direct model walks the rank count's census (taken once, on the
    // first call); the general model is closed-form — the cost gap is the
    // ablation's "price of accuracy".
    group.bench_function("direct_72", |b| b.iter(|| direct.predict(72).unwrap()));
    group.bench_function("general_72", |b| b.iter(|| general.predict(72)));
    group.finish();
}

fn prepared(h: &mut Harness) {
    let grid = CylinderSpec::default().with_resolution(16).build();
    let workload = Workload::harvey(&grid, 100);
    let platform = Platform::csp2();
    let pin = |comm| {
        PreparedRun::from_census(
            &platform,
            workload.census(72).unwrap(),
            &workload.kernel,
            workload.profile.boundary_point_bytes,
            &Overheads::default(),
            comm,
        )
        .unwrap()
    };
    let mut group = h.group("prepared");
    // What a run pays once — every task's memory and message terms, the
    // critical path over them — against what is left to pay per slice:
    // a noise draw, and under fabric prices one pass over 72 sums.
    group.bench_function("from_census_72", |b| b.iter(|| pin(CommModel::Scalar)));
    let scalar = pin(CommModel::Scalar);
    group.bench_function("run_slice_72", |b| b.iter(|| scalar.run_slice(25_000, 7, 1.5)));
    let routed = pin(CommModel::Routed(TopologyVariant::FatTree));
    let fabric = build_topology(&platform, TopologyVariant::FatTree, routed.nodes());
    let priced = routed_set_comm(&fabric, &[(&routed, &[0, 1])]).remove(0);
    group.bench_function("run_slice_priced_72", |b| {
        b.iter(|| routed.run_slice_priced(25_000, 7, 1.5, &priced))
    });
    group.finish();
}

fn fabric(h: &mut Harness) {
    // One co-scheduled set on each of `campaign_routed`'s two pools,
    // twin runs on interleaved nodes as lowest-free-first allocation
    // hands them out, priced with one exchange. The spread row is the
    // size of that campaign's big sets (728 flows in 348 classes; a run's
    // 91 exchanges, 83 sets and 8 isolated builds, average 421 flows in
    // 180 classes over 828 instants) on a pool the twins fill (2 × 7
    // nodes); the fat-tree row is its second pool (CSP-2 EC ×16, 36
    // cores a node), where a 72-rank run spans two nodes of one leaf.
    let grid = CylinderSpec::default().with_resolution(8).build();
    let workload = Workload::harvey(&grid, 100);
    let mut group = h.group("fabric");
    let sets = [
        ("set_exchange_2x56", Platform::csp2_small(), 56, TopologyVariant::Spread, 14),
        ("set_exchange_2x72_fat_tree", Platform::csp2_ec(), 72, TopologyVariant::FatTree, 16),
    ];
    for (name, platform, ranks, variant, pool_nodes) in sets {
        let run = PreparedRun::from_census(
            &platform,
            workload.census(ranks).unwrap(),
            &workload.kernel,
            workload.profile.boundary_point_bytes,
            &Overheads::default(),
            CommModel::Routed(variant),
        )
        .unwrap();
        let nodes = run.nodes();
        let pool = build_topology(&platform, variant, pool_nodes);
        let own: Vec<usize> = (0..nodes).map(|i| 2 * i).collect();
        let twin: Vec<usize> = (0..nodes).map(|i| 2 * i + 1).collect();
        let flows = run.flows(&own, 0).len() + run.flows(&twin, 1 << 32).len();
        group.throughput(Throughput::Elements(flows as u64));
        group.bench_function(name, |b| {
            b.iter(|| routed_set_comm(&pool, &[(&run, &own), (&run, &twin)]))
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::from_args();
    fitting(&mut h);
    characterization(&mut h);
    decomposition(&mut h);
    sparse_decomposition(&mut h);
    dense_decomposition(&mut h);
    predictions(&mut h);
    prepared(&mut h);
    fabric(&mut h);
}
