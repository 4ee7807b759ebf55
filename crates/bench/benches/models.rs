//! Benches of the modeling pipeline itself (`hemocloud_rt::bench`): how
//! expensive are characterization, fitting, decomposition analysis and
//! the two prediction models — and pinning a run to a platform against
//! timing one slice of it, or pricing a co-scheduled set of runs through
//! the fabric? (The dashboard's interactivity depends on the former, a
//! campaign's event rate on the latter two.)

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::stream_bench::{stream_sweep, to_fit_arrays};
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
use hemocloud_fitting::two_line::fit_two_line;
use hemocloud_geometry::anatomy::{CerebralSpec, CylinderSpec};
use hemocloud_rt::bench::{Harness, Throughput};

fn fitting(h: &mut Harness) {
    let platform = Platform::csp2();
    let (ns, bs) = to_fit_arrays(&stream_sweep(&platform, 1));
    h.bench_function("fit/two_line_36pt", |b| {
        b.iter(|| fit_two_line(&ns, &bs).unwrap())
    });

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
    // One co-scheduled set the size of `campaign_routed`'s big ones (728
    // flows in ~350 classes, ~1,500 events): twin 56-rank runs on
    // interleaved nodes of one spread pool, as lowest-free-first
    // allocation hands them out, priced with one exchange.
    let grid = CylinderSpec::default().with_resolution(8).build();
    let workload = Workload::harvey(&grid, 100);
    let platform = Platform::csp2_small();
    let run = PreparedRun::from_census(
        &platform,
        workload.census(56).unwrap(),
        &workload.kernel,
        workload.profile.boundary_point_bytes,
        &Overheads::default(),
        CommModel::Routed(TopologyVariant::Spread),
    )
    .unwrap();
    let nodes = run.nodes();
    let pool = build_topology(&platform, TopologyVariant::Spread, 2 * nodes);
    let own: Vec<usize> = (0..nodes).map(|i| 2 * i).collect();
    let twin: Vec<usize> = (0..nodes).map(|i| 2 * i + 1).collect();
    let flows = run.flows(&own, 0).len() + run.flows(&twin, 1 << 32).len();
    let mut group = h.group("fabric");
    group.throughput(Throughput::Elements(flows as u64));
    group.bench_function("set_exchange_2x56", |b| {
        b.iter(|| routed_set_comm(&pool, &[(&run, &own), (&run, &twin)]))
    });
    group.finish();
}

fn main() {
    let mut h = Harness::from_args();
    fitting(&mut h);
    characterization(&mut h);
    decomposition(&mut h);
    sparse_decomposition(&mut h);
    predictions(&mut h);
    prepared(&mut h);
    fabric(&mut h);
}
