//! The invariant behind the generalized model's speed, counted: whatever
//! sequence of models and dashboards reads one workload, each distinct
//! rank count is decomposed once. One test in its own binary — the
//! `decomp` counters are process-wide.

use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::topology::TopologyVariant;
use hemocloud_core::characterize::characterize_all;
use hemocloud_core::dashboard::{Dashboard, Objective};
use hemocloud_core::direct::DirectModel;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::workload::Workload;
use hemocloud_decomp::{census_walks, censuses, rcb_trees};
use hemocloud_geometry::anatomy::CylinderSpec;

/// Bisection trees built, censuses produced, passes over the grid paid.
fn counts() -> (u64, u64, u64) {
    (rcb_trees().get(), censuses().get(), census_walks().get())
}

#[test]
fn dashboard_pick_and_both_models_decompose_each_rank_count_once() {
    let grid = CylinderSpec::default().with_resolution(12).build();
    let characters = characterize_all(42);
    assert_eq!(characters.len(), 5);

    let workload = Workload::harvey(&grid, 100_000);
    assert_eq!(counts(), (0, 0, 0), "Workload::new must not decompose");

    // 5 platforms x [16, 64, 128] x {FatTree, Spread}: the parent took 90
    // censuses for the five fits and 26 for the routed rows.
    let dashboard = Dashboard::build_routed(
        &characters,
        &workload,
        &[16, 64, 128],
        &PriceSheet::default(),
        &[TopologyVariant::FatTree, TopologyVariant::Spread],
    );
    assert!(dashboard.entries.iter().any(|e| e.topology == "spread"));
    assert_eq!(counts(), (1, 9, 1), "nine counts, one tree, one walk");

    // The pick's own fit and direct prediction (18 + 1 before).
    let pick = dashboard
        .recommend(Objective::MinCost)
        .expect("a cheapest row");
    let character = characters
        .iter()
        .find(|c| c.platform.abbrev == pick.platform)
        .expect("rows come from characterized platforms");
    let _ = GeneralModel::from_characterization(character, &workload);
    let direct = DirectModel::new(character.clone(), workload.clone());
    assert!(direct.predict(pick.ranks).is_some());
    assert!(direct.resident_task_bytes(pick.ranks).is_some());
    assert_eq!(counts(), (1, 9, 1), "the pick re-read the census");

    // Clones and census-scaled copies share it.
    let scaled = workload.scaled(2.0);
    let _ = GeneralModel::from_characterization(character, &scaled);
    assert_eq!(counts(), (1, 9, 1));

    // A count outside the calibration set costs exactly one more of each,
    // once.
    assert!(direct.predict(36).is_some());
    assert_eq!(counts(), (2, 10, 2));
    assert!(direct.predict(36).is_some());
    assert!(scaled.census(36).is_ok());
    assert_eq!(counts(), (2, 10, 2));

    // Infeasible counts are an error, not a decomposition.
    assert!(workload.census(0).is_err());
    assert!(workload.census(1 << 40).is_err());
    assert_eq!(counts(), (2, 10, 2));

    // A second workload on the same grid starts cold.
    let other = Workload::harvey(&grid, 5);
    assert!(other.census(64).is_ok());
    assert_eq!(counts(), (3, 19, 3));
}
