//! Sharing is counted, not assumed: one `repro all` pass at smoke size
//! takes each distinct (workload, rank count) census the table requests
//! exactly once. One test in its own binary — the `decomp` counters are
//! process-wide. (The fifteen binaries this replaced took 440 censuses
//! over 342 RCB trees for the same rows.)

use hemocloud_bench::experiments::{CSP2_RANKS, EXPERIMENTS, SCALING_RANKS};
use hemocloud_bench::repro::{run, Lab};
use hemocloud_decomp::census::CALIBRATION_COUNTS;
use hemocloud_decomp::censuses;

/// Censuses one workload takes when asked for `rank_lists`: a request for
/// any calibration count (and every model fit) fills all nine from one
/// tree; every other distinct count costs one.
fn taken(rank_lists: &[&[usize]]) -> u64 {
    let mut off_grid: Vec<usize> = rank_lists.concat();
    off_grid.retain(|r| !CALIBRATION_COUNTS.contains(r));
    off_grid.sort_unstable();
    off_grid.dedup();
    (CALIBRATION_COUNTS.len() + off_grid.len()) as u64
}

#[test]
fn one_repro_pass_takes_each_requested_census_once() {
    let (scaling, csp2) = (&SCALING_RANKS[..], &CSP2_RANKS[..]);
    // HARVEY on the three evaluation grids (Figs. 3 and 7; on the smoke
    // grids Figs. 9-11, Table IV and the ablations read the same three).
    let expected = 3 * taken(&[scaling, csp2])
        + 2 * taken(&[scaling, csp2]) // proxy SoA unrolled, AA and AB: Figs. 4 and 8
        + 2 * taken(&[scaling]) // proxy AoS, AA and AB: Fig. 4
        + 2 * taken(&[csp2]) // proxy SoA rolled, AA and AB: Fig. 8
        + 2; // ablation 4's block and slab baselines, which no workload owns
    assert_eq!(expected, 125);

    let lab = Lab::new(true);
    run(&lab, &EXPERIMENTS);
    assert_eq!(censuses().get(), expected);
    // A second pass re-reads every census; only the two baselines are
    // analysed again.
    run(&lab, &EXPERIMENTS);
    assert_eq!(censuses().get(), expected + 2);
}
