//! The census under concurrent readers. One test in its own binary: it
//! reads the process-wide `decomp` counters, which any other test in the
//! same process would move.

use hemocloud_decomp::census::{Census, CensusEntry};
use hemocloud_decomp::rcb::RcbError;
use hemocloud_decomp::{census_walks, censuses, rcb_trees};
use hemocloud_geometry::anatomy::CylinderSpec;
use hemocloud_rt::pool::Pool;
use std::sync::{Arc, Barrier, Mutex};

type Answer = Result<Arc<CensusEntry>, RcbError>;

const WORKERS: usize = 4;
/// Calibration counts (one shared tree), two counts with trees of their
/// own, a repeat, and one the grid cannot host.
const QUERIES: [usize; 7] = [64, 6, 16, 36, 256, 6, 1 << 30];

fn same_entry(a: &CensusEntry, b: &CensusEntry) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.analysis.points_per_task == b.analysis.points_per_task
        && a.analysis.boundary_points_per_task == b.analysis.boundary_points_per_task
        && a.analysis.messages == b.analysis.messages
        && a.analysis.total_points == b.analysis.total_points
        && bits(&a.task_bytes) == bits(&b.task_bytes)
}

#[test]
fn concurrent_queries_fill_each_slot_once_with_the_serial_answer() {
    let grid = Arc::new(CylinderSpec::default().with_resolution(10).build());
    let (bulk, wall) = (380.5, 301.25);
    let serial = Census::new(Arc::clone(&grid), bulk, wall);
    let expect: Vec<_> = QUERIES.iter().map(|&n| serial.entry(n)).collect();
    let counts = || (rcb_trees().get(), censuses().get(), census_walks().get());
    // Nine calibration entries from one tree in one walk, plus 6 and 36.
    assert_eq!(counts(), (3, 11, 3));

    let shared = Census::new(grid, bulk, wall);
    let pool = Pool::new(WORKERS);
    let start = Barrier::new(WORKERS);
    let seen: Vec<Mutex<Vec<Answer>>> = (0..WORKERS).map(|_| Mutex::default()).collect();
    pool.run(WORKERS, &|worker| {
        // Every worker is inside the closure before any of them asks, and
        // each starts at a different query.
        start.wait();
        let mut mine = vec![None; QUERIES.len()];
        for i in 0..QUERIES.len() {
            let q = (i + worker) % QUERIES.len();
            mine[q] = Some(shared.entry(QUERIES[q]));
        }
        *seen[worker].lock().unwrap() = mine.into_iter().flatten().collect();
    });

    assert_eq!(counts(), (6, 22, 6), "a tree or a slot was rebuilt");
    let first = seen[0].lock().unwrap().clone();
    for (q, (got, want)) in first.iter().zip(&expect).enumerate() {
        match (got, want) {
            (Ok(got), Ok(want)) => assert!(same_entry(got, want), "query {}", QUERIES[q]),
            (got, want) => assert_eq!(got.as_ref().err(), want.as_ref().err()),
        }
    }
    for other in &seen[1..] {
        for (a, b) in other.lock().unwrap().iter().zip(&first) {
            match (a, b) {
                (Ok(a), Ok(b)) => assert!(Arc::ptr_eq(a, b), "workers hold different entries"),
                (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err()),
            }
        }
    }
}
