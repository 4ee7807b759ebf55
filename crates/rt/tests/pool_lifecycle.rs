//! Lifecycle tests of the persistent worker pool: serial equivalence
//! across worker counts, reuse without respawning, and panic recovery.

use hemocloud_rt::pool::{self, Pool};

/// One job at the pool's full width: item `i` owns slot `i` and applies
/// `f` to it.
fn map_in_place<T: Copy + Send>(pool: &Pool, data: &mut [T], f: impl Fn(usize, T) -> T + Sync) {
    let n = data.len();
    pool.par_owner_mut_workers(data, n, pool.threads(), |items, view| {
        for i in items {
            // SAFETY: item `i` owns exactly slot `i < n`.
            unsafe { view.write(i, f(i, view.read(i))) };
        }
    });
}

#[test]
fn pool_is_reused_across_many_jobs_without_respawning() {
    let pool = Pool::new(3);
    let spawned_at_birth = pool.spawned_threads();
    assert_eq!(spawned_at_birth, 2);

    let mut data = vec![0u64; 1024];
    for _ in 0..120 {
        map_in_place(&pool, &mut data, |_, v| v + 1);
    }
    assert!(data.iter().all(|&v| v == 120), "a job lost updates");
    assert_eq!(
        pool.spawned_threads(),
        spawned_at_birth,
        "pool respawned threads across jobs"
    );
    assert_eq!(pool.jobs_run(), 120);
}

#[test]
fn run_panic_propagates_and_pool_survives() {
    // `Pool::run` called directly, as the STREAM microbenchmark does.
    let pool = Pool::new(4);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(8, &|run| {
            if run == 7 {
                panic!("boom in the last run");
            }
        });
    }));
    assert!(result.is_err(), "panic did not propagate to the caller");

    // The pool must stay fully usable after the panic drained.
    let mut data = vec![1u32; 512];
    map_in_place(&pool, &mut data, |_, v| v * 3);
    assert!(data.iter().all(|&v| v == 3), "pool unusable after a panic");
    assert_eq!(
        pool.spawned_threads(),
        3,
        "panic recovery must not respawn workers"
    );
}

#[test]
fn width_one_pool_runs_every_job_inline_on_the_caller() {
    let pool = Pool::new(1);
    assert_eq!(pool.spawned_threads(), 0);
    let caller = std::thread::current().id();
    // More runs than threads: all eight execute, in order, on the caller.
    let seen = std::sync::Mutex::new(Vec::new());
    pool.run(8, &|run| {
        assert_eq!(std::thread::current().id(), caller);
        seen.lock().unwrap().push(run);
    });
    assert_eq!(seen.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    assert_eq!(pool.jobs_run(), 1);
    // At the pool's own width the parallel-for does not even submit a job.
    let mut data = vec![0u64; 17];
    map_in_place(&pool, &mut data, |i, _| i as u64);
    assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    assert_eq!(pool.jobs_run(), 1);
}

#[test]
fn owner_mut_panic_propagates_and_pool_survives() {
    let pool = Pool::new(4);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut data = vec![0u8; 64];
        pool.par_owner_mut_workers(&mut data, 64, 8, |items, _| {
            if items.contains(&63) {
                panic!("boom in owner tail");
            }
        });
    }));
    assert!(result.is_err(), "panic did not propagate to the caller");

    // The pool must stay fully usable afterwards.
    let mut data = vec![1u32; 512];
    map_in_place(&pool, &mut data, |_, v| v * 3);
    assert!(data.iter().all(|&v| v == 3), "pool unusable after a panic");
    assert_eq!(pool.spawned_threads(), 3, "panic recovery must not respawn workers");
}

#[test]
fn owner_mut_is_bit_identical_across_worker_counts() {
    // The determinism contract the AA solver relies on: ascending item
    // order within runs + disjoint slot sets => serial-identical floats.
    let n = 5000;
    let stride_work = |items: std::ops::Range<usize>, view: &pool::DisjointMut<'_, f64>| {
        for i in items {
            // Item i owns slots {i, n + (i*31 % n)}: one dense, one
            // scattered lane (31 is coprime with 5000, so the scattered
            // lane is a permutation and the sets stay disjoint).
            let dense = (i as f64 * 0.37).sin();
            unsafe { view.write(i, dense) };
            unsafe { view.write(n + (i * 31 % n), dense * 0.5 + 1.0) };
        }
    };
    let mut serial = vec![0.0f64; 2 * n];
    {
        let view = pool::DisjointMut::new(&mut serial);
        stride_work(0..n, &view);
    }
    let p = Pool::new(4);
    for workers in [1usize, 2, 3, 8] {
        let mut parallel = vec![0.0f64; 2 * n];
        p.par_owner_mut_workers(&mut parallel, n, workers, stride_work);
        assert_eq!(serial, parallel, "diverged at {workers} workers");
    }
}

#[test]
fn global_pool_spawns_are_bounded_for_a_whole_run() {
    let pool = pool::global();
    let spawned = pool.spawned_threads();
    assert!(spawned < pool.threads(), "background workers exclude the caller");
    let mut data = vec![0.0f64; 4096];
    for _ in 0..150 {
        map_in_place(pool, &mut data, |i, v| v + i as f64);
    }
    assert_eq!(
        pool.spawned_threads(),
        spawned,
        "global pool spawned threads while running jobs"
    );
}
