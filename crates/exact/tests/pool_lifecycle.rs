//! Lifecycle regression tests for the persistent exact worker pool.
//!
//! The pool exists to amortize thread-spawn cost across inverts, so these
//! tests pin the behaviours that make that true: lazy spawn, a spawn counter
//! that stays flat across repeated regions, live resize via the watermark,
//! and join-on-drop with no leaked threads — asserted the same
//! deadline-bounded way the catalogue's `MonitorHandle` shutdown tests are.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use mathcloud_exact::parallel::Pool;
use mathcloud_exact::{hilbert, set_threads, InvertStrategy, Matrix};

fn region(pool: &Pool, tasks: usize, counter: &AtomicUsize) {
    let boxed: Vec<Box<dyn FnOnce() + Send + '_>> = (0..tasks)
        .map(|_| {
            Box::new(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(boxed);
}

#[test]
fn workers_spawn_lazily_and_are_reused_across_regions() {
    let pool = Pool::new(3);
    assert_eq!(pool.spawned_total(), 0, "construction must not spawn");
    assert_eq!(pool.live_workers(), 0);

    let counter = AtomicUsize::new(0);
    region(&pool, 4, &counter);
    assert_eq!(counter.load(Ordering::SeqCst), 4);
    let after_first = pool.spawned_total();
    assert!(after_first <= 3, "spawn bounded by watermark");

    // Steady state: a hundred more regions must not move the spawn counter.
    for _ in 0..100 {
        region(&pool, 4, &counter);
    }
    assert_eq!(counter.load(Ordering::SeqCst), 4 + 100 * 4);
    assert_eq!(
        pool.spawned_total(),
        after_first,
        "persistent pool must not re-spawn per region"
    );
}

#[test]
fn resize_retires_surplus_workers_and_grows_back_lazily() {
    let pool = Pool::new(4);
    let counter = AtomicUsize::new(0);
    region(&pool, 8, &counter);
    let spawned = pool.spawned_total();
    assert!((1..=4).contains(&spawned));

    // Shrink: surplus workers must retire once idle.
    pool.resize(1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.live_workers() > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "workers failed to retire after shrink: live={}",
            pool.live_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Grow back: the watermark rises, but spawning stays lazy until a
    // region actually needs the extra lanes.
    pool.resize(4);
    let live_before = pool.live_workers();
    assert!(live_before <= 1);
    region(&pool, 8, &counter);
    assert!(
        pool.spawned_total() > spawned,
        "grow-after-shrink re-spawns"
    );
    assert!(pool.live_workers() <= 4);
}

#[test]
fn drop_joins_all_workers_without_leaks() {
    // Run the drop on a helper thread and bound it with a deadline so a
    // leaked or deadlocked worker fails the test instead of hanging CI.
    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        let boxed: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(boxed);
        let spawned = pool.spawned_total();
        drop(pool); // joins every worker ever spawned
        tx.send(spawned).expect("report spawn count");
    });
    let spawned = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("Pool::drop must join workers promptly, not leak them");
    assert!(spawned <= 3);
    joiner.join().expect("joiner thread");
}

#[test]
fn global_pool_survives_repeated_inverts_without_respawning() {
    // Pin the thread count so the global pool's watermark is deterministic,
    // then drive real work through it: the spawn counter may move on the
    // first parallel region but must stay flat afterwards.
    set_threads(4);
    let pool = mathcloud_exact::parallel::pool();

    // Warm with a product big enough to clear the parallel-ops gate, so the
    // global pool spawns whatever it will ever need at this watermark.
    let big = Matrix::from_fn(40, 40, |i, j| {
        mathcloud_exact::Rational::from_ratio((i * 41 + j + 1) as i64, (j + 1) as i64)
    });
    let serial = big.mul_threads(&big, 1);
    assert_eq!(big.mul_threads(&big, 4), serial);
    let warm = pool.spawned_total();
    assert!(warm >= 1, "warm-up region must use the global pool");

    // Repeated inverts under every strategy, plus more parallel products:
    // all reuse the parked workers.
    let h = hilbert(12);
    let expected = h.inverse_serial().expect("nonsingular");
    for strategy in [
        InvertStrategy::Auto,
        InvertStrategy::GaussJordan,
        InvertStrategy::Bareiss,
    ] {
        for _ in 0..5 {
            assert_eq!(h.invert(strategy, 4).expect("nonsingular"), expected);
        }
    }
    for _ in 0..5 {
        assert_eq!(big.mul_threads(&big, 4), serial);
    }

    assert_eq!(
        pool.spawned_total(),
        warm,
        "repeated inverts must reuse the persistent pool's workers"
    );
    set_threads(0);
}
