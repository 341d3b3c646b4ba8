//! Deterministic-interleaving stress tests for the metrics primitives:
//! seeded schedules, yield-injection at pseudorandom points, and exact
//! totals once every writer has joined.
//!
//! These tests pin down the contract that matters: a *quiescent* counter
//! reads the precise total, under any interleaving and however many
//! threads write it.

use bp_obs::{Counter, Gauge};
use std::sync::Arc;

/// A splitmix-style PRNG: deterministic per seed, no global state, so a
/// failing schedule is reproducible from its seed alone.
struct Schedule(u64);

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Yields at seed-determined points to perturb the interleaving.
    fn maybe_yield(&mut self) {
        if self.next().is_multiple_of(8) {
            std::thread::yield_now();
        }
    }
}

#[test]
fn quiescent_counter_total_is_exact_for_seeded_mixed_adds() {
    for seed in [1u64, 7, 42] {
        let counter = Arc::new(Counter::default());
        let mut writers = Vec::new();
        for thread in 0..8u64 {
            let counter = Arc::clone(&counter);
            writers.push(std::thread::spawn(move || {
                let mut schedule = Schedule::new(seed * 1013 + thread);
                let mut local = 0u64;
                for _ in 0..10_000 {
                    let amount = schedule.next() % 7;
                    counter.add(amount);
                    local += amount;
                    schedule.maybe_yield();
                }
                local
            }));
        }
        let expected: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(counter.get(), expected, "seed {seed}");
    }
}

#[test]
fn counter_stays_exact_with_many_contending_writers() {
    // 48 writers on one atomic: contention must not lose increments.
    let counter = Arc::new(Counter::default());
    let writers: Vec<_> = (0..48u64)
        .map(|thread| {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut schedule = Schedule::new(0x5eed + thread);
                for _ in 0..2_000 {
                    counter.inc();
                    schedule.maybe_yield();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(counter.get(), 48 * 2_000);
}

#[test]
fn gauge_balanced_add_sub_returns_to_zero() {
    let gauge = Arc::new(Gauge::default());
    let writers: Vec<_> = (0..8u64)
        .map(|thread| {
            let gauge = Arc::clone(&gauge);
            std::thread::spawn(move || {
                let mut schedule = Schedule::new(31 * thread + 5);
                for _ in 0..5_000 {
                    let n = (schedule.next() % 9) as i64;
                    gauge.add(n);
                    schedule.maybe_yield();
                    gauge.sub(n);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(gauge.get(), 0);
}
