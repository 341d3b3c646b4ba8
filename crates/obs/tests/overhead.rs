//! Micro-measurement of the tracing layer's per-operation overhead —
//! the numbers quoted in EXPERIMENTS.md § E10. Ignored by default
//! (timing assertions are meaningless on shared CI hardware); run with:
//!
//! ```sh
//! cargo test -p bp-obs --release --test overhead -- --ignored --nocapture
//! ```

use std::hint::black_box;

use bp_obs::trace::{Explain, Work};
use bp_obs::{sampler, trace, ClockHandle, Obs};
use std::time::Duration;

/// Wall-clock a closure and return its mean per-iteration cost in ns.
fn per_op_ns(iters: u64, f: impl FnOnce()) -> f64 {
    let clock = ClockHandle::real();
    let watch = clock.start();
    f();
    watch.elapsed().as_nanos() as f64 / iters as f64
}

#[test]
#[ignore = "micro-benchmark: run explicitly with --ignored --nocapture"]
fn tracing_per_op_costs() {
    const N: u64 = 10_000_000;
    let obs = Obs::isolated();
    let hist = obs.registry().histogram("bench.overhead.latency_us");
    let clock = ClockHandle::real();

    // Span creation with collection off: the claimed cost is one relaxed
    // atomic load (the ENABLED check) plus guard construction.
    trace::set_enabled(false);
    let span_disabled = per_op_ns(N, || {
        for i in 0..N {
            black_box(trace::span("bench"));
            black_box(i);
        }
    });

    // A collected stage: its span opens under a query's root span and
    // closes with its EXPLAIN accounting. Roots of 64 stages each are
    // drained as they finish, so the cost includes draining. The query's
    // two clock readings per stage are not part of it.
    const STAGES: u64 = 64;
    trace::set_enabled(true);
    let stage_collected = per_op_ns(N, || {
        for i in 0..N / STAGES {
            let root = trace::span("bench.query");
            for j in 0..STAGES {
                let stage = trace::span("bench.stage");
                let work = Work {
                    rows_in: black_box(i),
                    rows_out: black_box(j),
                    ..Work::default()
                };
                stage.finish_with(Duration::from_micros(j), Explain::Stage(work));
            }
            root.finish_with(Duration::from_micros(i), Explain::None);
            black_box(trace::take_roots());
        }
    });
    trace::set_enabled(false);

    // Histogram record with no trace context: the pre-existing cost.
    let record_plain = per_op_ns(N, || {
        for i in 0..N {
            hist.record(black_box(i % 4096));
        }
    });

    // Histogram record under an active context: adds the thread-local
    // read plus two relaxed stores (the exemplar id/value slots).
    let record_exemplar = {
        let _ctx = trace::enter_new(&clock);
        per_op_ns(N, || {
            for i in 0..N {
                hist.record(black_box(i % 4096));
            }
        })
    };

    // Context mint at an entry point: clock read + splitmix64 + two
    // thread-local operations (install now, restore at drop).
    const M: u64 = 1_000_000;
    let mint = per_op_ns(M, || {
        for i in 0..M {
            black_box(trace::enter_new(&clock));
            black_box(i);
        }
    });

    // Tail-sampler offer, both verdicts. Per *request*, not per span.
    let tail = sampler::TailSampler::new(&obs, 16, 256);
    let offer = |id: u64| sampler::TraceRecord {
        trace_id: id,
        path: "bench",
        elapsed_us: 500,
        outcome: sampler::TraceOutcome::Ok,
        unix_ms: 0,
        tree: None,
    };
    // id % 16 != 0 → dropped: one counter bump, no lock.
    let offer_dropped = per_op_ns(M, || {
        for i in 0..M {
            black_box(tail.offer(offer(black_box(16 * i + 1))));
        }
    });
    // id % 16 == 0 → kept: ring push under the mutex, evicting oldest.
    let offer_kept = per_op_ns(M, || {
        for i in 0..M {
            black_box(tail.offer(offer(black_box(16 * (i + 1)))));
        }
    });

    println!("span() with collection off  : {span_disabled:7.2} ns/op");
    println!("collected stage             : {stage_collected:7.2} ns/op");
    println!("histogram record, no context: {record_plain:7.2} ns/op");
    println!("histogram record + exemplar : {record_exemplar:7.2} ns/op");
    println!("context mint (enter_new)    : {mint:7.2} ns/op");
    println!("sampler offer, dropped      : {offer_dropped:7.2} ns/op");
    println!("sampler offer, kept         : {offer_kept:7.2} ns/op");

    // Generous sanity bounds — catches an accidental syscall or lock on
    // the hot paths, not hardware variance.
    assert!(span_disabled < 1_000.0);
    assert!(stage_collected < 10_000.0);
    assert!(record_exemplar < record_plain + 1_000.0);
    assert!(mint < 10_000.0);
    assert!(offer_dropped < 1_000.0);
}
