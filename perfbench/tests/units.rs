//! Pins the units the benchmark reports in: queries (never round trips),
//! per-query latency, CPU time (not wall time), span self time, and the
//! result line's shape.

use psh_perfbench::cpu;
use psh_perfbench::report::Outcome;
use psh_perfbench::stats::QueryLog;
use psh_perfbench::trace::{self_times, Span};

#[test]
fn a_k_pair_batch_adds_k_to_throughput() {
    let mut log = QueryLog::default();
    log.record_trip(32, 4.0);
    log.record_trip(1, 2.0);
    assert_eq!(log.answered, 33);
    // 33 queries in one second is 33 queries per second, not 2 trips
    assert_eq!(log.qps(1.0), 33.0);
}

#[test]
fn latency_is_per_query_not_per_trip() {
    let mut log = QueryLog::default();
    log.record_trip(32, 4.0);
    log.record_trip(1, 2.0);
    // every query of the batch waited the whole trip
    assert_eq!(log.latencies_ms.len(), 33);
    assert_eq!(log.p50_ms(), 4.0);
    let mut other = QueryLog::default();
    other.record_trip(3, 1.0);
    log.merge(other);
    assert_eq!((log.answered, log.latencies_ms.len()), (36, 36));
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s",
        key: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // parent 0..100, two overlapping children 10..50 and 30..70, one
    // child sticking out past the parent's end 90..120
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 50),
        span(3, 1, 30, 70),
        span(4, 1, 90, 120),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 60 - 10);
    assert_eq!(selfs[&2], 40);
    assert_eq!(selfs[&4], 30);
}

#[test]
fn result_line_has_the_four_keys() {
    let mut out = Outcome::default();
    out.check(true, || unreachable!());
    out.metric("p50_ms", "ms", 1.25);
    out.metric("peak_bytes", "bytes", 1024.0);
    assert_eq!(
        out.to_json(),
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
         \"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
         \"peak_bytes\": {\"value\": 1024.0, \"unit\": \"bytes\"}}}"
    );
    out.check(false, || "wrong answer".into());
    assert!(!out.correct());
    assert_eq!(out.correct_frac(), 0.5);
}

#[test]
fn cpu_clocks_count_work_not_waiting() {
    let (t0, p0) = (cpu::thread_s(), cpu::process_s());
    std::thread::sleep(std::time::Duration::from_millis(200));
    let slept = cpu::thread_s() - t0;
    assert!(slept < 0.05, "a sleeping thread used {slept} s of CPU");
    let start = std::time::Instant::now();
    let mut x = 1u64;
    while start.elapsed().as_millis() < 100 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let busy = cpu::thread_s() - t0 - slept;
    assert!(busy > 0.02, "a busy thread used only {busy} s of CPU");
    // the process clock covers every thread, this one included
    assert!(cpu::process_s() - p0 >= busy);
}
