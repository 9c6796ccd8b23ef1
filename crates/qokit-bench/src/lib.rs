//! # qokit-bench
//!
//! Benchmark harness regenerating every figure and table of *Fast
//! Simulation of High-Depth QAOA Circuits* (SC 2023). One binary per
//! artifact (see `src/bin/`); each prints the same rows/series the paper
//! reports, sized for the current machine.
//!
//! Environment knobs:
//! * `QOKIT_BENCH_N` — overrides the largest qubit count benchmarked.
//! * `QOKIT_BENCH_FAST=1` — shrinks every sweep for smoke-testing.
//! * `QOKIT_BENCH_JSON` — output path for machine-readable results
//!   (`abl_threads` defaults to `BENCH_threads.json`, `abl_sweep` to
//!   `BENCH_sweep.json`).
//! * `QOKIT_ABL_ASSERT=1` — makes `abl_threads` exit non-zero when the
//!   parallel backend is slower than 0.8× serial, and `abl_sweep` when the
//!   points-parallel energies differ from the sequential loop's bits or
//!   the best batched mode (points-parallel or kernels-parallel) is slower
//!   than 0.9× the sequential loop (the CI guards).
//!
//! The `schema_check` binary validates emitted `BENCH_*.json` files (see
//! [`schema`]); CI runs it after each `abl_*` step before uploading the
//! records as artifacts.

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod schema;

use std::time::Instant;

/// Largest qubit count for a benchmark (`QOKIT_BENCH_N` override).
pub fn bench_n(default: usize) -> usize {
    std::env::var("QOKIT_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` when `QOKIT_BENCH_FAST=1`: shrink sweeps for smoke tests.
pub fn fast_mode() -> bool {
    std::env::var("QOKIT_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Times `f` once (seconds).
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median wall time of `reps` runs of `f` (seconds). Uses fewer reps when
/// a single run is already slow, so tables finish in bounded time.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let first = time_once(&mut f);
    // One run ≥ 1 s: don't repeat a slow measurement.
    if first >= 1.0 || reps <= 1 {
        return first;
    }
    let mut times = vec![first];
    for _ in 1..reps {
        times.push(time_once(&mut f));
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Pretty-prints a duration in engineering units.
pub fn fmt_time(s: f64) -> String {
    if s < 0.0 {
        return "-".into();
    }
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} s", s)
    }
}

/// Prints a header followed by aligned rows (first column left-aligned,
/// the rest right-aligned, 16 chars wide).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut line = format!("{:<8}", header[0]);
    for h in &header[1..] {
        line.push_str(&format!("{h:>16}"));
    }
    println!("{line}");
    for row in rows {
        let mut line = format!("{:<8}", row[0]);
        for c in &row[1..] {
            line.push_str(&format!("{c:>16}"));
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert!(fmt_time(3.2e-9).ends_with("ns"));
        assert!(fmt_time(4.5e-5).ends_with("µs"));
        assert!(fmt_time(0.012).ends_with("ms"));
        assert!(fmt_time(2.0).ends_with(" s"));
    }

    #[test]
    fn time_median_is_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn bench_n_defaults() {
        let v = bench_n(17);
        assert!(v >= 1);
    }
}
