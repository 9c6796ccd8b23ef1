//! Batch-sharded landscape-scan ablation — throughput (points/sec) of
//! `DistSweepRunner` against a serial `SweepRunner::scan_into`.
//!
//! The paper's amortization argument peaks here: one `2^n` precompute,
//! then a `≥2^20`-point `(γ, β)` grid evaluated through it. This measures
//! the batch-sharded BSP layer built for that scale — K in-process ranks
//! sharing the one precomputed diagonal, each owning a contiguous slice of
//! the grid, chunked supersteps, per-rank streaming `LandscapeAggregator`s
//! merged in rank order — against the library's own single-runner path: a
//! serial `SweepRunner::scan_into` over the same lazily generated grid with
//! the same chunk size, evaluating on the same split planes. Neither side
//! ever materializes a full energy vector.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_landscape.json` (override the path with `QOKIT_BENCH_JSON`);
//! the schema is validated by the `schema_check` binary in CI.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless the best
//! rank count reaches at least 0.9× the serial scan's throughput — the CI
//! guard that sharding never *costs* performance (real speedup requires
//! more than one core; `hw_threads` in the JSON records the context) —
//! or a scan's argmin disagrees with the serial reference.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::batch::{SweepOptions, SweepRunner};
use qokit_core::landscape::LandscapeAggregator;
use qokit_core::{FurSimulator, SimOptions};
use qokit_dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d, PointSource};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;
use std::io::Write;
use std::sync::Arc;

fn main() {
    let n = bench_n(8);
    // 2^20 points in full mode — the production scan scale; 2^12 for
    // smoke runs.
    let steps = if fast_mode() { 64 } else { 1024 };
    let reps = if fast_mode() { 2 } else { 3 };
    let chunk = 4096;
    let top_k = 16;
    let poly = labs_terms(n);
    let grid = Grid2d::new(Axis::new(-0.6, 0.6, steps), Axis::new(-0.6, 0.6, steps));
    let points = grid.len();
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let width = rayon::current_num_threads().max(1);

    // Serial baseline: the same scan through one serial SweepRunner —
    // serial kernels on split planes, one chunk buffer, one running
    // aggregator.
    let serial = SweepRunner::with_options(
        FurSimulator::with_options(
            &poly,
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        ),
        SweepOptions {
            exec: ExecPolicy::serial(),
            ..SweepOptions::default()
        },
    );
    let mut seq_agg = LandscapeAggregator::new(top_k);
    let t_seq = time_median(reps, || {
        seq_agg = LandscapeAggregator::new(top_k);
        serial
            .scan_into((0..points).map(|i| grid.point(i)), chunk, &mut seq_agg)
            .expect("serial scan");
    });
    let seq_pps = points as f64 / t_seq;

    let mut rows = vec![vec![
        "serial".to_string(),
        fmt_time(t_seq),
        format!("{seq_pps:.2}"),
        "1.00x".to_string(),
    ]];
    let mut records = Vec::new();
    let mut best_speedup = 0.0f64;
    let mut argmin_ok = true;
    for ranks in [1usize, 2, 4] {
        let runner = DistSweepRunner::with_options(
            Arc::new(FurSimulator::new(&poly)),
            DistSweepOptions {
                ranks,
                sweep: SweepOptions {
                    exec: ExecPolicy::rayon(),
                    ..SweepOptions::default()
                },
                chunk,
            },
        );
        let mut scan = None;
        let t = time_median(reps, || {
            scan = Some(runner.scan(&grid, LandscapeAggregator::new(top_k)));
        });
        let scan = scan.unwrap();
        let pps = points as f64 / t;
        let speedup = t_seq / t;
        best_speedup = best_speedup.max(speedup);
        // Sharding must not move the minimum: selection aggregates are
        // order-independent, so argmin is comparable across all modes.
        if scan.agg.argmin() != seq_agg.argmin() {
            eprintln!(
                "WARNING: K = {ranks} argmin {:?} != sequential {:?}",
                scan.agg.argmin(),
                seq_agg.argmin()
            );
            argmin_ok = false;
        }
        rows.push(vec![
            format!("K={ranks}"),
            fmt_time(t),
            format!("{pps:.2}"),
            format!("{speedup:.2}x"),
        ]);
        records.push(format!(
            "    {{\"ranks\": {ranks}, \"seconds\": {t:.6e}, \"points_per_sec\": {pps:.4}, \"speedup_vs_sequential\": {speedup:.4}}}"
        ));
    }
    print_table(
        &format!(
            "Landscape scan, LABS n = {n}, {steps}x{steps} grid = {points} points \
             ({width}-worker pool, {hw} hw threads, chunk {chunk}, top-{top_k})"
        ),
        &["ranks", "scan", "points/sec", "speedup"],
        &rows,
    );
    println!(
        "\n(each rank owns a contiguous slice of the batch — not the state — and streams\n it through a SweepRunner over the shared diagonal into an O(top-k) aggregator;\n no mode ever holds {points} energies. Expect near-linear scaling with cores;\n ~1.0x on a single-core box.)"
    );

    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_landscape.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_landscape\",\n  \"n_qubits\": {n},\n  \"p\": 1,\n  \"points\": {points},\n  \"grid_steps\": {steps},\n  \"hw_threads\": {hw},\n  \"pool_width\": {width},\n  \"reps\": {reps},\n  \"chunk\": {chunk},\n  \"top_k\": {top_k},\n  \"sequential_seconds\": {t_seq:.6e},\n  \"sequential_points_per_sec\": {seq_pps:.4},\n  \"best_speedup\": {best_speedup:.4},\n  \"ranks\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        if !argmin_ok {
            eprintln!("ASSERT FAILED: a sharded scan moved the argmin");
            std::process::exit(1);
        }
        // CI gate: the best rank count must never fall below 0.9x the
        // serial scan_into baseline (speedup beyond 1.0x needs >1 core).
        if best_speedup < 0.9 {
            eprintln!("ASSERT FAILED: best sharded speedup {best_speedup:.2}x < 0.9x sequential");
            std::process::exit(1);
        }
        println!("assert ok: best sharded speedup {best_speedup:.2}x >= 0.9x sequential");
    }
}
