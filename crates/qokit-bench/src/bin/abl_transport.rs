//! Transport ablation — what leaving the process costs.
//!
//! The batch-sharded landscape scan runs over both [`Transport`] impls:
//! the in-process pool (ranks as worker-pool tasks, zero wire bytes) and
//! spawned worker processes over loopback TCP (every chunk of `(γ, β)`
//! points ships out as a checksummed frame and `Vec<f64>` energies come
//! back). Both route through the same worker dispatch, so the merged
//! aggregates are bit-identical — this measures the serialization +
//! syscall overhead the BSP layer pays for real process isolation, and
//! records the actual framed traffic.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_transport.json` (override the path with `QOKIT_BENCH_JSON`);
//! the schema is validated by the `schema_check` binary in CI.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless every
//! transport/rank combination reproduces the aggregate bits of
//! `DistSweepRunner::scan` (whose in-process ranks share the runner's
//! precomputed diagonal instead of rebuilding it from a `SweepInit`) and
//! the TCP runs moved a nonzero number of wire bytes.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::batch::{SweepNesting, SweepOptions};
use qokit_core::landscape::LandscapeAggregator;
use qokit_core::{FurSimulator, SimOptions};
use qokit_dist::{
    worker, Axis, DistSweepOptions, DistSweepRunner, Grid2d, InProcessTransport, PointSource,
    TcpTransport, Transport, WorkerSpawn,
};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;
use std::io::Write;
use std::sync::Arc;

fn main() {
    // Spawn-self hook: when the TCP transport launches this binary with
    // the worker env vars set, become a worker and never return.
    worker::maybe_run_from_env();

    let n = bench_n(8);
    let steps = if fast_mode() { 48 } else { 256 };
    let reps = if fast_mode() { 2 } else { 3 };
    let chunk = 1024;
    let top_k = 16;
    let poly = labs_terms(n);
    let grid = Grid2d::new(Axis::new(-0.6, 0.6, steps), Axis::new(-0.6, 0.6, steps));
    let points = grid.len();
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let width = rayon::current_num_threads().max(1);

    let runner = |ranks| {
        DistSweepRunner::with_options(
            Arc::new(FurSimulator::with_options(
                &poly,
                SimOptions {
                    exec: ExecPolicy::serial(),
                    ..SimOptions::default()
                },
            )),
            DistSweepOptions {
                ranks,
                sweep: SweepOptions {
                    exec: ExecPolicy::rayon(),
                    nested: SweepNesting::PointsParallel,
                },
                chunk: chunk as usize,
            },
        )
    };
    // The aggregate bits every transport must hit: the shared-diagonal scan.
    let reference = runner(1).scan(&grid, LandscapeAggregator::new(top_k));

    let spawn = WorkerSpawn::current_exe().expect("current_exe");
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut bits_ok = true;
    let mut tcp_bytes_ok = true;
    for ranks in [2usize, 4] {
        let r = runner(ranks);
        for kind in ["in_process", "tcp"] {
            let mut transport: Box<dyn Transport> = match kind {
                "in_process" => Box::new(InProcessTransport::new(ranks)),
                _ => Box::new(TcpTransport::spawn(ranks, &spawn).expect("spawn workers")),
            };
            let mut scan = None;
            let t = time_median(reps, || {
                scan = Some(
                    r.try_scan_on(
                        transport.as_mut(),
                        &poly,
                        &grid,
                        LandscapeAggregator::new(top_k),
                    )
                    .expect("transport scan"),
                );
            });
            let scan = scan.unwrap();
            // Each rep sends identical traffic, so per-scan bytes divide
            // exactly.
            let wire_bytes = transport.stats().total_bytes() / reps as u64;
            let pps = points as f64 / t;
            if scan.agg.min_energy().map(f64::to_bits)
                != reference.agg.min_energy().map(f64::to_bits)
                || scan.agg.argmin() != reference.agg.argmin()
                || scan.agg.top_k() != reference.agg.top_k()
            {
                eprintln!("WARNING: {kind} K = {ranks} diverged from the shared-diagonal scan");
                bits_ok = false;
            }
            if kind == "tcp" && wire_bytes == 0 {
                eprintln!("WARNING: tcp K = {ranks} reports zero wire bytes");
                tcp_bytes_ok = false;
            }
            rows.push(vec![
                format!("{kind} K={ranks}"),
                fmt_time(t),
                format!("{pps:.2}"),
                format!("{wire_bytes}"),
            ]);
            records.push(format!(
                "    {{\"transport\": \"{kind}\", \"ranks\": {ranks}, \"seconds\": {t:.6e}, \
                 \"points_per_sec\": {pps:.4}, \"wire_bytes\": {wire_bytes}}}"
            ));
        }
    }
    print_table(
        &format!(
            "Transport scan, LABS n = {n}, {steps}x{steps} grid = {points} points \
             ({width}-worker pool, {hw} hw threads, chunk {chunk}, top-{top_k})"
        ),
        &["transport", "scan", "points/sec", "wire bytes"],
        &rows,
    );
    println!(
        "\n(in-process ranks are pool tasks — zero wire bytes; TCP ranks are spawned\n worker processes on loopback, every frame length-prefixed and\n checksummed. Same worker dispatch on both sides, so the aggregates match bit\n for bit: {}.)",
        if bits_ok { "verified" } else { "DIVERGED" }
    );

    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_transport.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_transport\",\n  \"n_qubits\": {n},\n  \"p\": 1,\n  \"points\": {points},\n  \"grid_steps\": {steps},\n  \"hw_threads\": {hw},\n  \"pool_width\": {width},\n  \"reps\": {reps},\n  \"chunk\": {chunk},\n  \"top_k\": {top_k},\n  \"aggregates_bit_identical\": {bits_ok},\n  \"transports\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        if !bits_ok {
            eprintln!("ASSERT FAILED: a transport moved the aggregate bits");
            std::process::exit(1);
        }
        if !tcp_bytes_ok {
            eprintln!("ASSERT FAILED: TCP transport moved zero wire bytes");
            std::process::exit(1);
        }
        println!(
            "assert ok: all transports bit-identical to the shared-diagonal scan, TCP traffic real"
        );
    }
}
