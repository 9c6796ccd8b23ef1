//! Batched parameter-sweep ablation — sweep throughput (points/sec) of the
//! `SweepRunner` against a sequential single-point loop.
//!
//! The paper's headline workload is parameter optimization: thousands of
//! `(γ, β)` evaluations over one fixed cost vector. This measures the
//! coarse-grained layer built for that shape — one simulator shared via
//! `Arc`, recycled state buffers, points as pool tasks — in both `nested`
//! modes (points-parallel, kernels-parallel), against the honest baseline:
//! a serial loop of one-at-a-time `objective` calls.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_sweep.json` (override the path with `QOKIT_BENCH_JSON`) so the
//! repository's performance trajectory is machine-readable. The schema is
//! validated by the `schema_check` binary in CI.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless the
//! points-parallel energies have the bits of the sequential loop's (both
//! run serial kernels on split planes) and the best batched mode reaches
//! at least 0.9× the sequential throughput, the CI guard that batching
//! never *costs* performance (real speedup requires >1 core; `hw_threads`
//! in the JSON records the context).

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;
use std::io::Write;

fn sweep_points(count: usize, p: usize) -> Vec<SweepPoint> {
    (0..count)
        .map(|i| {
            let t = i as f64 / count as f64;
            SweepPoint::new(
                (0..p).map(|l| 0.1 + 0.4 * t + 0.01 * l as f64).collect(),
                (0..p).map(|l| 0.7 - 0.3 * t - 0.01 * l as f64).collect(),
            )
        })
        .collect()
}

fn main() {
    let n = bench_n(if fast_mode() { 10 } else { 16 });
    let p = 4;
    let count = if fast_mode() { 12 } else { 48 };
    // 5-rep medians (matching abl_threads) keep the 0.9x CI gate away from
    // single-run scheduler noise.
    let reps = if fast_mode() { 2 } else { 5 };
    let poly = labs_terms(n);
    let points = sweep_points(count, p);
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let width = rayon::current_num_threads().max(1);

    // Sequential baseline: one serial simulator, one `objective` call per
    // point — what an optimizer loop does without batching.
    let serial_sim = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let mut seq_energies = Vec::new();
    let t_seq = time_median(reps, || {
        seq_energies = points
            .iter()
            .map(|pt| serial_sim.objective(&pt.gammas, &pt.betas))
            .collect();
    });
    let seq_pps = count as f64 / t_seq;

    let configs = [
        ("points-par", SweepNesting::PointsParallel),
        ("kernels-par", SweepNesting::KernelsParallel),
    ];
    let mut rows = vec![vec![
        "sequential".to_string(),
        fmt_time(t_seq),
        format!("{seq_pps:.2}"),
        "1.00x".to_string(),
    ]];
    let mut records = Vec::new();
    let mut best_speedup = 0.0f64;
    let mut points_par_energies = Vec::new();
    for (label, nested) in configs {
        let runner = SweepRunner::with_options(
            FurSimulator::new(&poly),
            SweepOptions {
                exec: ExecPolicy::rayon(),
                nested,
            },
        );
        let mut energies = Vec::new();
        let t_batch = time_median(reps, || {
            energies = runner.energies(&points);
        });
        if nested == SweepNesting::PointsParallel {
            points_par_energies = energies;
        }
        let pps = count as f64 / t_batch;
        let speedup = t_seq / t_batch;
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            label.to_string(),
            fmt_time(t_batch),
            format!("{pps:.2}"),
            format!("{speedup:.2}x"),
        ]);
        records.push(format!(
            "    {{\"mode\": \"{label}\", \"seconds\": {t_batch:.6e}, \"points_per_sec\": {pps:.4}, \"speedup_vs_sequential\": {speedup:.4}}}"
        ));
    }
    print_table(
        &format!(
            "Sweep throughput, LABS n = {n}, p = {p}, {count} points ({width}-worker pool, {hw} hw threads)"
        ),
        &["mode", "batch", "points/sec", "speedup"],
        &rows,
    );
    println!(
        "\n(points-parallel shares one Arc'd cost vector and recycles per-worker state\n buffers: expect near-linear scaling once the machine has cores to spare,\n and ~1.0x on a single-core box)"
    );

    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_sweep.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_sweep\",\n  \"n_qubits\": {n},\n  \"p\": {p},\n  \"points\": {count},\n  \"hw_threads\": {hw},\n  \"pool_width\": {width},\n  \"reps\": {reps},\n  \"sequential_seconds\": {t_seq:.6e},\n  \"sequential_points_per_sec\": {seq_pps:.4},\n  \"best_speedup\": {best_speedup:.4},\n  \"modes\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        // CI gates: points-parallel keeps kernels serial, so its energies
        // must have the sequential loop's bits; and the best batched mode
        // must never fall below 0.9x the sequential loop (speedup beyond
        // 1.0x requires more than one core).
        let bit_identical = points_par_energies.len() == seq_energies.len()
            && points_par_energies
                .iter()
                .zip(&seq_energies)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !bit_identical {
            eprintln!("ASSERT FAILED: points-par energies differ from the sequential loop's bits");
            std::process::exit(1);
        }
        if best_speedup < 0.9 {
            eprintln!("ASSERT FAILED: best batched speedup {best_speedup:.2}x < 0.9x sequential");
            std::process::exit(1);
        }
        println!(
            "assert ok: points-par bit-identical to sequential; best batched speedup {best_speedup:.2}x >= 0.9x sequential"
        );
    }
}
