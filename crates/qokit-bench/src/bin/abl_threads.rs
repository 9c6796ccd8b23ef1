//! Parallel-scaling ablation — one QAOA layer vs worker count.
//!
//! The paper's kernels are data-parallel sweeps; this measures how they
//! scale with thread-pool size on this machine (the CPU analogue of the
//! paper's GPU-parallelism claim). The baseline row is `ExecPolicy::serial()` —
//! the actual single-threaded kernels, not a one-worker pool — and each
//! pool size runs the identical phase+mixer layer under
//! `ThreadPool::install`, so speedups are honest end-to-end numbers.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_threads.json` (override the path with `QOKIT_BENCH_JSON`) so the
//! repository's performance trajectory is machine-readable. Every pool size
//! runs the layer in both memory layouts (interleaved `C64` and split
//! re/im planes) so the SIMD lane and the thread lane are ablated jointly.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless the best
//! parallel configuration reaches at least 0.8× the serial throughput —
//! the CI guard that the pool never *costs* performance.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::Mixer;
use qokit_costvec::{precompute_fwht, CostVec};
use qokit_statevec::{ExecPolicy, SplitStateVec, StateVec};
use qokit_terms::labs::labs_terms;
use std::io::Write;

fn layer(costs: &CostVec, state: &mut StateVec, exec: ExecPolicy) {
    costs.apply_phase(state.amplitudes_mut(), 0.2, exec);
    Mixer::X.apply(state.amplitudes_mut(), -0.5, exec);
}

/// The same phase+mixer layer on the split-complex layout.
fn layer_split(costs: &CostVec, state: &mut SplitStateVec, exec: ExecPolicy) {
    let (re, im) = state.planes_mut();
    costs.apply_phase_split(re, im, 0.2, exec);
    Mixer::X.apply_split(re, im, -0.5, exec);
}

fn main() {
    let n = bench_n(if fast_mode() { 14 } else { 20 });
    let reps = if fast_mode() { 2 } else { 5 };
    let poly = labs_terms(n);
    let costs = CostVec::F64(precompute_fwht(&poly, ExecPolicy::rayon()));
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Serial baseline: the single-threaded kernels themselves.
    let mut state = StateVec::uniform_superposition(n);
    let t_serial = time_median(reps, || layer(&costs, &mut state, ExecPolicy::serial()));

    // Layout ablation rides along: the same serial layer on split planes.
    let mut split_state = SplitStateVec::uniform_superposition(n);
    let t_serial_split = time_median(reps, || {
        layer_split(&costs, &mut split_state, ExecPolicy::serial())
    });

    // Pool sweep: 1, 2, 4, … up to at least 4 and at most 2× the hardware
    // count, so small machines still demonstrate oversubscription behavior.
    let mut pool_sizes = Vec::new();
    let mut t = 1usize;
    while t <= (2 * hw).max(4) {
        pool_sizes.push(t);
        t *= 2;
    }

    let mut rows = vec![
        vec![
            "serial".to_string(),
            fmt_time(t_serial),
            "1.00x".to_string(),
            "-".to_string(),
        ],
        vec![
            "serial (split)".to_string(),
            fmt_time(t_serial_split),
            format!("{:.2}x", t_serial / t_serial_split),
            "-".to_string(),
        ],
    ];
    let mut records = Vec::new();
    let mut best_speedup = 0.0f64;
    for &threads in &pool_sizes {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let mut state = StateVec::uniform_superposition(n);
        let t_par =
            pool.install(|| time_median(reps, || layer(&costs, &mut state, ExecPolicy::rayon())));
        let speedup = t_serial / t_par;
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            threads.to_string(),
            fmt_time(t_par),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * speedup / threads as f64),
        ]);
        records.push(format!(
            "    {{\"threads\": {threads}, \"layout\": \"interleaved\", \"seconds\": {t_par:.6e}, \"speedup_vs_serial\": {speedup:.4}}}"
        ));

        let mut split_state = SplitStateVec::uniform_superposition(n);
        let t_par_split = pool.install(|| {
            time_median(reps, || {
                layer_split(&costs, &mut split_state, ExecPolicy::rayon())
            })
        });
        let speedup_split = t_serial / t_par_split;
        best_speedup = best_speedup.max(speedup_split);
        rows.push(vec![
            format!("{threads} (split)"),
            fmt_time(t_par_split),
            format!("{speedup_split:.2}x"),
            format!("{:.0}%", 100.0 * speedup_split / threads as f64),
        ]);
        records.push(format!(
            "    {{\"threads\": {threads}, \"layout\": \"split\", \"seconds\": {t_par_split:.6e}, \"speedup_vs_serial\": {speedup_split:.4}}}"
        ));
    }
    print_table(
        &format!("Layer time vs pool threads, LABS n = {n} (machine has {hw} hw threads)"),
        &["threads", "layer", "speedup", "efficiency"],
        &rows,
    );
    println!(
        "\n(memory-bound butterfly sweeps: expect near-linear scaling up to the physical\n core count, then saturation — the same profile the paper exploits on GPUs)"
    );

    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_threads.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_threads\",\n  \"n_qubits\": {n},\n  \"hw_threads\": {hw},\n  \"reps\": {reps},\n  \"serial_seconds\": {t_serial:.6e},\n  \"best_speedup\": {best_speedup:.4},\n  \"pools\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        // CI gate: the parallel backend must never be slower than 0.8× the
        // serial kernels on the large case (real speedup requires >1 core).
        if best_speedup < 0.8 {
            eprintln!("ASSERT FAILED: best parallel speedup {best_speedup:.2}x < 0.8x serial");
            std::process::exit(1);
        }
        println!("assert ok: best parallel speedup {best_speedup:.2}x >= 0.8x serial");
    }
}
