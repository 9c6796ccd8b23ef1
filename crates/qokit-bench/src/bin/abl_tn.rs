//! Tensor-network contraction ablation — greedy per-call ordering vs the
//! planned (min-fill, plan-once/execute-many) path, and the sliced
//! executor at 1/2/4 pool workers.
//!
//! The workload is the TN backend's sweet spot per Fig. 3 of the paper: a
//! sparse ring MaxCut at low depth, where the contraction width stays far
//! below `n` and a state vector would pay `2^n` for no reason. A batch of
//! amplitudes `⟨x|QAOA(γ,β)|+⟩` is evaluated three ways:
//!
//! * **greedy** — [`qaoa_amplitude`]: the order is re-derived while
//!   contracting, every call;
//! * **planned** — one [`TnEngine`] plans the min-fill order once from the
//!   structure and replays it per amplitude (the TN mirror of the paper's
//!   precompute-amortization argument);
//! * **sliced** — the same plan with a width cap one under the planned
//!   width, so slicing engages and the slices run as pool tasks at 1, 2,
//!   and 4 workers with fixed-order accumulation.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_tn.json` (override the path with `QOKIT_BENCH_JSON`); the schema
//! is validated by the `schema_check` binary in CI.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless planned
//! ordering is at least 1.0× greedy and the sliced amplitudes are
//! bit-identical at every pool width.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_statevec::{ExecPolicy, C64};
use qokit_tensornet::{qaoa_amplitude, TnEngine, TnOptions};
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::Graph;
use std::io::Write;

fn main() {
    let n = bench_n(if fast_mode() { 12 } else { 20 });
    let p = 2;
    let amplitudes = if fast_mode() { 16 } else { 64 };
    let reps = if fast_mode() { 2 } else { 5 };
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let pool_width = rayon::current_num_threads().max(1);

    let poly = maxcut_polynomial(&Graph::ring(n, 1.0));
    // The angle/basis batch every mode evaluates: same structure, many
    // values — exactly the shape the plan is amortized over.
    let batch: Vec<(Vec<f64>, Vec<f64>, u64)> = (0..amplitudes)
        .map(|i| {
            let t = i as f64 / amplitudes as f64;
            (
                vec![0.1 + 0.5 * t; p],
                vec![0.7 - 0.4 * t; p],
                (i as u64).wrapping_mul(2654435761) % (1u64 << n),
            )
        })
        .collect();

    let planned = TnEngine::new(&poly, p, TnOptions::default()).expect("ring plan fits the cap");
    let plan_width = planned.slice_plan().plan().width();
    let sliced_cap = plan_width.saturating_sub(1).max(1);
    let sliced_at = |workers: usize| {
        TnEngine::new(
            &poly,
            p,
            TnOptions {
                width_cap: sliced_cap,
                exec: ExecPolicy::rayon().with_threads(workers),
                ..TnOptions::default()
            },
        )
        .expect("one slice leg suffices for a ring")
    };

    let mut greedy_width = 0usize;
    let t_greedy = time_median(reps, || {
        for (g, b, x) in &batch {
            let (amp, w) = qaoa_amplitude(&poly, g, b, *x, 40).unwrap();
            std::hint::black_box(amp);
            greedy_width = greedy_width.max(w);
        }
    });
    let t_planned = time_median(reps, || {
        for (g, b, x) in &batch {
            std::hint::black_box(planned.amplitude(g, b, *x));
        }
    });
    let planned_speedup = t_greedy / t_planned;

    let reference: Vec<C64> = {
        let engine = sliced_at(1);
        batch
            .iter()
            .map(|(g, b, x)| engine.amplitude(g, b, *x))
            .collect()
    };
    let mut slices_bit_identical = true;
    let slice_runs: Vec<(usize, f64, usize, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let engine = sliced_at(workers);
            let stats = engine.report().slicing;
            let t = time_median(reps, || {
                for (g, b, x) in &batch {
                    std::hint::black_box(engine.amplitude(g, b, *x));
                }
            });
            for ((g, b, x), want) in batch.iter().zip(&reference) {
                let got = engine.amplitude(g, b, *x);
                if got.re.to_bits() != want.re.to_bits() || got.im.to_bits() != want.im.to_bits() {
                    slices_bit_identical = false;
                }
            }
            (workers, t, stats.n_slices, stats.overhead)
        })
        .collect();

    let amps_per_sec = |t: f64| amplitudes as f64 / t;
    let mut rows = vec![
        vec![
            "greedy".to_string(),
            fmt_time(t_greedy),
            format!("{:.1}", amps_per_sec(t_greedy)),
            format!("{greedy_width}"),
            "-".to_string(),
            "1.00x".to_string(),
        ],
        vec![
            "planned".to_string(),
            fmt_time(t_planned),
            format!("{:.1}", amps_per_sec(t_planned)),
            format!("{plan_width}"),
            "-".to_string(),
            format!("{planned_speedup:.2}x"),
        ],
    ];
    for &(workers, t, n_slices, _) in &slice_runs {
        rows.push(vec![
            format!("sliced/{workers}"),
            fmt_time(t),
            format!("{:.1}", amps_per_sec(t)),
            format!("{sliced_cap}"),
            format!("{n_slices}"),
            format!("{:.2}x", t_greedy / t),
        ]);
    }
    print_table(
        &format!(
            "TN contraction, ring MaxCut n = {n}, p = {p}, {amplitudes} amplitudes \
             ({pool_width}-worker pool, {hw} hw threads)"
        ),
        &["mode", "batch", "amps/sec", "width", "slices", "vs greedy"],
        &rows,
    );
    println!(
        "\n(sliced amplitudes across pool widths 1/2/4: {} — slices accumulate in fixed\n order, so the pool only changes who computes a slice, never the bits.)",
        if slices_bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let slices_json = slice_runs
        .iter()
        .map(|(workers, t, n_slices, overhead)| {
            format!(
                "    {{\"workers\": {workers}, \"seconds\": {t:.6e}, \
                 \"amps_per_sec\": {:.4}, \"n_slices\": {n_slices}, \
                 \"overhead\": {overhead:.4}}}",
                amps_per_sec(*t)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_tn.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_tn\",\n  \"n_qubits\": {n},\n  \"p\": {p},\n  \"amplitudes\": {amplitudes},\n  \"hw_threads\": {hw},\n  \"pool_width\": {pool_width},\n  \"reps\": {reps},\n  \"greedy_seconds\": {t_greedy:.6e},\n  \"planned_seconds\": {t_planned:.6e},\n  \"planned_speedup\": {planned_speedup:.4},\n  \"plan_width\": {plan_width},\n  \"greedy_width\": {greedy_width},\n  \"slices_bit_identical\": {slices_bit_identical},\n  \"slices\": [\n{slices_json}\n  ]\n}}\n"
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        if planned_speedup < 1.0 {
            eprintln!("ASSERT FAILED: planned ordering slower than greedy ({planned_speedup:.2}x)");
            std::process::exit(1);
        }
        if !slices_bit_identical {
            eprintln!("ASSERT FAILED: sliced amplitudes diverged across pool widths");
            std::process::exit(1);
        }
        println!(
            "assert ok: planned {planned_speedup:.2}x greedy, slices bit-identical at 1/2/4 workers"
        );
    }
}
