//! Conclusion ¶2 ablation — Algorithms 1–2 vs the Ref. \[43\] FWHT sandwich.
//!
//! The paper: "Ref. \[43\] requires two applications of fast Walsh–Hadamard
//! transform (forward and inverse) and a diagonal Hamiltonian operation to
//! simulate one layer of QAOA mixer, whereas Algorithms 1, 2 apply the
//! mixer in one step … In addition, [their FWHT] requires one additional
//! copy of the input state vector, whereas Algorithms 1, 2 applies the
//! mixer in place."
//!
//! Three implementations of the same unitary `e^{-iβΣX}`:
//! * Algorithm 2 (one in-place butterfly pass per qubit);
//! * FWHT sandwich, in place (2 transforms + diagonal);
//! * FWHT sandwich with the extra state copy (Ref. \[43\] as written).
//!
//! A second ablation compares the interleaved `C64` layout against the
//! split-complex (`re`/`im` plane) kernel twins on every hot kernel and
//! records the result to `BENCH_layout.json` (see [`layout_ablation`]).

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::Mixer;
use qokit_statevec::diag::{apply_phase, apply_phase_split, expectation, expectation_split};
use qokit_statevec::fwht::{
    apply_x_mixer_fwht_copying, apply_x_mixer_fwht_inplace, fwht, fwht_split,
};
use qokit_statevec::su2::{apply_uniform_mat2, block_walk_isa};
use qokit_statevec::su4::{apply_xy, apply_xy_split};
use qokit_statevec::{ExecPolicy, Mat2, SplitStateVec, StateVec};
use std::io::Write;

/// Interleaved-vs-split layout ablation on the hot kernels: same math, two
/// memory layouts. The `x_mixer` row times `Mixer::X` on each layout, i.e.
/// the generic interleaved butterfly against the RX-specialized split
/// sweeps every objective runs; `kernel_isa` records which compilation of
/// the split block walk ran (`su2::block_walk_isa`). Emits
/// `BENCH_layout.json` (`abl_layout` schema)
/// and, under `QOKIT_ABL_ASSERT=1`, fails unless the best kernel reaches
/// ≥1.0× the interleaved baseline — the CI guard that the split layer pays
/// its way.
fn layout_ablation(n: usize, reps: usize) {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut inter = StateVec::uniform_superposition(n);
    let mut split = SplitStateVec::from(&inter);
    let costs: Vec<f64> = (0..1usize << n)
        .map(|i| ((i * 37) % 101) as f64 - 50.0)
        .collect();
    let beta = -0.44;

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut best_speedup = 0.0f64;
    let kernels: [(&str, f64, f64); 5] = {
        let t_fwht_i = time_median(reps, || fwht(inter.amplitudes_mut(), ExecPolicy::serial()));
        let t_fwht_s = time_median(reps, || {
            let (re, im) = split.planes_mut();
            fwht_split(re, im, ExecPolicy::serial());
        });
        let t_diag_i = time_median(reps, || {
            apply_phase(inter.amplitudes_mut(), &costs, 0.2, ExecPolicy::serial())
        });
        let t_diag_s = time_median(reps, || {
            let (re, im) = split.planes_mut();
            apply_phase_split(re, im, &costs, 0.2, ExecPolicy::serial());
        });
        let t_exp_i = time_median(reps, || {
            std::hint::black_box(expectation(
                inter.amplitudes(),
                &costs,
                ExecPolicy::serial(),
            ));
        });
        let t_exp_s = time_median(reps, || {
            let (re, im) = split.planes();
            std::hint::black_box(expectation_split(re, im, &costs, ExecPolicy::serial()));
        });
        let t_mix_i = time_median(reps, || {
            Mixer::X.apply(inter.amplitudes_mut(), beta, ExecPolicy::serial())
        });
        let t_mix_s = time_median(reps, || {
            let (re, im) = split.planes_mut();
            Mixer::X.apply_split(re, im, beta, ExecPolicy::serial());
        });
        let t_xy_i = time_median(reps, || {
            apply_xy(inter.amplitudes_mut(), 0, n - 1, 0.3, ExecPolicy::serial())
        });
        let t_xy_s = time_median(reps, || {
            let (re, im) = split.planes_mut();
            apply_xy_split(re, im, 0, n - 1, 0.3, ExecPolicy::serial());
        });
        [
            ("fwht", t_fwht_i, t_fwht_s),
            ("diag_phase", t_diag_i, t_diag_s),
            ("expectation", t_exp_i, t_exp_s),
            ("x_mixer", t_mix_i, t_mix_s),
            ("xy", t_xy_i, t_xy_s),
        ]
    };
    for (kernel, t_i, t_s) in kernels {
        let speedup = t_i / t_s;
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            kernel.to_string(),
            fmt_time(t_i),
            fmt_time(t_s),
            format!("{speedup:.2}x"),
        ]);
        records.push(format!(
            "    {{\"kernel\": \"{kernel}\", \"interleaved_seconds\": {t_i:.6e}, \"split_seconds\": {t_s:.6e}, \"speedup\": {speedup:.4}}}"
        ));
    }
    print_table(
        &format!("Memory layout: interleaved C64 vs split re/im planes, n = {n}"),
        &["kernel", "interleaved", "split", "split speedup"],
        &rows,
    );
    println!(
        "\n(split planes let the autovectorizer pack pure-f64 loops; the conversion\n transpose is amortized over whole circuits — see README \"memory layout\")"
    );

    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_layout.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_layout\",\n  \"n_qubits\": {n},\n  \"hw_threads\": {hw},\n  \"reps\": {reps},\n  \"layout_baseline\": \"interleaved\",\n  \"kernel_isa\": \"{isa}\",\n  \"best_speedup\": {best_speedup:.4},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        records.join(",\n"),
        isa = block_walk_isa(),
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        // CI gate: the split layout must win on at least one hot kernel.
        if best_speedup < 1.0 {
            eprintln!("ASSERT FAILED: best split speedup {best_speedup:.2}x < 1.0x interleaved");
            std::process::exit(1);
        }
        println!("assert ok: best split speedup {best_speedup:.2}x >= 1.0x interleaved");
    }
}

fn main() {
    let max_n = bench_n(if fast_mode() { 14 } else { 22 });
    let reps = if fast_mode() { 1 } else { 5 };
    let beta = -0.44;

    for (label, exec) in [
        ("serial", ExecPolicy::serial()),
        ("rayon", ExecPolicy::rayon()),
    ] {
        let mut rows = Vec::new();
        let mut n = 10;
        while n <= max_n {
            let mut state = StateVec::uniform_superposition(n);
            let t_alg2 = time_median(reps, || {
                apply_uniform_mat2(state.amplitudes_mut(), &Mat2::rx(beta), exec);
            });
            let t_sandwich = time_median(reps, || {
                apply_x_mixer_fwht_inplace(state.amplitudes_mut(), beta, exec);
            });
            let t_copying = time_median(reps, || {
                apply_x_mixer_fwht_copying(state.amplitudes_mut(), beta, exec);
            });
            rows.push(vec![
                n.to_string(),
                fmt_time(t_alg2),
                fmt_time(t_sandwich),
                fmt_time(t_copying),
                format!("{:.2}x", t_sandwich / t_alg2),
                format!("{:.2}x", t_copying / t_alg2),
            ]);
            n += 2;
        }
        print_table(
            &format!("X mixer: Algorithm 2 vs FWHT sandwich ({label})"),
            &[
                "n",
                "Algorithm 2",
                "FWHT in-place",
                "FWHT + copy",
                "sandwich/alg2",
                "copy/alg2",
            ],
            &rows,
        );
    }
    println!(
        "\n(the sandwich does 2n butterfly passes + 1 diagonal vs Algorithm 2's n passes —\n expect ≈2x, worse with the extra copy; memory: Algorithm 2 allocates nothing)\n"
    );

    layout_ablation(max_n.min(bench_n(if fast_mode() { 14 } else { 20 })), reps);
}
