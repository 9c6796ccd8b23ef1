//! Fig. 3 — Time to apply a single QAOA layer for the LABS problem, for
//! commonly-used CPU/GPU simulators.
//!
//! Series mapping (paper → this reproduction):
//! * cuTensorNet / QTensor → greedy tensor-network contractor (per-layer
//!   time = single-amplitude contraction time / p, the paper's protocol)
//! * Qiskit / cuStateVec (gates) → gate baseline (decomposed; serial and
//!   rayon), plus the native-diagonal and F=2-fused variants
//! * QOKit / QOKit (cuStateVec) → fast simulator, serial / rayon
//!
//! Precomputation is excluded here exactly as in the paper (it is
//! amortized; Fig. 4 charges it).

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::Mixer;
use qokit_costvec::CostVec;
use qokit_gates::{GateSimOptions, GateSimulator, PhaseStyle};
use qokit_statevec::{ExecPolicy, StateVec};
use qokit_terms::labs::labs_terms;

fn main() {
    let max_n = bench_n(if fast_mode() { 12 } else { 22 });
    let tn_cap = 10usize.min(max_n);
    let gate_dec_cap = max_n.min(if fast_mode() { 10 } else { 15 });
    let gate_nat_cap = max_n.min(if fast_mode() { 11 } else { 18 });
    let reps = if fast_mode() { 1 } else { 3 };
    let (gamma, beta) = (0.21, -0.54);

    let mut rows = Vec::new();
    let mut n = 6;
    while n <= max_n {
        let poly = labs_terms(n);

        // Tensor network: one amplitude for p = 2, divided by p.
        let t_tn = if n <= tn_cap {
            let p = 2;
            time_median(1, || {
                let _ = std::hint::black_box(qokit_tensornet::qaoa_amplitude(
                    &poly,
                    &vec![gamma; p],
                    &vec![beta; p],
                    0,
                    26,
                ));
            }) / p as f64
        } else {
            -1.0
        };

        let layer_time = |style: PhaseStyle, fuse: bool, exec: ExecPolicy| {
            let sim = GateSimulator::new(
                poly.clone(),
                GateSimOptions {
                    style,
                    exec,
                    fuse,
                    ..GateSimOptions::default()
                },
            );
            let mut state = StateVec::uniform_superposition(n);
            time_median(reps, || {
                sim.apply_layer(&mut state, gamma, beta);
            })
        };
        let t_gate_serial = if n <= gate_dec_cap {
            layer_time(PhaseStyle::DecomposedCx, false, ExecPolicy::serial())
        } else {
            -1.0
        };
        let t_gate_par = if n <= gate_dec_cap + 2 {
            layer_time(PhaseStyle::DecomposedCx, false, ExecPolicy::rayon())
        } else {
            -1.0
        };
        let t_gate_fused = if n <= gate_dec_cap {
            layer_time(PhaseStyle::DecomposedCx, true, ExecPolicy::rayon())
        } else {
            -1.0
        };
        let t_gate_native = if n <= gate_nat_cap {
            layer_time(PhaseStyle::NativeDiagonal, false, ExecPolicy::rayon())
        } else {
            -1.0
        };

        // QOKit: phase (precomputed diagonal) + mixer, per layer.
        let costs = CostVec::from_polynomial(
            &poly,
            qokit_costvec::PrecomputeMethod::Fwht,
            ExecPolicy::rayon(),
        );
        let mut state = StateVec::uniform_superposition(n);
        let t_fast_serial = time_median(reps, || {
            costs.apply_phase(state.amplitudes_mut(), gamma, ExecPolicy::serial());
            Mixer::X.apply(state.amplitudes_mut(), beta, ExecPolicy::serial());
        });
        let t_fast_par = time_median(reps, || {
            costs.apply_phase(state.amplitudes_mut(), gamma, ExecPolicy::rayon());
            Mixer::X.apply(state.amplitudes_mut(), beta, ExecPolicy::rayon());
        });

        rows.push(vec![
            n.to_string(),
            fmt_time(t_tn),
            fmt_time(t_gate_serial),
            fmt_time(t_gate_par),
            fmt_time(t_gate_fused),
            fmt_time(t_gate_native),
            fmt_time(t_fast_serial),
            fmt_time(t_fast_par),
        ]);
        n += 2;
    }

    print_table(
        "Fig. 3: time per QAOA layer, LABS",
        &[
            "n",
            "tensornet",
            "gate serial",
            "gate rayon",
            "gate fused",
            "gate native",
            "QOKit serial",
            "QOKit rayon",
        ],
        &rows,
    );
    println!(
        "\n(paper: orders of magnitude between gates and QOKit for n > 20; TN slowest.\n '-' = series capped: TN width blows up, gate sims too slow — the paper's point.)"
    );
}
