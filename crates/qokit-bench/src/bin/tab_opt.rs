//! §I headline — "reduce the time for a typical QAOA parameter
//! optimization by eleven times for n = 26 qubits compared to a
//! state-of-the-art GPU quantum circuit simulator".
//!
//! Protocol: run the same Nelder–Mead optimization (same start, same
//! evaluation budget) of p-layer LABS QAOA through (a) the fast simulator
//! and (b) the gate-based baseline, and report the wall-clock ratio. The
//! fast path also re-uses its precomputed diagonal for the objective; the
//! baseline re-evaluates `f` term-by-term — both exactly as the paper
//! describes.

use qokit_bench::{bench_n, fast_mode, fmt_time, time_once};
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_gates::{GateSimOptions, GateSimulator};
use qokit_optim::{schedules, NelderMead};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;

fn main() {
    let n = bench_n(if fast_mode() { 10 } else { 14 });
    let p = 6;
    let evals = if fast_mode() { 10 } else { 40 };
    let poly = labs_terms(n);
    let (g0, b0) = schedules::linear_ramp(p, 0.4);
    let x0 = schedules::pack(&g0, &b0);
    let nm = NelderMead {
        max_evals: evals,
        ..NelderMead::default()
    };

    println!(
        "\n== headline: QAOA parameter optimization, LABS n = {n}, p = {p}, {evals} evaluations =="
    );

    // Fast simulator (construction included — precompute is part of the
    // optimization cost, paid once).
    let mut fast_best = 0.0;
    let t_fast = time_once(|| {
        let sim = FurSimulator::with_options(
            &poly,
            SimOptions {
                exec: ExecPolicy::rayon(),
                ..SimOptions::default()
            },
        );
        let r = nm.minimize(
            |x| {
                let (g, b) = schedules::unpack(x);
                sim.objective(g, b)
            },
            &x0,
        );
        fast_best = r.best_f;
    });

    // Gate-based baseline, same protocol.
    let mut gate_best = 0.0;
    let t_gate = time_once(|| {
        let sim = GateSimulator::new(
            poly.clone(),
            GateSimOptions {
                exec: ExecPolicy::rayon(),
                ..GateSimOptions::default()
            },
        );
        let r = nm.minimize(
            |x| {
                let (g, b) = schedules::unpack(x);
                sim.objective(g, b)
            },
            &x0,
        );
        gate_best = r.best_f;
    });

    println!(
        "fast simulator:      {:>12}   best <C> = {fast_best:.6}",
        fmt_time(t_fast)
    );
    println!(
        "gate-based baseline: {:>12}   best <C> = {gate_best:.6}",
        fmt_time(t_gate)
    );
    println!(
        "speedup: {:.1}x   (optima agree to {:.1e}; paper reports 11x at n = 26 on GPU)",
        t_gate / t_fast,
        (fast_best - gate_best).abs()
    );
}
