//! Fig. 4 — Total simulation time vs number of QAOA layers for LABS
//! (paper: n = 26; here `QOKIT_BENCH_N`, default 16).
//!
//! Series:
//! * QOKit + direct (term-iteration) precompute — the paper's "CPU
//!   precompute" line: precompute is expensive, amortizes over layers;
//! * QOKit + FWHT precompute — the paper's "GPU precompute" stand-in:
//!   precompute is negligible, so QOKit wins from the very first layer;
//! * gate-based simulation (no precompute; measured per layer, linear in
//!   p — rows beyond the measured depth are extrapolated and marked `~`).

use qokit_bench::{bench_n, fast_mode, fmt_time, time_once};
use qokit_core::Mixer;
use qokit_costvec::{precompute_direct, precompute_fwht, CostVec};
use qokit_gates::{GateSimOptions, GateSimulator};
use qokit_statevec::{ExecPolicy, StateVec};
use qokit_terms::labs::labs_terms;

fn main() {
    let n = bench_n(16);
    let max_p = if fast_mode() { 100 } else { 10_000 };
    let checkpoints: Vec<usize> = [1usize, 3, 10, 30, 100, 300, 1000, 3000, 10_000]
        .into_iter()
        .filter(|&p| p <= max_p)
        .collect();
    let poly = labs_terms(n);
    let (gamma, beta) = (0.13, -0.42);

    // Precompute costs (timed separately).
    let t_pre_direct = time_once(|| {
        std::hint::black_box(precompute_direct(&poly, ExecPolicy::rayon()));
    });
    let costs_f64 = precompute_fwht(&poly, ExecPolicy::rayon());
    let t_pre_fwht = time_once(|| {
        std::hint::black_box(precompute_fwht(&poly, ExecPolicy::rayon()));
    });
    let costs = CostVec::F64(costs_f64);

    // Evolve once to max depth, recording cumulative time at checkpoints.
    let mut state = StateVec::uniform_superposition(n);
    let mut cumulative = vec![0.0f64];
    let mut elapsed = 0.0;
    let mut done = 0usize;
    for &p in &checkpoints {
        elapsed += time_once(|| {
            for _ in done..p {
                costs.apply_phase(state.amplitudes_mut(), gamma, ExecPolicy::rayon());
                Mixer::X.apply(state.amplitudes_mut(), beta, ExecPolicy::rayon());
            }
        });
        done = p;
        cumulative.push(elapsed);
    }

    // Gate baseline: measure a few layers, report linear extrapolation.
    let gate = GateSimulator::new(
        poly.clone(),
        GateSimOptions {
            exec: ExecPolicy::rayon(),
            ..GateSimOptions::default()
        },
    );
    let measure_layers = if fast_mode() { 1 } else { 3 };
    let mut gstate = StateVec::uniform_superposition(n);
    let t_gate_layer = time_once(|| {
        for _ in 0..measure_layers {
            gate.apply_layer(&mut gstate, gamma, beta);
        }
    }) / measure_layers as f64;

    println!("\n== Fig. 4: total time vs depth p, LABS n = {n} ==");
    println!(
        "precompute: direct {} | FWHT {}   (|T| = {})",
        fmt_time(t_pre_direct),
        fmt_time(t_pre_fwht),
        poly.num_terms()
    );
    println!(
        "{:<8}{:>20}{:>20}{:>20}",
        "p", "QOKit+direct", "QOKit+FWHT", "gate-based"
    );
    let mut crossover: Option<usize> = None;
    for (i, &p) in checkpoints.iter().enumerate() {
        let evolve = cumulative[i + 1];
        let qokit_direct = t_pre_direct + evolve;
        let qokit_fwht = t_pre_fwht + evolve;
        let gate_total = t_gate_layer * p as f64;
        let marker = if p > measure_layers { "~" } else { "" };
        if crossover.is_none() && gate_total > qokit_direct {
            crossover = Some(p);
        }
        println!(
            "{:<8}{:>20}{:>20}{:>19}{marker}",
            p,
            fmt_time(qokit_direct),
            fmt_time(qokit_fwht),
            fmt_time(gate_total),
        );
    }
    match crossover {
        Some(p) => println!(
            "\ncrossover: QOKit+direct beats gate-based from p ≈ {p}; QOKit+FWHT wins from p = 1 \
             (the paper's 'GPU precompute fast enough even for a single evaluation')."
        ),
        None => println!("\nno crossover within the measured range"),
    }
}
