//! Fig. 2 — Runtime of end-to-end simulation of the QAOA expectation with
//! p = 6 on MaxCut over random 3-regular graphs, for commonly-used CPU
//! simulators.
//!
//! Series mapping (paper → this reproduction):
//! * OpenQAOA (serial Python loops) → gate-based baseline, serial backend
//! * Qiskit (optimized CPU)         → gate-based baseline, rayon backend
//! * QOKit CPU ("c" simulator)      → fast simulator, serial / rayon
//!
//! End-to-end = build simulator (including any precompute) + simulate +
//! expectation, exactly the quantity a parameter-optimization step pays.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_gates::{GateSimOptions, GateSimulator};
use qokit_statevec::ExecPolicy;
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let p = 6;
    let max_n = bench_n(if fast_mode() { 12 } else { 20 });
    let gate_cap = max_n.min(if fast_mode() { 10 } else { 16 });
    let (gammas, betas): (Vec<f64>, Vec<f64>) = qokit_optim::schedules::linear_ramp(p, 0.4);
    let reps = if fast_mode() { 1 } else { 3 };

    let mut rows = Vec::new();
    let mut n = 6;
    while n <= max_n {
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let graph = Graph::random_regular(n, 3, &mut rng);
        let poly = maxcut_polynomial(&graph);

        let t_gate_serial = if n <= gate_cap {
            time_median(reps, || {
                let sim = GateSimulator::new(
                    poly.clone(),
                    GateSimOptions {
                        exec: ExecPolicy::serial(),
                        ..GateSimOptions::default()
                    },
                );
                std::hint::black_box(sim.objective(&gammas, &betas));
            })
        } else {
            -1.0
        };
        let t_gate_par = if n <= gate_cap + 2 {
            time_median(reps, || {
                let sim = GateSimulator::new(
                    poly.clone(),
                    GateSimOptions {
                        exec: ExecPolicy::rayon(),
                        ..GateSimOptions::default()
                    },
                );
                std::hint::black_box(sim.objective(&gammas, &betas));
            })
        } else {
            -1.0
        };
        let t_fast_serial = time_median(reps, || {
            let sim = FurSimulator::with_options(
                &poly,
                SimOptions {
                    exec: ExecPolicy::serial(),
                    ..SimOptions::default()
                },
            );
            std::hint::black_box(sim.objective(&gammas, &betas));
        });
        let t_fast_par = time_median(reps, || {
            let sim = FurSimulator::with_options(
                &poly,
                SimOptions {
                    exec: ExecPolicy::rayon(),
                    ..SimOptions::default()
                },
            );
            std::hint::black_box(sim.objective(&gammas, &betas));
        });

        let speedup = if t_gate_serial > 0.0 {
            format!("{:.1}x", t_gate_serial / t_fast_serial)
        } else {
            "-".into()
        };
        rows.push(vec![
            n.to_string(),
            fmt_time(t_gate_serial),
            fmt_time(t_gate_par),
            fmt_time(t_fast_serial),
            fmt_time(t_fast_par),
            speedup,
        ]);
        n += 2;
    }

    print_table(
        "Fig. 2: end-to-end QAOA expectation, p = 6, MaxCut on 3-regular graphs",
        &[
            "n",
            "gate serial",
            "gate rayon",
            "QOKit serial",
            "QOKit rayon",
            "serial speedup",
        ],
        &rows,
    );
    println!("\n(paper observes ~5-10x for QOKit CPU vs Qiskit/OpenQAOA; '-' = series capped)");
}
