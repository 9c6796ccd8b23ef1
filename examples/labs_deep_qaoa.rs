//! High-depth LABS QAOA — the regime the simulator was built for.
//!
//! The Low Autocorrelation Binary Sequences problem drives the paper's
//! evaluation (Figs. 3–5): its cost function has Θ(n³) terms including
//! 4-local interactions, so gate-based simulation pays hundreds of sweeps
//! per layer while the precomputed diagonal pays one. This example runs a
//! deep (p = 40) linear-ramp QAOA schedule, tracks the ground-state
//! overlap as depth grows, and reports the merit factor of the most likely
//! sequence.
//!
//! Run with: `cargo run --release --example labs_deep_qaoa`
//!
//! Expected output: the LABS term census (252 terms at n = 15, 4-local),
//! a depth sweep p ∈ {1, 5, 10, 20, 40} of `<C>` and ground-state overlap,
//! and a most-likely sequence achieving the known optimal merit factor
//! 7.5 for n = 15.

use qokit::prelude::*;
use qokit::terms::labs;

fn main() {
    let n = 15;
    let poly = labs::labs_terms(n);
    println!(
        "problem: LABS n = {n} — |T| = {} terms (degree histogram {:?})",
        poly.num_terms(),
        poly.degree_histogram()
    );
    println!(
        "known optimal sidelobe energy E*({n}) = {}",
        labs::known_optimal_energy(n).unwrap()
    );

    // §V-B integer grid: LABS costs are integers, stored level-coded
    // (a u16 index per amplitude), so nothing is rounded.
    let sim = FurSimulator::with_options(
        &poly,
        SimOptions {
            quantize_u16: true,
            ..SimOptions::default()
        },
    );
    println!(
        "cost diagonal level-coded on the §V-B grid: {:.1} % memory overhead vs the state",
        100.0 * sim.cost_diagonal().overhead_vs_state()
    );

    // Deep annealing-style ramp with a fixed per-layer step: more layers =
    // slower anneal = better overlap, which is why high depth matters.
    let dt = 0.3;
    println!("\n   p    <C>        E[<C>]    ground-state overlap");
    for p in [1usize, 5, 10, 20, 40] {
        let (g, b) = qokit::optim::schedules::linear_ramp(p, dt);
        let r = sim.simulate_qaoa(&g, &b);
        let e = sim.get_expectation(&r);
        let energy = labs::paper_cost_to_energy(e, n);
        println!(
            "  {p:>3}   {e:>8.3}   {energy:>8.2}   {:.5}",
            sim.get_overlap(&r)
        );
    }

    // Most likely sequence at the deepest setting.
    let (g, b) = qokit::optim::schedules::linear_ramp(40, 0.3);
    let r = sim.simulate_qaoa(&g, &b);
    let probs = sim.get_probabilities(&r);
    let best = (0..probs.len())
        .max_by(|&a, &b| probs[a].partial_cmp(&probs[b]).unwrap())
        .unwrap();
    let e = labs::sidelobe_energy(best as u64, n);
    println!(
        "\nmost likely sequence: |{best:0n$b}> with p = {:.4}, E = {e}, merit factor {:.3} \
         (optimal {:.3})",
        probs[best],
        labs::merit_factor(best as u64, n),
        labs::optimal_merit_factor(n).unwrap()
    );
}
