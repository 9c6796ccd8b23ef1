//! Quickstart: the paper's Listing 1, in Rust.
//!
//! Evaluates the QAOA objective for weighted MaxCut on an all-to-all graph
//! using the fast precomputed-diagonal simulator, then prints the pieces a
//! new user cares about: the cost diagonal, the objective, the ground-state
//! overlap, and the top measurement outcomes.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Expected output: the problem size (n = 16, 120 terms), the cost-diagonal
//! range and memory footprint, `<C>` and ground-state overlap at p = 4
//! (overlap ≈ 0.51), the p = 0 sanity value `<C> = 0`, and a table of the
//! most probable measurement outcomes.

use qokit::prelude::*;

fn main() {
    let n = 16;

    // Terms for all-to-all MaxCut with weight 0.3 (Listing 1).
    let terms = qokit::terms::maxcut::all_to_all_terms(n, 0.3);
    println!(
        "problem: all-to-all MaxCut, n = {n}, |T| = {}",
        terms.num_terms()
    );

    // Simulator with default options: X mixer, auto executor, FWHT
    // precompute. The cost diagonal is built here, once.
    let sim = FurSimulator::new(&terms);
    let costs = sim.cost_diagonal(); // = get_cost_diagonal()
    let (cmin, cmax) = costs.extrema();
    println!(
        "cost diagonal: 2^{n} entries in [{cmin:.3}, {cmax:.3}], {:.1} MiB",
        costs.memory_bytes() as f64 / (1024.0 * 1024.0)
    );

    // A shallow linear-ramp schedule.
    let (gammas, betas) = qokit::optim::schedules::linear_ramp(4, 0.6);

    // One QAOA simulation + the two objectives of interest.
    let result = sim.simulate_qaoa(&gammas, &betas);
    let energy = sim.get_expectation(&result);
    let overlap = sim.get_overlap(&result);
    println!(
        "p = {}: <C> = {energy:.4}, ground-state overlap = {overlap:.4e}",
        gammas.len()
    );

    // Random-guess baseline for context: the uniform state's energy.
    let uniform = sim.simulate_qaoa(&[], &[]);
    println!(
        "p = 0 (uniform state): <C> = {:.4}",
        sim.get_expectation(&uniform)
    );

    // Top-5 most likely bitstrings.
    let probs = sim.get_probabilities(&result);
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap());
    println!("top measurement outcomes:");
    for &x in order.iter().take(5) {
        println!(
            "  |{x:0n$b}>  p = {:.5}  f = {:+.3}",
            probs[x],
            costs.value(x)
        );
    }
}
