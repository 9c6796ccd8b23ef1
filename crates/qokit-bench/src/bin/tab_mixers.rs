//! §III-B — mixer support table: per-layer cost of the transverse-field X
//! mixer vs the Hamming-weight-preserving XY ring/complete mixers, plus a
//! weight-conservation check (the property that makes XY mixers useful for
//! constrained problems like portfolio optimization).

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_core::Mixer;
use qokit_statevec::{ExecPolicy, StateVec};

fn main() {
    let max_n = bench_n(if fast_mode() { 12 } else { 18 });
    let reps = if fast_mode() { 1 } else { 3 };
    let mut rows = Vec::new();
    let mut n = 8;
    while n <= max_n {
        let mut row = vec![n.to_string()];
        for mixer in [Mixer::X, Mixer::XyRing, Mixer::XyComplete] {
            let mut state = StateVec::dicke_state(n, n / 2);
            let t = time_median(reps, || {
                mixer.apply(state.amplitudes_mut(), -0.37, ExecPolicy::rayon());
            });
            row.push(fmt_time(t));
            // Conservation check rides along (X is expected to leak).
            if mixer.preserves_hamming_weight() {
                let mass: f64 = state
                    .amplitudes()
                    .iter()
                    .enumerate()
                    .filter(|(x, _)| x.count_ones() as usize == n / 2)
                    .map(|(_, a)| a.norm_sqr())
                    .sum();
                assert!(
                    (mass - 1.0).abs() < 1e-9,
                    "{mixer:?} leaked weight at n = {n}"
                );
            }
        }
        row.push(Mixer::XyRing.two_qubit_gate_count(n).to_string());
        row.push(Mixer::XyComplete.two_qubit_gate_count(n).to_string());
        rows.push(row);
        n += 2;
    }
    print_table(
        "Mixer cost per layer (rayon backend, Dicke |D^n_{n/2}> input)",
        &["n", "X", "XY ring", "XY complete", "ring 2q", "complete 2q"],
        &rows,
    );
    println!(
        "\n(X: n butterfly passes; XY ring: n SU(4) rotations; XY complete: n(n-1)/2.\n Hamming-weight conservation asserted for both XY mixers at every size.)"
    );
}
