//! §III-A ablation — cost-vector precomputation algorithms.
//!
//! The paper's kernel iterates the terms for every vector element
//! (`O(|T|·2^n)`, embarrassingly parallel, zero-communication when
//! sliced); our FWHT route evaluates the sparse Walsh spectrum in
//! `O(n·2^n)` regardless of `|T|`. LABS (|T| ≈ n³/12) separates them
//! sharply; sparse MaxCut much less — which is exactly the trade the
//! paper's GPU kernel makes differently.

use qokit_bench::{bench_n, fast_mode, fmt_time, print_table, time_median};
use qokit_costvec::{precompute_direct, precompute_fwht};
use qokit_statevec::ExecPolicy;
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let max_n = bench_n(if fast_mode() { 14 } else { 20 });
    let reps = if fast_mode() { 1 } else { 3 };

    for (problem, make) in [
        (
            "LABS (|T| ~ n^3/12)",
            Box::new(|n: usize| qokit_terms::labs::labs_terms(n))
                as Box<dyn Fn(usize) -> qokit_terms::SpinPolynomial>,
        ),
        (
            "MaxCut 3-regular (|T| ~ 1.5n)",
            Box::new(|n: usize| {
                let mut rng = StdRng::seed_from_u64(7 + n as u64);
                maxcut_polynomial(&Graph::random_regular(n, 3, &mut rng))
            }),
        ),
    ] {
        let mut rows = Vec::new();
        let mut n = 10;
        while n <= max_n {
            let poly = make(n);
            let t_dir_s = time_median(reps, || {
                std::hint::black_box(precompute_direct(&poly, ExecPolicy::serial()));
            });
            let t_dir_p = time_median(reps, || {
                std::hint::black_box(precompute_direct(&poly, ExecPolicy::rayon()));
            });
            let t_fwht_s = time_median(reps, || {
                std::hint::black_box(precompute_fwht(&poly, ExecPolicy::serial()));
            });
            let t_fwht_p = time_median(reps, || {
                std::hint::black_box(precompute_fwht(&poly, ExecPolicy::rayon()));
            });
            rows.push(vec![
                n.to_string(),
                poly.num_terms().to_string(),
                fmt_time(t_dir_s),
                fmt_time(t_dir_p),
                fmt_time(t_fwht_s),
                fmt_time(t_fwht_p),
                format!("{:.1}x", t_dir_p / t_fwht_p),
            ]);
            n += 2;
        }
        print_table(
            &format!("Precompute: direct kernel vs FWHT — {problem}"),
            &[
                "n",
                "|T|",
                "direct ser",
                "direct par",
                "FWHT ser",
                "FWHT par",
                "par ratio",
            ],
            &rows,
        );
    }
    println!("\n(direct wins only when |T| ≲ n; the FWHT route is the CPU stand-in for the\n paper's GPU precompute in Fig. 4)");
}
