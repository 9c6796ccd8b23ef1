//! §I / §V-B — memory accounting: "the precomputation requires storing an
//! exponentially-sized vector, increasing the memory footprint of the
//! simulation by only 12.5 %" (`uint16` cost values against complex128
//! amplitudes; LABS costs fit the 16-bit grid for n < 65). The 2-byte form
//! here is the level coding both the default path and the §V-B grid use:
//! a `u16` index per entry plus 8 bytes per distinct cost, unrounded, so
//! it sits just above the paper's 12.5 %.

use qokit_bench::{bench_n, print_table};
use qokit_costvec::{precompute_fwht, CostVec};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;

fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let max_n = bench_n(20);
    let mut rows = Vec::new();
    let mut n = 12;
    while n <= max_n {
        let poly = labs_terms(n);
        let costs = precompute_fwht(&poly, ExecPolicy::rayon());
        let state_bytes = (1usize << n) * qokit_statevec::AMP_BYTES;
        let f64_vec = CostVec::F64(costs.clone());
        let level_vec = CostVec::quantize_exact(&costs, 1.0).expect("LABS costs are integral");
        let (lo, hi) = level_vec.extrema();
        let levels = match &level_vec {
            CostVec::Levels { levels, .. } => levels.len(),
            CostVec::F64(_) => unreachable!("the §V-B grid is level-coded"),
        };
        rows.push(vec![
            n.to_string(),
            mib(state_bytes),
            mib(f64_vec.memory_bytes()),
            format!("{:.1}%", 100.0 * f64_vec.overhead_vs_state()),
            mib(level_vec.memory_bytes()),
            format!("{:.1}%", 100.0 * level_vec.overhead_vs_state()),
            levels.to_string(),
            format!("[{lo:.0}, {hi:.0}]"),
        ]);
        n += 2;
    }
    print_table(
        "Memory overhead of the cost vector (LABS)",
        &[
            "n",
            "state",
            "f64 costs",
            "overhead",
            "level-coded",
            "overhead",
            "levels",
            "cost range",
        ],
        &rows,
    );
    println!("\n(paper: +12.5% with uint16 storage; the level coding adds 8 B per distinct cost\n to the same 2 B/amp without rounding, and LABS spans stay far below 2^16)");
}
