//! Light-cone evaluation ablation — edge throughput of the
//! `LightConeEvaluator` with the ego-graph dedup cache on vs. off.
//!
//! The statevector engine stops at ~30 qubits; the light-cone engine's
//! budget is edges, not qubits. This measures the two costs that govern
//! it on a large 3-regular MaxCut instance (~10⁶ edges in full mode): the
//! per-edge planning pass (cone key, width check, grouping), and the
//! per-*unique*-cone simulation that
//! deduplication amortizes — on regular graphs nearly every radius-`p`
//! neighborhood is the same local tree, so the cache collapses a million
//! edges to a handful of simulations.
//!
//! Besides the human-readable table, the run is recorded to
//! `BENCH_lightcone.json` (override the path with `QOKIT_BENCH_JSON`);
//! the schema is validated by the `schema_check` binary in CI.
//!
//! With `QOKIT_ABL_ASSERT=1` the binary exits non-zero unless the
//! dedup-on and dedup-off energies agree bit for bit, the cache hit rate
//! exceeds 90 %, and dedup never costs throughput.

use qokit_bench::{fast_mode, fmt_time, print_table, time_median};
use qokit_core::lightcone::{LightConeEvaluator, LightConeOptions, LightConeRun};
use qokit_statevec::ExecPolicy;
use qokit_terms::graphs::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

fn main() {
    // ~10⁶ edges in full mode (3-regular: m = 1.5·n), a smoke-scale graph
    // otherwise. n·3 must be even.
    let n = if fast_mode() { 20_000 } else { 666_666 };
    let degree = 3;
    let reps = if fast_mode() { 2 } else { 3 };
    let mut rng = StdRng::seed_from_u64(2023);
    let g = Graph::random_regular(n, degree, &mut rng);
    let edges = g.n_edges();
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let width = rayon::current_num_threads().max(1);

    let evaluator = |dedup: bool| {
        LightConeEvaluator::with_options(
            g.clone(),
            LightConeOptions {
                exec: ExecPolicy::rayon(),
                dedup,
                ..LightConeOptions::default()
            },
        )
    };
    let measure = |dedup: bool, p: usize| -> (f64, LightConeRun) {
        let ev = evaluator(dedup);
        let (gammas, betas) = (vec![0.4; p], vec![0.6; p]);
        let mut run = None;
        let t = time_median(reps, || {
            run = Some(ev.try_energy(&gammas, &betas).unwrap());
        });
        (t, run.unwrap())
    };

    // Dedup off is the honest baseline: every edge simulates its own cone.
    // p = 1 keeps the cones 6 qubits wide, so even a million independent
    // simulations finish; the dedup-on rows add the p = 2 depth the cache
    // makes nearly free.
    let (t_off, run_off) = measure(false, 1);
    let (t_on, run_on) = measure(true, 1);
    let (t_on2, run_on2) = measure(true, 2);
    let dedup_speedup = t_off / t_on;
    let best_hit_rate = run_on.stats.hit_rate().max(run_on2.stats.hit_rate());
    let bits_ok = run_off.energy.to_bits() == run_on.energy.to_bits();

    let row = |label: &str, t: f64, run: &LightConeRun, speedup: Option<f64>| {
        vec![
            label.to_string(),
            fmt_time(t),
            format!("{:.2e}", edges as f64 / t),
            format!("{}", run.stats.unique_cones),
            format!("{:.2}%", 100.0 * run.stats.hit_rate()),
            speedup.map_or("-".into(), |s| format!("{s:.2}x")),
        ]
    };
    print_table(
        &format!(
            "Light-cone MaxCut, {degree}-regular n = {n}, m = {edges} \
             ({width}-worker pool, {hw} hw threads)"
        ),
        &[
            "mode",
            "eval",
            "edges/sec",
            "unique cones",
            "hit rate",
            "speedup",
        ],
        &[
            row("p=1 dedup off", t_off, &run_off, None),
            row("p=1 dedup on", t_on, &run_on, Some(dedup_speedup)),
            row("p=2 dedup on", t_on2, &run_on2, Some(t_off / t_on2)),
        ],
    );
    println!(
        "\n(dedup on/off energies at p = 1: {} — the cache only ever merges cones whose\n labeled neighborhoods and weights are bitwise identical, so the energy cannot\n move. Planning dominates once the cache absorbs the simulations.)",
        if bits_ok {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let runs_json = [
        ("off", 1usize, t_off, &run_off),
        ("on", 1, t_on, &run_on),
        ("on", 2, t_on2, &run_on2),
    ]
    .iter()
    .map(|(dedup, p, t, run)| {
        format!(
            "    {{\"dedup\": \"{dedup}\", \"p\": {p}, \"seconds\": {t:.6e}, \
             \"edges_per_sec\": {:.4}, \"unique_cones\": {}, \"hit_rate\": {:.6}}}",
            edges as f64 / t,
            run.stats.unique_cones,
            run.stats.hit_rate()
        )
    })
    .collect::<Vec<_>>()
    .join(",\n");
    let json_path =
        std::env::var("QOKIT_BENCH_JSON").unwrap_or_else(|_| "BENCH_lightcone.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"abl_lightcone\",\n  \"n_vertices\": {n},\n  \"edges\": {edges},\n  \"degree\": {degree},\n  \"hw_threads\": {hw},\n  \"pool_width\": {width},\n  \"reps\": {reps},\n  \"best_hit_rate\": {best_hit_rate:.6},\n  \"dedup_speedup\": {dedup_speedup:.4},\n  \"energies_bit_identical\": {bits_ok},\n  \"runs\": [\n{runs_json}\n  ]\n}}\n"
    );
    match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    if std::env::var("QOKIT_ABL_ASSERT").is_ok_and(|v| v == "1") {
        if !bits_ok {
            eprintln!("ASSERT FAILED: dedup changed the energy bits");
            std::process::exit(1);
        }
        if best_hit_rate <= 0.9 {
            eprintln!("ASSERT FAILED: cache hit rate {best_hit_rate:.3} <= 0.9 on a regular graph");
            std::process::exit(1);
        }
        if dedup_speedup < 1.0 {
            eprintln!("ASSERT FAILED: dedup slowed evaluation down ({dedup_speedup:.2}x)");
            std::process::exit(1);
        }
        println!(
            "assert ok: bit-identical energies, hit rate {:.2}%, dedup speedup {dedup_speedup:.2}x",
            100.0 * best_hit_rate
        );
    }
}
