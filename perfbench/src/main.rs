//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the named workload's inputs from the seed, measures for the
//! given seconds, checks every output against a reference computed outside
//! the timed region, prints a human-readable report, writes the run record
//! to `perfbench/records/`, and prints one JSON result line last. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run (see `README.md`).

mod host;
mod json;
mod outcome;
mod pace;
mod probe;
mod record;
mod stats;
mod trace;
mod workloads;

use json::Json;
use outcome::{Args, Outcome};
use pace::Pacer;
use record::{Metric, Record};
use stats::{median, summarize};
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics of an untraced run, in result-line order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics of a traced run, in result-line order. Every workload
/// reports each of them for its own representative problem.
const PER_LAYER: [&str; 14] = [
    "terms.build_s",
    "costvec.precompute_s",
    "costvec.diag_bytes",
    "costvec.phase_ns_per_amp",
    "costvec.expectation_ns_per_amp",
    "statevec.mixer_ns_per_amp",
    "statevec.init_ns_per_amp",
    "statevec.layer_bytes",
    "statevec.layer_gbps",
    "host.stream_gbps",
    "core.objective_serial_ms",
    "core.parallel_efficiency",
    "core.objective_self_frac",
    "trace_overhead_frac",
];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Picks `names` out of `available`, in order; a missing name is a bug in
/// the workload.
fn pick(names: &[&str], available: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|&n| {
            available
                .iter()
                .find(|m| m.name == n)
                .cloned()
                .unwrap_or_else(|| panic!("workload did not measure `{n}`"))
        })
        .collect()
}

fn build_record(args: &Args, o: Outcome, tr: &Tracer, pacer: &Pacer) -> Record {
    // The bounded timings at the nominal host pace; their wall-clock
    // counterparts go to the report.
    let paced = pacer.paced(&o.latency);
    let lat = summarize(&paced);
    let wall = summarize(&o.latency.ms);
    let wall_throughput = o.items / o.window_s;
    let throughput = wall_throughput * o.latency.ms.iter().sum::<f64>() / paced.iter().sum::<f64>();
    let mut e2e = vec![
        Metric::new("setup_s", median(&pacer.paced(&o.setup)) / 1e3, "s"),
        Metric::new("latency_p50_ms", lat.median, "ms"),
        Metric::new("latency_tail_ms", lat.tail, "ms"),
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("peak_rss_mb", o.peak_rss_mib, "MiB"),
    ];
    let fail_frac = o.tally.fail_frac();
    let wall_report = vec![
        Metric::new("wall.setup_s", median(&o.setup.ms) / 1e3, "s"),
        Metric::new("wall.latency_p50_ms", wall.median, "ms"),
        Metric::new("wall.latency_tail_ms", wall.tail, "ms"),
        Metric::new("wall.throughput_per_s", wall_throughput, "1/s"),
        Metric::new("pace.reference_ms", pacer.median_ms(), "ms"),
        Metric::new("pace.samples", pacer.count() as f64, "count"),
        Metric::new("pace.spent_s", pacer.spent_s(), "s"),
    ];
    let mut tails = vec![
        ("latency_ms".to_string(), lat),
        ("wall.latency_ms".to_string(), wall),
    ];
    let mut host = host::context();
    let mut layers = o.layers;
    if args.trace {
        let traced = summarize(&pacer.paced(&o.traced));
        layers.push(Metric::new(
            "trace_overhead_frac",
            traced.median / median(&paced) - 1.0,
            "fraction",
        ));
        tails.push(("traced_latency_ms".to_string(), traced));
        let array = host::stream_array_bytes();
        layers.push(Metric::new(
            "host.stream_gbps",
            host::stream_gbps(array),
            "GB/s",
        ));
        host.push(("stream_array_bytes".into(), array.to_string()));
    }
    e2e.push(Metric::new("fail_frac", fail_frac, "fraction"));
    let metrics = if args.trace {
        pick(&PER_LAYER, &layers)
    } else {
        pick(&END_TO_END, &e2e)
    };
    let mut report = e2e;
    report.extend(wall_report);
    report.extend(o.report);
    report.extend(layers);
    Record {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        correct: o.tally.failed() == 0,
        attempted: o.tally.attempted,
        failed: o.tally.failed(),
        metrics,
        report,
        tails,
        host,
        spans: tr.spans(),
    }
}

fn print_report(r: &Record) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        r.workload, r.seed, r.seconds, r.trace as u8
    );
    for m in &r.report {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, s) in &r.tails {
        println!(
            "  {name}: median {:.4}, p{} {:.4} ({} samples, {} beyond the tail)",
            s.median, s.tail_pct, s.tail, s.samples, s.beyond
        );
    }
    for (k, v) in &r.host {
        println!("  host.{k} = {v}");
    }
    println!("  checks: {} attempted, {} failed", r.attempted, r.failed);
}

fn main() -> ExitCode {
    // Spawn-self hook: a TCP transport worker becomes a worker here and
    // exits without returning.
    qokit_dist::worker::maybe_run_from_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = workloads::ALL.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = workloads::ALL.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let tr = Tracer::new(args.trace);
    let mut pacer = Pacer::new(host::pool_width(), pace::EVERY_S);
    let outcome = run(&args, &tr, &mut pacer);
    let record = build_record(&args, outcome, &tr, &pacer);
    print_report(&record);
    write_record(&record);
    println!("{}", record.result_line());
    ExitCode::SUCCESS
}

/// Writes the record to `perfbench/records/` and reads it back, so a
/// record that would not parse is reported at once.
fn write_record(record: &Record) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/records");
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        record.workload, record.seed, record.trace as u8
    );
    let text = record.to_json().encode();
    let reread = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, &text))
        .and_then(|_| std::fs::read_to_string(&path))
        .map_err(|e| e.to_string())
        .and_then(|back| Json::parse(&back))
        .and_then(|j| Record::from_json(&j));
    match reread {
        Ok(back) if back.to_json().encode() == text => println!("  record: {path}"),
        Ok(_) => eprintln!("perfbench: record {path} did not read back unchanged"),
        Err(e) => eprintln!("perfbench: record {path}: {e}"),
    }
}
