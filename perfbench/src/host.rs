//! Host and configuration context recorded with every run, plus the two
//! host measurements: peak resident memory and streaming bandwidth.

use qokit_dist::TransportKind;
use qokit_statevec::Layout;
use rayon::prelude::*;
use std::time::Instant;

/// Hardware threads the OS reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Width of the worker pool the default policies run on.
pub fn pool_width() -> usize {
    rayon::current_num_threads().max(1)
}

/// Size of the largest CPU cache (the last-level cache), from sysfs;
/// `None` when the kernel does not expose it.
pub fn llc_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match text.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (text, 1),
                },
            };
            digits.parse::<usize>().ok().map(|v| v * scale)
        })
        .max()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Sustained memory bandwidth (GB/s): best of several parallel
/// scale-and-add passes (`a[i] = a[i]·s + t`, 16 bytes moved per element)
/// over one `array_bytes` array on the default pool.
pub fn stream_gbps(array_bytes: usize) -> f64 {
    let len = array_bytes / 8;
    let mut a = vec![1.0f64; len];
    let chunk = (len / (4 * pool_width())).max(1 << 16);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let t = Instant::now();
        a.par_chunks_mut(chunk).for_each(|c| {
            for x in c.iter_mut() {
                *x = *x * 0.999_999 + 1e-9;
            }
        });
        let dt = t.elapsed().as_secs_f64();
        // Pass 0 faults the pages in; it is not a bandwidth sample.
        if pass > 0 {
            best = best.min(dt);
        }
    }
    std::hint::black_box(&a);
    16.0 * len as f64 / best / 1e9
}

/// The array size the bandwidth probe uses: four times the last-level
/// cache (64 MiB floor when the cache size is unknown).
pub fn stream_array_bytes() -> usize {
    llc_bytes().map_or(64 << 20, |b| 4 * b)
}

/// Host, build and configuration context: thread counts, cache size,
/// compiler and commit, and the raw and resolved `QOKIT_*` knobs.
pub fn context() -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "(unset)".into());
    let layout = match Layout::auto() {
        Layout::Interleaved => "interleaved",
        Layout::Split => "split",
    };
    let transport = match TransportKind::from_env() {
        TransportKind::InProcess => "in_process",
        TransportKind::Tcp => "tcp",
    };
    [
        ("nproc", nproc().to_string()),
        ("pool_width", pool_width().to_string()),
        (
            "llc_bytes",
            llc_bytes().map_or("unknown".into(), |b| b.to_string()),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("git_commit", env!("PERFBENCH_COMMIT").to_string()),
        ("QOKIT_THREADS", env("QOKIT_THREADS")),
        ("QOKIT_LAYOUT", env("QOKIT_LAYOUT")),
        ("QOKIT_SIMD", env("QOKIT_SIMD")),
        ("QOKIT_TRANSPORT", env("QOKIT_TRANSPORT")),
        ("resolved.threads", pool_width().to_string()),
        ("resolved.layout", layout.to_string()),
        // The benchmark builds without the `simd` feature: the explicit
        // SIMD paths do not exist and QOKIT_SIMD has nothing to switch.
        ("resolved.simd", "not built".to_string()),
        ("resolved.transport", transport.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}
