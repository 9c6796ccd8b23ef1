//! Batch-sharded landscape scans — the paper's flagship workload at
//! production scale.
//!
//! Scans a 128×128 `(γ, β)` grid (16,384 points) of a LABS instance
//! through a `DistSweepRunner`: 4 in-process BSP ranks, all sharing the
//! one precomputed cost vector, each own a contiguous quarter of the
//! batch, evaluate it through rank-local `SweepRunner`s in chunked
//! supersteps, and fold energies into streaming `LandscapeAggregator`s
//! (running min/argmin, top-k, coarse 2-D histogram) merged in rank order
//! — no full energy vector ever exists. The result is checked against a
//! plain sequential streaming loop, the coarse landscape heat map is
//! printed, and the top-k points seed a lane-parallel batched multi-start
//! refinement (`MultiStart::minimize_batched`).
//!
//! Run with: `cargo run --release --example landscape_scan`
//!
//! Expected output: a scan summary whose argmin/top-k agree exactly with
//! the sequential reference, an ASCII heat map of the energy landscape
//! with the minimum marked, and a multi-start refinement (bit-identical
//! to the sequential multi-start driver) that improves on the best grid
//! point.

use qokit::core::landscape::{EnergySink, HistogramSpec, LandscapeAggregator};
use qokit::dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d, PointSource};
use qokit::optim::{MultiStart, NelderMead, RestartMethod};
use qokit::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 10;
    let poly = qokit::terms::labs::labs_terms(n);
    let steps = 128;
    let grid = Grid2d::new(Axis::new(-0.8, 0.8, steps), Axis::new(-0.8, 0.8, steps));
    let hist = HistogramSpec {
        rows: steps,
        cols: steps,
        bin_rows: 12,
        bin_cols: 24,
    };
    println!(
        "problem: LABS n = {n}; scanning a {steps}x{steps} grid = {} (γ, β) points",
        grid.len()
    );

    // --- Sharded scan: 4 ranks, each owning a quarter of the batch ----
    let ranks = 4;
    let runner = DistSweepRunner::with_options(
        Arc::new(FurSimulator::new(&poly)),
        DistSweepOptions {
            ranks,
            sweep: SweepOptions {
                exec: ExecPolicy::rayon(),
                ..SweepOptions::default()
            },
            chunk: 1024,
        },
    );
    let t = Instant::now();
    let scan = runner.scan(&grid, LandscapeAggregator::new(8).with_histogram(hist));
    let scan_time = t.elapsed();
    let argmin = scan.agg.argmin().unwrap();
    let best_point = grid.point(argmin);
    println!(
        "sharded scan: {} points, {} ranks, {} supersteps in {scan_time:.2?}",
        scan.points, scan.ranks, scan.supersteps
    );
    println!(
        "min <C> = {:.4} at point {argmin} -> (γ, β) = ({:.3}, {:.3}); mean <C> = {:.4}",
        scan.agg.min_energy().unwrap(),
        best_point.gammas[0],
        best_point.betas[0],
        scan.agg.mean().unwrap()
    );
    println!("top-{} grid points:", scan.agg.top_k().len());
    for &(i, e) in scan.agg.top_k() {
        let p = grid.point(i);
        println!(
            "  <C> = {e:.4} at (γ, β) = ({:+.3}, {:+.3})",
            p.gammas[0], p.betas[0]
        );
    }

    // --- The sequential reference sees the identical minimum ----------
    // (Selection aggregates are order-independent; the sharded scan must
    // reproduce the streaming loop exactly.)
    let serial_sim = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let mut reference = LandscapeAggregator::new(8).with_histogram(hist);
    for i in 0..grid.len() {
        let p = grid.point(i);
        reference.observe(i, serial_sim.objective(&p.gammas, &p.betas));
    }
    assert_eq!(scan.agg.argmin(), reference.argmin());
    assert_eq!(scan.agg.top_k(), reference.top_k());
    assert_eq!(scan.agg.histogram(), reference.histogram());
    assert_eq!(scan.agg.count(), reference.count());
    println!("\nsequential streaming loop agrees: identical argmin, top-k, histogram");

    // --- Coarse landscape heat map from the histogram -----------------
    let h = scan.agg.histogram().unwrap();
    let (lo, hi) = h
        .minima()
        .iter()
        .filter(|m| m.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &m| {
            (lo.min(m), hi.max(m))
        });
    let shades: &[char] = &['@', '#', '*', '+', '=', '-', ':', '.', ' '];
    println!(
        "\nper-cell minimum energy, {}x{} cells ('@' = lowest):",
        hist.bin_rows, hist.bin_cols
    );
    for r in 0..hist.bin_rows {
        let row: String = (0..hist.bin_cols)
            .map(|c| {
                let m = h.minima()[r * hist.bin_cols + c];
                let t = ((m - lo) / (hi - lo)).clamp(0.0, 1.0);
                shades[(t * (shades.len() - 1) as f64).round() as usize]
            })
            .collect();
        println!("  {row}");
    }

    // --- Batched multi-start refinement around the basin --------------
    // Restart lanes × candidate batches: each restart's Nelder–Mead
    // evaluates candidate sets through one batched SweepRunner call, and
    // the whole driver is bit-identical to the sequential MultiStart.
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 120,
            ..NelderMead::default()
        }),
        restarts: 4,
        seed: 5,
        bounds: vec![
            (best_point.gammas[0] - 0.1, best_point.gammas[0] + 0.1),
            (best_point.betas[0] - 0.1, best_point.betas[0] + 0.1),
        ],
    };
    let refine_runner = SweepRunner::from_arc(
        Arc::clone(runner.simulator()),
        SweepOptions {
            exec: ExecPolicy::rayon(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let t = Instant::now();
    let refined = driver.minimize_batched(&|xs: &[Vec<f64>]| {
        let points: Vec<SweepPoint> = xs.iter().map(|x| SweepPoint::p1(x[0], x[1])).collect();
        refine_runner.energies(&points)
    });
    let sequential = driver.minimize(&|x: &[f64]| serial_sim.objective(&[x[0]], &[x[1]]));
    println!(
        "\nbatched multi-start refinement ({} restarts) in {:.2?}: <C> = {:.4} at (γ, β) = ({:.3}, {:.3})",
        driver.restarts,
        t.elapsed(),
        refined.best().best_f,
        refined.best().best_x[0],
        refined.best().best_x[1]
    );
    assert_eq!(refined.best_restart, sequential.best_restart);
    assert_eq!(
        refined.best().best_f.to_bits(),
        sequential.best().best_f.to_bits(),
        "lane-batched multi-start must match the sequential driver exactly"
    );
    assert!(
        refined.best().best_f <= scan.agg.min_energy().unwrap() + 1e-9,
        "refinement must not lose to the grid"
    );
    println!("sequential multi-start agrees: identical winner and best value");
}
