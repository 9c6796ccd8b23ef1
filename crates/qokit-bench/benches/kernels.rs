//! Criterion micro-benchmarks for the hot kernels behind every figure:
//! Algorithm 1/2 butterflies (interleaved generic and the split-plane X
//! mixer every objective runs), the precomputed phase operator, the
//! objective inner product, FWHT, the SU(4) XY rotation, and the two
//! precompute algorithms. `cargo bench -p qokit-bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qokit_core::Mixer;
use qokit_costvec::{precompute_direct, precompute_fwht, CostVec};
use qokit_gates::{GateSimOptions, GateSimulator, PhaseStyle};
use qokit_statevec::su2::{apply_uniform_mat2, apply_x_mixer_split};
use qokit_statevec::su4::apply_xy;
use qokit_statevec::{ExecPolicy, Mat2, SplitStateVec, StateVec};
use qokit_terms::labs::labs_terms;
use std::time::Duration;

fn configured<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    g
}

fn bench_mixer(c: &mut Criterion) {
    let mut g = configured(c, "x_mixer_layer");
    // The X mixer alone also at n = 10, the `scan_maxcut` benchmark's size.
    let mut small = SplitStateVec::uniform_superposition(10);
    g.bench_with_input(BenchmarkId::new("x_mixer_split", 10), &10, |b, _| {
        b.iter(|| {
            let (re, im) = small.planes_mut();
            apply_x_mixer_split(re, im, 0.3, ExecPolicy::serial())
        });
    });
    for &n in &[14usize, 18] {
        let mut state = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("algorithm2_serial", n), &n, |b, _| {
            b.iter(|| {
                apply_uniform_mat2(state.amplitudes_mut(), &Mat2::rx(0.3), ExecPolicy::serial())
            });
        });
        let mut state2 = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("algorithm2_rayon", n), &n, |b, _| {
            b.iter(|| {
                apply_uniform_mat2(state2.amplitudes_mut(), &Mat2::rx(0.3), ExecPolicy::rayon())
            });
        });
        let mut planes = SplitStateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("x_mixer_split", n), &n, |b, _| {
            b.iter(|| {
                let (re, im) = planes.planes_mut();
                apply_x_mixer_split(re, im, 0.3, ExecPolicy::serial())
            });
        });
        let mut state3 = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("fwht_sandwich", n), &n, |b, _| {
            b.iter(|| {
                qokit_statevec::fwht::apply_x_mixer_fwht_inplace(
                    state3.amplitudes_mut(),
                    0.3,
                    ExecPolicy::rayon(),
                )
            });
        });
    }
    g.finish();
}

fn bench_phase_and_expectation(c: &mut Criterion) {
    let mut g = configured(c, "phase_operator");
    for &n in &[14usize, 18] {
        let poly = labs_terms(n);
        let costs = CostVec::F64(precompute_fwht(&poly, ExecPolicy::rayon()));
        let levels = CostVec::from_f64(costs.to_f64_vec());
        let mut state = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("apply_f64", n), &n, |b, _| {
            b.iter(|| costs.apply_phase(state.amplitudes_mut(), 0.2, ExecPolicy::rayon()));
        });
        let mut state2 = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("apply_levels", n), &n, |b, _| {
            b.iter(|| levels.apply_phase(state2.amplitudes_mut(), 0.2, ExecPolicy::rayon()));
        });
        let state3 = StateVec::uniform_superposition(n);
        g.bench_with_input(BenchmarkId::new("expectation", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(costs.expectation(state3.amplitudes(), ExecPolicy::rayon()))
            });
        });
    }
    g.finish();
}

fn bench_precompute(c: &mut Criterion) {
    let mut g = configured(c, "precompute");
    for &n in &[14usize, 16] {
        let poly = labs_terms(n);
        g.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(precompute_direct(&poly, ExecPolicy::rayon())));
        });
        g.bench_with_input(BenchmarkId::new("fwht", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(precompute_fwht(&poly, ExecPolicy::rayon())));
        });
    }
    g.finish();
}

fn bench_xy_gate(c: &mut Criterion) {
    let mut g = configured(c, "xy_rotation");
    let n = 16;
    let mut state = StateVec::dicke_state(n, n / 2);
    g.bench_function("su4_pair", |b| {
        b.iter(|| apply_xy(state.amplitudes_mut(), 3, 11, 0.4, ExecPolicy::rayon()));
    });
    let mut state2 = StateVec::dicke_state(n, n / 2);
    g.bench_function("ring_mixer_layer", |b| {
        b.iter(|| Mixer::XyRing.apply(state2.amplitudes_mut(), 0.4, ExecPolicy::rayon()));
    });
    g.finish();
}

fn bench_layer_comparison(c: &mut Criterion) {
    // The Fig. 3 comparison in miniature: one LABS layer.
    let mut g = configured(c, "labs_layer_n12");
    let n = 12;
    let poly = labs_terms(n);
    let costs = CostVec::F64(precompute_fwht(&poly, ExecPolicy::rayon()));
    let mut state = StateVec::uniform_superposition(n);
    g.bench_function("qokit", |b| {
        b.iter(|| {
            costs.apply_phase(state.amplitudes_mut(), 0.2, ExecPolicy::rayon());
            Mixer::X.apply(state.amplitudes_mut(), -0.4, ExecPolicy::rayon());
        });
    });
    let gate = GateSimulator::new(
        poly.clone(),
        GateSimOptions {
            exec: ExecPolicy::rayon(),
            ..GateSimOptions::default()
        },
    );
    let mut gstate = StateVec::uniform_superposition(n);
    g.bench_function("gate_decomposed", |b| {
        b.iter(|| gate.apply_layer(&mut gstate, 0.2, -0.4));
    });
    let native = GateSimulator::new(
        poly,
        GateSimOptions {
            exec: ExecPolicy::rayon(),
            style: PhaseStyle::NativeDiagonal,
            ..GateSimOptions::default()
        },
    );
    let mut nstate = StateVec::uniform_superposition(n);
    g.bench_function("gate_native_diag", |b| {
        b.iter(|| native.apply_layer(&mut nstate, 0.2, -0.4));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mixer,
    bench_phase_and_expectation,
    bench_precompute,
    bench_xy_gate,
    bench_layer_comparison
);
criterion_main!(benches);
