//! Cross-crate equivalence suite: every simulator in the workspace must
//! produce the same physics. The fast precomputed-diagonal simulator is
//! checked against the gate-based baseline (all compilation modes), the
//! distributed simulator, and the tensor-network contractor, on all three
//! problem families of the paper.

use qokit::dist::DistSimulator;
use qokit::gates::{CompiledMixer, GateSimOptions, GateSimulator, PhaseStyle};
use qokit::prelude::*;
use qokit::terms::{labs, maxcut, portfolio::PortfolioInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn serial_fur(poly: &SpinPolynomial) -> FurSimulator {
    FurSimulator::with_options(
        poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
}

fn problems() -> Vec<(&'static str, SpinPolynomial)> {
    let mut rng = StdRng::seed_from_u64(99);
    vec![
        ("labs-8", labs::labs_terms(8)),
        (
            "maxcut-3reg-10",
            maxcut::maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng)),
        ),
        ("maxcut-weighted-7", {
            let g = Graph::complete(7, 1.0).with_random_weights(0.2, 1.8, &mut rng);
            maxcut::maxcut_polynomial(&g)
        }),
        (
            "portfolio-8",
            PortfolioInstance::random(8, 3, 0.6, &mut rng).to_terms(),
        ),
    ]
}

#[test]
fn fast_simulator_matches_gate_baseline_on_all_problems() {
    let gammas = [0.17, 0.31];
    let betas = [-0.62, -0.28];
    for (name, poly) in problems() {
        let fast = serial_fur(&poly);
        let fast_state = fast.simulate_qaoa(&gammas, &betas);
        for style in [PhaseStyle::DecomposedCx, PhaseStyle::NativeDiagonal] {
            let gate = GateSimulator::new(
                poly.clone(),
                GateSimOptions {
                    style,
                    mixer: CompiledMixer::X,
                    exec: ExecPolicy::serial(),
                    fuse: false,
                },
            );
            let gate_state = gate.simulate_qaoa(&gammas, &betas);
            let diff = fast_state.state().max_abs_diff(&gate_state);
            assert!(diff < 1e-10, "{name} / {style:?}: max|Δψ| = {diff}");
            let de = (fast.get_expectation(&fast_state) - gate.expectation(&gate_state)).abs();
            assert!(de < 1e-9, "{name} / {style:?}: ΔE = {de}");
        }
    }
}

#[test]
fn fused_baseline_matches_unfused() {
    let poly = labs::labs_terms(9);
    let gammas = [0.21];
    let betas = [-0.55];
    let base = GateSimulator::new(
        poly.clone(),
        GateSimOptions {
            exec: ExecPolicy::serial(),
            ..GateSimOptions::default()
        },
    );
    let fused = GateSimulator::new(
        poly,
        GateSimOptions {
            fuse: true,
            exec: ExecPolicy::serial(),
            ..GateSimOptions::default()
        },
    );
    let a = base.simulate_qaoa(&gammas, &betas);
    let b = fused.simulate_qaoa(&gammas, &betas);
    assert!(a.max_abs_diff(&b) < 1e-10);
    assert!(fused.gates_per_layer() < base.gates_per_layer());
}

#[test]
fn distributed_matches_fast_simulator() {
    for (name, poly) in problems() {
        let n = poly.n_vars();
        let fast = serial_fur(&poly);
        let gammas = [0.4, 0.1];
        let betas = [-0.3, -0.7];
        let reference = fast.simulate_qaoa(&gammas, &betas);
        let max_ranks = 1usize << (n / 2).min(4);
        let dist = DistSimulator::new(poly.clone(), max_ranks).unwrap();
        let r = dist.simulate_qaoa(&gammas, &betas);
        assert!(
            r.state.max_abs_diff(reference.state()) < 1e-10,
            "{name} with K = {max_ranks}"
        );
        assert!((r.expectation - fast.get_expectation(&reference)).abs() < 1e-9);
        assert!((r.overlap - fast.get_overlap(&reference)).abs() < 1e-9);
    }
}

#[test]
fn tensornet_amplitudes_match_fast_simulator() {
    let poly = labs::labs_terms(7);
    let gammas = [0.25, 0.1];
    let betas = [-0.5, -0.2];
    let fast = serial_fur(&poly);
    let state = fast.simulate_qaoa(&gammas, &betas);
    for x in [0u64, 17, 64, 127] {
        let (amp, _) = qokit::tensornet::qaoa_amplitude(&poly, &gammas, &betas, x, 30).unwrap();
        let expect = state.state().amplitudes()[x as usize];
        assert!(amp.approx_eq(expect, 1e-9), "x = {x}: {amp} vs {expect}");
    }
}

#[test]
fn precompute_methods_agree_at_pipeline_level() {
    for (name, poly) in problems() {
        let a = FurSimulator::with_options(
            &poly,
            SimOptions {
                precompute: PrecomputeMethod::Direct,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        let b = FurSimulator::with_options(
            &poly,
            SimOptions {
                precompute: PrecomputeMethod::Fwht,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        let ra = a.simulate_qaoa(&[0.3], &[-0.4]);
        let rb = b.simulate_qaoa(&[0.3], &[-0.4]);
        assert!(ra.state().max_abs_diff(rb.state()) < 1e-9, "{name}");
    }
}

#[test]
fn quantized_pipeline_matches_f64_for_labs() {
    let poly = labs::labs_terms(10);
    let plain = serial_fur(&poly);
    let quant = FurSimulator::with_options(
        &poly,
        SimOptions {
            quantize_u16: true,
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let CostVec::Levels { levels, .. } = quant.cost_diagonal() else {
        panic!("the §V-B grid is level-coded");
    };
    assert_eq!(
        quant.cost_diagonal().memory_bytes(),
        2 * 1024 + 8 * levels.len()
    );
    let (g, b) = qokit::optim::schedules::linear_ramp(5, 0.4);
    let rp = plain.simulate_qaoa(&g, &b);
    let rq = quant.simulate_qaoa(&g, &b);
    assert!(rp.state().max_abs_diff(rq.state()) < 1e-9);
    assert!((plain.get_overlap(&rp) - quant.get_overlap(&rq)).abs() < 1e-9);
}

#[test]
fn xy_mixer_gate_baseline_matches_fast_simulator() {
    // XY-ring mixer through the gate path (U2 gates) vs the fast SU(4)
    // kernels, starting from the same Dicke state.
    let poly = maxcut::maxcut_polynomial(&Graph::ring(7, 1.0));
    let fast = FurSimulator::with_options(
        &poly,
        SimOptions {
            mixer: Mixer::XyRing,
            initial: InitialState::Dicke(3),
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let r = fast.simulate_qaoa(&[0.3], &[-0.8]);

    // Gate path: phase gates then compiled XY mixer, applied to the same
    // initial state.
    let mut state = StateVec::dicke_state(7, 3);
    for g in qokit::gates::compile_phase(&poly, 0.3, PhaseStyle::NativeDiagonal) {
        g.apply(state.amplitudes_mut(), ExecPolicy::serial());
    }
    for g in qokit::gates::compile_mixer(7, -0.8, CompiledMixer::XyRing) {
        g.apply(state.amplitudes_mut(), ExecPolicy::serial());
    }
    assert!(r.state().max_abs_diff(&state) < 1e-10);
}

#[test]
fn parallel_backend_full_pipeline_agrees() {
    let poly = labs::labs_terms(13);
    let serial = serial_fur(&poly);
    let parallel = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::rayon(),
            ..SimOptions::default()
        },
    );
    let (g, b) = qokit::optim::schedules::linear_ramp(4, 0.35);
    let rs = serial.simulate_qaoa(&g, &b);
    let rp = parallel.simulate_qaoa(&g, &b);
    assert!(rs.state().max_abs_diff(rp.state()) < 1e-10);
    assert!((serial.get_expectation(&rs) - parallel.get_expectation(&rp)).abs() < 1e-9);
}
