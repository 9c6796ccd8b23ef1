//! Planes-native objective pins: every objective path that now runs on
//! split planes end to end (`SweepRunner` energies, `FurSimulator::objective`)
//! must give the bits of the interleaved route — evolve an interleaved
//! `StateVec` with `Layout::Interleaved` kernels, then take the interleaved
//! expectation.
//!
//! The interleaved reference runs its kernels at the width the sweep's
//! points ran at (serial for serial and points-parallel sweeps, the pool
//! width otherwise), so parallel reductions split along the same tree.
//! n = 13 and 14 reach the parallel kernels under the default `min_len`.

use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use qokit::terms::maxcut::maxcut_polynomial;

fn problems() -> Vec<(&'static str, SpinPolynomial)> {
    vec![
        ("labs8", labs_terms(8)),
        ("ring10", maxcut_polynomial(&Graph::ring(10, 1.0))),
        ("labs13", labs_terms(13)),
        ("ring14", maxcut_polynomial(&Graph::ring(14, 1.0))),
    ]
}

/// A normalized state with no structure the kernels could exploit.
fn custom_state(n: usize) -> StateVec {
    let amps = (0..1usize << n)
        .map(|x| {
            let t = x as f64;
            C64::new((0.37 * t + 0.1).sin(), (1.91 * t - 0.4).cos())
        })
        .collect();
    let mut s = StateVec::from_amplitudes(amps);
    s.normalize();
    s
}

fn initial_states(n: usize) -> Vec<(&'static str, InitialState)> {
    vec![
        ("auto", InitialState::Auto),
        ("dicke", InitialState::Dicke(n / 2 - 1)),
        ("basis", InitialState::Basis(5)),
        ("custom", InitialState::Custom(custom_state(n))),
    ]
}

fn points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(vec![0.31, -0.17], vec![0.62, 0.24]),
        SweepPoint::new(vec![-0.45, 0.08], vec![0.13, -0.71]),
    ]
}

/// The interleaved route for one point, kernels under `kernels`.
fn interleaved_energy(sim: &FurSimulator, point: &SweepPoint, kernels: ExecPolicy) -> f64 {
    let policy = kernels.with_layout(Layout::Interleaved);
    let mut state = sim.initial_state();
    sim.evolve_in_place_with(&mut state, &point.gammas, &point.betas, policy);
    policy.install(|| sim.cost_diagonal().expectation(state.amplitudes(), policy))
}

/// `(label, sweep options, kernel policy each point runs under)`.
fn sweep_configs() -> Vec<(&'static str, SweepOptions, ExecPolicy)> {
    vec![
        (
            "serial",
            SweepOptions {
                exec: ExecPolicy::serial(),
                nested: SweepNesting::Auto,
            },
            ExecPolicy::serial(),
        ),
        (
            "points-parallel",
            SweepOptions {
                exec: ExecPolicy::rayon().with_threads(2),
                nested: SweepNesting::PointsParallel,
            },
            ExecPolicy::serial(),
        ),
        (
            "kernels-parallel",
            SweepOptions {
                exec: ExecPolicy::rayon().with_threads(3),
                nested: SweepNesting::KernelsParallel,
            },
            ExecPolicy::rayon().with_threads(3),
        ),
    ]
}

#[test]
fn sweep_energies_have_the_bits_of_the_interleaved_route() {
    let pts = points();
    for (name, poly) in problems() {
        let n = poly.n_vars();
        for mixer in [Mixer::X, Mixer::XyRing, Mixer::XyComplete] {
            for (init, initial) in initial_states(n) {
                let sim = FurSimulator::with_options(
                    &poly,
                    SimOptions {
                        mixer,
                        exec: ExecPolicy::serial(),
                        initial,
                        ..SimOptions::default()
                    },
                );
                for (label, opts, kernels) in sweep_configs() {
                    let runner = SweepRunner::with_options(sim.clone(), opts);
                    let got = runner.energies(&pts);
                    for (i, (point, e)) in pts.iter().zip(&got).enumerate() {
                        let want = interleaved_energy(&sim, point, kernels);
                        assert_eq!(
                            e.to_bits(),
                            want.to_bits(),
                            "{name} {mixer:?} {init} {label} point {i}: {e} vs {want}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn objective_has_the_bits_of_simulate_then_expectation() {
    let (g, b) = ([0.21, -0.4, 0.33], [0.5, 0.12, -0.27]);
    for (name, poly) in problems() {
        let n = poly.n_vars();
        for mixer in [Mixer::X, Mixer::XyRing] {
            for (init, initial) in initial_states(n) {
                for exec in [ExecPolicy::serial(), ExecPolicy::rayon().with_threads(2)] {
                    for layout in [Layout::Split, Layout::Interleaved] {
                        let sim = FurSimulator::with_options(
                            &poly,
                            SimOptions {
                                mixer,
                                exec: exec.with_layout(layout),
                                initial: initial.clone(),
                                ..SimOptions::default()
                            },
                        );
                        let two_step = sim.get_expectation(&sim.simulate_qaoa(&g, &b));
                        assert_eq!(
                            sim.objective(&g, &b).to_bits(),
                            two_step.to_bits(),
                            "{name} {mixer:?} {init} {layout:?} {:?}",
                            exec.threads
                        );
                    }
                }
            }
        }
    }
}
