//! Run-shared sweeps: consecutive points whose first γ has the same bits
//! share one phased start state, and each point's energy must still carry
//! the exact bits of a one-at-a-time `FurSimulator::objective` call.
//!
//! The batches mix runs of length 1, 2 and many, p = 2 points that share
//! γ₁ but differ in γ₂, and empty schedules; they run under the X and
//! XY-ring mixers from Auto, Dicke and Custom initial states, with a
//! serial runner, a forced 2-worker points-parallel pool, and a 2-worker
//! kernels-parallel pool. The kernels-parallel reference is `objective` on
//! a simulator whose own policy is that 2-worker pool, so both sides split
//! their reductions the same way.

use qokit::core::batch::SweepError;
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;

const N: usize = 6;

/// Runs of 1, 2 and 5 points at p = 1, then a run of 4 p = 2 points that
/// share γ₁ = 0.3 but differ in γ₂, an empty schedule, and a lone point.
fn batch() -> Vec<SweepPoint> {
    let mut points = vec![SweepPoint::p1(-0.7, 0.4)];
    points.extend((0..2).map(|j| SweepPoint::p1(0.2, 0.1 + 0.3 * j as f64)));
    points.extend((0..5).map(|j| SweepPoint::p1(0.45, -0.5 + 0.2 * j as f64)));
    points.extend(
        (0..4).map(|j| SweepPoint::new(vec![0.3, -0.2 + 0.15 * j as f64], vec![0.6, 0.25])),
    );
    points.push(SweepPoint::new(vec![], vec![]));
    points.push(SweepPoint::p1(0.45, 0.9));
    points
}

/// A normalized state with distinct, complex amplitudes.
fn custom_state() -> StateVec {
    let amps = (0..1usize << N)
        .map(|x| C64::new(1.0 + (x % 5) as f64, 0.5 * (x % 3) as f64 - 0.4))
        .collect();
    let mut state = StateVec::from_amplitudes(amps);
    state.normalize();
    state
}

fn sim(mixer: Mixer, initial: InitialState, exec: ExecPolicy) -> FurSimulator {
    FurSimulator::with_options(
        &labs_terms(N),
        SimOptions {
            mixer,
            exec,
            initial,
            ..SimOptions::default()
        },
    )
}

/// `(sweep options, policy of the reference simulator)` for every nesting.
fn policies() -> [(SweepOptions, ExecPolicy); 3] {
    let two = ExecPolicy::rayon()
        .with_threads(2)
        .with_min_len(1)
        .with_min_chunk(4);
    let serial = SweepOptions {
        exec: ExecPolicy::serial(),
        nested: SweepNesting::PointsParallel,
    };
    let points = SweepOptions {
        exec: two,
        nested: SweepNesting::PointsParallel,
    };
    let kernels = SweepOptions {
        exec: two,
        nested: SweepNesting::KernelsParallel,
    };
    [
        (serial, ExecPolicy::serial()),
        (points, ExecPolicy::serial()),
        (kernels, two),
    ]
}

fn setups() -> Vec<(Mixer, InitialState)> {
    vec![
        (Mixer::X, InitialState::Auto),
        (Mixer::X, InitialState::Dicke(2)),
        (Mixer::X, InitialState::Custom(custom_state())),
        (Mixer::XyRing, InitialState::Auto),
        (Mixer::XyRing, InitialState::Dicke(2)),
        (Mixer::XyRing, InitialState::Custom(custom_state())),
    ]
}

#[test]
fn run_shared_energies_have_objective_bits() {
    let points = batch();
    for (mixer, initial) in setups() {
        for (opts, reference_exec) in policies() {
            let reference = sim(mixer, initial.clone(), reference_exec);
            let runner =
                SweepRunner::with_options(sim(mixer, initial.clone(), reference_exec), opts);
            let got = runner.energies(&points);
            assert_eq!(got.len(), points.len());
            for (i, (p, e)) in points.iter().zip(&got).enumerate() {
                assert_eq!(
                    e.to_bits(),
                    reference.objective(&p.gammas, &p.betas).to_bits(),
                    "{mixer:?} / {initial:?} / {:?} x{}: point {i}",
                    opts.nested,
                    opts.exec.threads,
                );
            }
        }
    }
}

#[test]
fn mismatched_schedule_mid_run_poisons_only_itself() {
    // Five points share γ₁ = 0.35; the middle one carries two γ but one β.
    let mut points: Vec<SweepPoint> = (0..5)
        .map(|j| SweepPoint::p1(0.35, 0.1 * j as f64))
        .collect();
    points[2] = SweepPoint::new(vec![0.35, 0.2], vec![0.2]);
    for (opts, reference_exec) in policies() {
        let reference = sim(Mixer::X, InitialState::Auto, reference_exec);
        let runner =
            SweepRunner::with_options(sim(Mixer::X, InitialState::Auto, reference_exec), opts);
        for (i, result) in runner.energies_checked(&points).into_iter().enumerate() {
            if i == 2 {
                assert!(
                    matches!(result, Err(SweepError::PointPanicked { index: 2, .. })),
                    "{:?}: {result:?}",
                    opts.nested
                );
            } else {
                let p = &points[i];
                assert_eq!(
                    result
                        .expect("neighbours of the poisoned point survive")
                        .to_bits(),
                    reference.objective(&p.gammas, &p.betas).to_bits(),
                    "{:?}: point {i}",
                    opts.nested
                );
            }
        }
    }
}
