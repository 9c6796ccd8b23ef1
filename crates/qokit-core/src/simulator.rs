//! The QOKit-style fast QAOA simulator (Algorithm 3 of the paper) and the
//! simulator API mirroring `qokit.fur.QAOAFastSimulatorBase`.

use crate::mixers::Mixer;
use qokit_costvec::{CostVec, PrecomputeMethod};
use qokit_statevec::exec::{ExecPolicy, Layout};
use qokit_statevec::{SplitStateVec, StateVec, C64};
use qokit_terms::SpinPolynomial;

/// Initial state selection.
#[derive(Clone, Debug)]
pub enum InitialState {
    /// Resolve automatically: `|+⟩^{⊗n}` for the X mixer, the half-filled
    /// Dicke state `|D^n_{⌊n/2⌋}⟩` for the XY mixers.
    Auto,
    /// The uniform superposition `|+⟩^{⊗n}`.
    UniformSuperposition,
    /// The Dicke state `|D^n_k⟩` (uniform over Hamming weight `k`).
    Dicke(usize),
    /// A computational basis state `|x⟩`.
    Basis(usize),
    /// An arbitrary caller-supplied state (must have the right dimension).
    Custom(StateVec),
}

/// Configuration for [`FurSimulator`] (fur = "fast uniform rotation", the
/// name of QOKit's simulator family).
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Mixing operator.
    pub mixer: Mixer,
    /// Execution policy for every kernel: worker count (`1` = serial) and
    /// split thresholds.
    pub exec: ExecPolicy,
    /// Cost-vector precompute algorithm.
    pub precompute: PrecomputeMethod,
    /// Store the diagonal on the §V-B grid `min + k` (step 1), level-coded
    /// with up to 65536 levels ([`CostVec::quantize_exact`]), when every
    /// cost lies on it. Otherwise, and when unset (the default), the
    /// diagonal is stored by [`CostVec::from_f64`]: level-coded whenever it
    /// has at most `min(65536, 2^n/4)` distinct values, `f64` above that.
    /// Both codings are exact, so on grid costs the objective is
    /// bit-identical either way.
    pub quantize_u16: bool,
    /// Initial state.
    pub initial: InitialState,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            mixer: Mixer::X,
            exec: ExecPolicy::auto(),
            precompute: PrecomputeMethod::Fwht,
            quantize_u16: false,
            initial: InitialState::Auto,
        }
    }
}

/// The initial state as the start path reads it
/// ([`FurSimulator::write_start`]).
pub(crate) enum Start {
    /// `|+⟩^{⊗n}`, written together with the first phase and never stored.
    Uniform,
    /// Any other initial state, filled into planes once.
    Planes(SplitStateVec),
}

/// The result object returned by `simulate_qaoa`: a representation of the
/// evolved state vector. Use the simulator's `get_*` methods to extract
/// portable outputs (mirrors QOKit's result-object convention).
#[derive(Clone, Debug)]
pub struct SimResult {
    state: StateVec,
}

impl SimResult {
    /// Wraps an evolved state.
    pub fn new(state: StateVec) -> Self {
        SimResult { state }
    }

    /// Read-only view of the evolved state.
    pub fn state(&self) -> &StateVec {
        &self.state
    }

    /// Consumes the result, yielding the state.
    pub fn into_state(self) -> StateVec {
        self.state
    }
}

/// The simulator API shared by the fast (QOKit) simulator and the
/// gate-based baseline — the Rust analogue of
/// `qokit.fur.QAOAFastSimulatorBase`.
pub trait QaoaSimulator {
    /// Number of qubits.
    fn n_qubits(&self) -> usize;

    /// The precomputed cost diagonal (QOKit's `get_cost_diagonal()`).
    fn cost_diagonal(&self) -> &CostVec;

    /// Simulates the `p`-layer QAOA circuit
    /// `Π_l e^{-iβ_l M̂} e^{-iγ_l Ĉ} |init⟩`.
    ///
    /// # Panics
    /// If `gammas.len() != betas.len()`.
    fn simulate_qaoa(&self, gammas: &[f64], betas: &[f64]) -> SimResult;

    /// The QAOA objective `⟨ψ|Ĉ|ψ⟩` (QOKit's `get_expectation`).
    fn get_expectation(&self, result: &SimResult) -> f64 {
        self.cost_diagonal()
            .expectation(result.state().amplitudes(), ExecPolicy::auto())
    }

    /// Ground-state overlap `Σ_{x: c_x = min} |ψ_x|²` (QOKit's
    /// `get_overlap`).
    fn get_overlap(&self, result: &SimResult) -> f64 {
        self.cost_diagonal().overlap(result.state().amplitudes())
    }

    /// The full state vector (QOKit's `get_statevector`).
    fn get_statevector(&self, result: &SimResult) -> Vec<C64> {
        result.state().amplitudes().to_vec()
    }

    /// Measurement probabilities, preserving the result (QOKit's
    /// `get_probabilities(..., preserve_state=True)`).
    fn get_probabilities(&self, result: &SimResult) -> Vec<f64> {
        result.state().probabilities()
    }

    /// Measurement probabilities, consuming the result and reusing its
    /// memory (`preserve_state=False`).
    // `into_` consumes the *result*, not `self`; the name mirrors QOKit's
    // preserve_state=False API.
    #[allow(clippy::wrong_self_convention)]
    fn into_probabilities(&self, result: SimResult) -> Vec<f64> {
        result.into_state().into_probabilities()
    }

    /// Convenience: simulate and return the objective in one call — the
    /// cost function handed to parameter optimizers (Fig. 1 of the paper).
    fn objective(&self, gammas: &[f64], betas: &[f64]) -> f64 {
        let r = self.simulate_qaoa(gammas, betas);
        self.get_expectation(&r)
    }
}

/// The fast QAOA simulator: precomputed diagonal phase operator + fast
/// uniform SU(2)/SU(4) mixer transforms (Algorithm 3).
#[derive(Clone, Debug)]
pub struct FurSimulator {
    n: usize,
    costs: CostVec,
    options: SimOptions,
}

impl FurSimulator {
    /// Builds a simulator for a cost polynomial with default options
    /// (X mixer, [`ExecPolicy::auto`], FWHT precompute).
    pub fn new(poly: &SpinPolynomial) -> Self {
        Self::with_options(poly, SimOptions::default())
    }

    /// Builds a simulator with explicit options. The cost diagonal is
    /// precomputed (and level-coded or quantized) here, at construction —
    /// the "Precompute diagonal" box of Fig. 1.
    pub fn with_options(poly: &SpinPolynomial, options: SimOptions) -> Self {
        let costs_f64 = qokit_costvec::precompute(poly, options.precompute, options.exec);
        let costs = if options.quantize_u16 {
            match CostVec::quantize_exact(&costs_f64, 1.0) {
                Ok(q) => q,
                Err(_) => CostVec::from_f64(costs_f64),
            }
        } else {
            CostVec::from_f64(costs_f64)
        };
        FurSimulator {
            n: poly.n_vars(),
            costs,
            options,
        }
    }

    /// Builds a simulator from an existing precomputed diagonal — QOKit's
    /// `costs=` constructor argument.
    ///
    /// # Panics
    /// If the vector length is not `2^n` for some `n`.
    pub fn from_cost_vector(costs: CostVec, options: SimOptions) -> Self {
        assert!(
            costs.len().is_power_of_two(),
            "cost vector length must be a power of two"
        );
        let n = costs.n_qubits();
        FurSimulator { n, costs, options }
    }

    /// The configured options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// Resolves the configured initial state into a concrete vector.
    pub fn initial_state(&self) -> StateVec {
        match &self.options.initial {
            InitialState::Auto => match self.options.mixer {
                Mixer::X => StateVec::uniform_superposition(self.n),
                Mixer::XyRing | Mixer::XyComplete => StateVec::dicke_state(self.n, self.n / 2),
            },
            InitialState::UniformSuperposition => StateVec::uniform_superposition(self.n),
            InitialState::Dicke(k) => StateVec::dicke_state(self.n, *k),
            InitialState::Basis(x) => StateVec::basis_state(self.n, *x),
            InitialState::Custom(s) => {
                assert_eq!(
                    s.n_qubits(),
                    self.n,
                    "custom initial state has wrong qubit count"
                );
                s.clone()
            }
        }
    }

    /// The configured initial state on split planes. The uniform and basis
    /// states are filled straight into the planes; Dicke and custom states
    /// are built interleaved and transposed once.
    fn initial_planes(&self) -> SplitStateVec {
        match (&self.options.initial, self.options.mixer) {
            (InitialState::Auto, Mixer::X) | (InitialState::UniformSuperposition, _) => {
                SplitStateVec::uniform_superposition(self.n)
            }
            (InitialState::Basis(x), _) => SplitStateVec::basis_state(self.n, *x),
            _ => SplitStateVec::from(&self.initial_state()),
        }
    }

    /// The configured initial state as [`write_start`](Self::write_start)
    /// reads it: `|+⟩` is never stored, any other state is filled into
    /// planes once, for every start to copy.
    pub(crate) fn start(&self) -> Start {
        match (&self.options.initial, self.options.mixer) {
            (InitialState::Auto, Mixer::X) | (InitialState::UniformSuperposition, _) => {
                Start::Uniform
            }
            _ => Start::Planes(self.initial_planes()),
        }
    }

    /// The one start path: overwrites `state` with `e^{-iγ₁Ĉ}|ψ₀⟩` for
    /// `gamma = Some(γ₁)`, or with `|ψ₀⟩` itself for a `p = 0` schedule
    /// (`None`). From `|+⟩` that is one write-only pass with the bits of a
    /// fill and [`first_phase`](Self::first_phase); any other start is
    /// copied and then phased. Runs on the calling thread's pool: callers
    /// install `policy` first.
    pub(crate) fn write_start(
        &self,
        start: &Start,
        state: &mut SplitStateVec,
        gamma: Option<f64>,
        policy: ExecPolicy,
    ) {
        match (start, gamma) {
            (Start::Uniform, Some(gamma)) => {
                let (re, im) = state.planes_mut();
                self.costs.write_phased_uniform_split(re, im, gamma, policy);
            }
            (Start::Uniform, None) => {
                *state = SplitStateVec::uniform_superposition(self.n);
            }
            (Start::Planes(init), gamma) => {
                state.copy_from(init);
                if let Some(gamma) = gamma {
                    self.first_phase(state, gamma, policy);
                }
            }
        }
    }

    /// The `p` QAOA layers from `start`, written into `state` (whose
    /// contents are overwritten): [`write_start`](Self::write_start), then
    /// [`evolve_after_first_phase`](Self::evolve_after_first_phase).
    pub(crate) fn evolve_from(
        &self,
        start: &Start,
        state: &mut SplitStateVec,
        gammas: &[f64],
        betas: &[f64],
        policy: ExecPolicy,
    ) {
        self.check_schedule(state.n_qubits(), gammas, betas);
        policy.install(|| {
            self.write_start(start, state, gammas.first().copied(), policy);
            self.evolve_after_first_phase(state, gammas, betas, policy);
        });
    }

    /// A new plane state evolved by the `p` QAOA layers from the
    /// configured initial state: the objective's, an observer's first
    /// layer's and a light-cone cone's state.
    pub(crate) fn evolved(
        &self,
        gammas: &[f64],
        betas: &[f64],
        policy: ExecPolicy,
    ) -> SplitStateVec {
        match self.start() {
            Start::Uniform => {
                let mut state = SplitStateVec::zero_state(self.n);
                self.evolve_from(&Start::Uniform, &mut state, gammas, betas, policy);
                state
            }
            Start::Planes(mut state) => {
                self.evolve_planes(&mut state, gammas, betas, policy);
                state
            }
        }
    }

    /// Applies the `p` QAOA layers to an existing state in place — exposed
    /// so benchmarks can time layers without re-allocating initial states.
    ///
    /// Runs under the policy's executor: when [`ExecPolicy::threads`] is
    /// set, the whole evolution is installed into a pool of that size so
    /// every kernel splits across exactly those workers.
    pub fn evolve_in_place(&self, state: &mut StateVec, gammas: &[f64], betas: &[f64]) {
        self.evolve_in_place_with(state, gammas, betas, self.options.exec);
    }

    /// As [`evolve_in_place`](Self::evolve_in_place), but under an explicit
    /// policy instead of the constructed one. This is the hook batched
    /// sweeps use: one shared simulator, many concurrent evaluations, each
    /// with its own kernel policy (serial inside point-parallel sweeps,
    /// parallel inside kernel-parallel ones).
    ///
    /// Under the default [`Layout::Split`] the state is transposed to
    /// split-complex planes once, all `p` layers run on the plane-wise
    /// kernel twins, and the result is written back once — two `O(2^n)`
    /// passes amortized over the whole circuit. An explicit
    /// [`Layout::Interleaved`] runs the interleaved twins in place instead.
    /// Both layouts give the same bits; `p = 0` skips the round trip.
    /// Objectives and sweeps skip the interleaved state altogether (see
    /// [`QaoaSimulator::objective`] and [`crate::batch::SweepRunner`]).
    pub fn evolve_in_place_with(
        &self,
        state: &mut StateVec,
        gammas: &[f64],
        betas: &[f64],
        policy: ExecPolicy,
    ) {
        self.check_schedule(state.n_qubits(), gammas, betas);
        if gammas.is_empty() {
            return;
        }
        if policy.layout == Layout::Split {
            let mut split = SplitStateVec::from_interleaved(state.amplitudes());
            self.evolve_planes(&mut split, gammas, betas, policy);
            split.write_interleaved(state.amplitudes_mut());
            return;
        }
        policy.install(|| {
            for (&gamma, &beta) in gammas.iter().zip(betas.iter()) {
                self.costs
                    .apply_phase(state.amplitudes_mut(), gamma, policy);
                self.options
                    .mixer
                    .apply(state.amplitudes_mut(), beta, policy);
            }
        });
    }

    /// The `p` QAOA layers on split planes, in place, under `policy`:
    /// [`first_phase`](Self::first_phase), then
    /// [`evolve_after_first_phase`](Self::evolve_after_first_phase). The
    /// path for a state that already holds its start; an evolution from
    /// the initial state takes [`evolve_from`](Self::evolve_from).
    pub(crate) fn evolve_planes(
        &self,
        state: &mut SplitStateVec,
        gammas: &[f64],
        betas: &[f64],
        policy: ExecPolicy,
    ) {
        policy.install(|| {
            if let Some(&gamma) = gammas.first() {
                self.first_phase(state, gamma, policy);
            }
            self.evolve_after_first_phase(state, gammas, betas, policy);
        });
    }

    /// `e^{-iγ₁Ĉ}` on split planes, in place. The state it leaves depends on
    /// `γ₁` alone, so sweep points that share `γ₁` can share it. Runs on
    /// the calling thread's pool: callers install `policy` first.
    pub(crate) fn first_phase(&self, state: &mut SplitStateVec, gamma: f64, policy: ExecPolicy) {
        let (re, im) = state.planes_mut();
        self.costs.apply_phase_split(re, im, gamma, policy);
    }

    /// Everything after [`first_phase`](Self::first_phase): the mixer at
    /// `β₁`, then layers `2..p`. A `p = 0` schedule is a no-op. Runs on the
    /// calling thread's pool: callers install `policy` first.
    ///
    /// # Panics
    /// If the schedule lengths differ or `state` has the wrong qubit count.
    pub(crate) fn evolve_after_first_phase(
        &self,
        state: &mut SplitStateVec,
        gammas: &[f64],
        betas: &[f64],
        policy: ExecPolicy,
    ) {
        self.check_schedule(state.n_qubits(), gammas, betas);
        let Some((&beta, betas)) = betas.split_first() else {
            return;
        };
        let (re, im) = state.planes_mut();
        self.options.mixer.apply_split(re, im, beta, policy);
        for (&gamma, &beta) in gammas[1..].iter().zip(betas) {
            self.costs.apply_phase_split(re, im, gamma, policy);
            self.options.mixer.apply_split(re, im, beta, policy);
        }
    }

    /// `⟨ψ|Ĉ|ψ⟩` of a plane state under the constructed policy — the same
    /// reduction [`QaoaSimulator::get_expectation`] runs on an interleaved
    /// state, with the same bits.
    pub(crate) fn expectation_planes(&self, state: &SplitStateVec) -> f64 {
        let policy = self.options.exec;
        let (re, im) = state.planes();
        policy.install(|| self.costs.expectation_split(re, im, policy))
    }

    fn check_schedule(&self, n_qubits: usize, gammas: &[f64], betas: &[f64]) {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta must have the same length p"
        );
        assert_eq!(n_qubits, self.n, "state has wrong qubit count");
    }
}

impl QaoaSimulator for FurSimulator {
    fn n_qubits(&self) -> usize {
        self.n
    }

    fn cost_diagonal(&self) -> &CostVec {
        &self.costs
    }

    fn simulate_qaoa(&self, gammas: &[f64], betas: &[f64]) -> SimResult {
        let mut state = self.initial_state();
        self.evolve_in_place(&mut state, gammas, betas);
        SimResult::new(state)
    }

    fn get_expectation(&self, result: &SimResult) -> f64 {
        let policy = self.options.exec;
        policy.install(|| self.costs.expectation(result.state().amplitudes(), policy))
    }

    /// The objective on split planes end to end: the start is written
    /// into planes (from `|+⟩` in one pass together with the first phase),
    /// evolved, and reduced by the split objective, with no interleaved
    /// state. Bit-identical to `get_expectation(&simulate_qaoa(..))` under
    /// either layout.
    fn objective(&self, gammas: &[f64], betas: &[f64]) -> f64 {
        let state = self.evolved(gammas, betas, self.options.exec);
        self.expectation_planes(&state)
    }
}

/// QOKit's `choose_simulator(name=…)`: maps the Python simulator names to
/// the execution options of this reproduction.
///
/// | QOKit name | here |
/// |---|---|
/// | `"auto"` | `ExecPolicy::auto()` |
/// | `"python"`, `"c"` | serial CPU |
/// | `"nbcuda"`, `"gpu"` | rayon (our GPU stand-in) |
///
/// Returns `None` for unknown names (the distributed simulators live in
/// `qokit-dist`).
pub fn choose_simulator(name: &str) -> Option<SimOptions> {
    let exec = match name {
        "auto" => ExecPolicy::auto(),
        "python" | "c" => ExecPolicy::serial(),
        "nbcuda" | "gpu" => ExecPolicy::rayon(),
        _ => return None,
    };
    Some(SimOptions {
        exec,
        ..SimOptions::default()
    })
}

/// `choose_simulator_xyring()` analogue.
pub fn choose_simulator_xyring(name: &str) -> Option<SimOptions> {
    choose_simulator(name).map(|o| SimOptions {
        mixer: Mixer::XyRing,
        ..o
    })
}

/// `choose_simulator_xycomplete()` analogue.
pub fn choose_simulator_xycomplete(name: &str) -> Option<SimOptions> {
    choose_simulator(name).map(|o| SimOptions {
        mixer: Mixer::XyComplete,
        ..o
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::reference;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn serial_options() -> SimOptions {
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        }
    }

    #[test]
    fn p0_returns_initial_state_objective() {
        let poly = labs_terms(8);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let r = sim.simulate_qaoa(&[], &[]);
        // ⟨+|Ĉ|+⟩ = mean cost.
        let mean =
            sim.cost_diagonal().to_f64_vec().iter().sum::<f64>() / sim.cost_diagonal().len() as f64;
        assert!((sim.get_expectation(&r) - mean).abs() < 1e-9);
    }

    #[test]
    fn single_layer_matches_reference_pipeline() {
        let poly = maxcut_polynomial(&Graph::ring(6, 1.0));
        let sim = FurSimulator::with_options(&poly, serial_options());
        let (gamma, beta) = (0.4, 0.7);
        let r = sim.simulate_qaoa(&[gamma], &[beta]);

        // Independent pipeline built from reference kernels.
        let costs = sim.cost_diagonal().to_f64_vec();
        let mut expect = StateVec::uniform_superposition(6).into_amplitudes();
        expect = reference::apply_phase_reference(&expect, &costs, gamma);
        for q in 0..6 {
            expect = reference::apply_1q_reference(&expect, q, &qokit_statevec::Mat2::rx(beta));
        }
        for (a, b) in r.state().amplitudes().iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn norm_is_preserved_through_deep_circuits() {
        let poly = labs_terms(7);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let p = 50;
        let gammas: Vec<f64> = (0..p).map(|i| 0.01 * (i as f64 + 1.0)).collect();
        let betas: Vec<f64> = (0..p).map(|i| 0.7 - 0.01 * i as f64).collect();
        let r = sim.simulate_qaoa(&gammas, &betas);
        assert!((r.state().norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_bounded_by_cost_extrema() {
        let poly = labs_terms(8);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let (lo, hi) = sim.cost_diagonal().extrema();
        let r = sim.simulate_qaoa(&[0.3, 0.2], &[0.5, 0.25]);
        let e = sim.get_expectation(&r);
        assert!(e >= lo - 1e-9 && e <= hi + 1e-9);
    }

    #[test]
    fn quantized_simulator_matches_f64() {
        let poly = labs_terms(9);
        let sim_f = FurSimulator::with_options(&poly, serial_options());
        let sim_q = FurSimulator::with_options(
            &poly,
            SimOptions {
                quantize_u16: true,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        assert!(matches!(sim_q.cost_diagonal(), CostVec::Levels { .. }));
        let (g, b) = ([0.21, 0.48], [0.9, 0.36]);
        let rf = sim_f.simulate_qaoa(&g, &b);
        let rq = sim_q.simulate_qaoa(&g, &b);
        assert!(rf.state().max_abs_diff(rq.state()) < 1e-10);
        assert!((sim_f.get_expectation(&rf) - sim_q.get_expectation(&rq)).abs() < 1e-9);
    }

    #[test]
    fn quantized_objective_is_bit_identical_to_default() {
        let problems = [
            ("labs10", labs_terms(10)),
            ("ring12", maxcut_polynomial(&Graph::ring(12, 1.0))),
        ];
        let angles = [
            (vec![0.21], vec![0.9]),
            (vec![0.4, -0.13], vec![0.7, 0.35]),
            (vec![1.3, 0.05, -0.6], vec![-0.2, 0.45, 0.8]),
        ];
        for (name, poly) in &problems {
            for exec in [ExecPolicy::serial(), ExecPolicy::auto()] {
                let plain = SimOptions {
                    exec,
                    ..SimOptions::default()
                };
                let quant = SimOptions {
                    quantize_u16: true,
                    ..plain.clone()
                };
                let sim_p = FurSimulator::with_options(poly, plain);
                let sim_q = FurSimulator::with_options(poly, quant);
                for (g, b) in &angles {
                    assert_eq!(
                        sim_q.objective(g, b).to_bits(),
                        sim_p.objective(g, b).to_bits(),
                        "{name} {exec:?} {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_integral_costs_fall_back_to_f64() {
        // Fields 0.3·2^i give all 32 values 0.3·(odd): off the step-1 grid,
        // and more than 32/4 levels.
        let terms = (0..5)
            .map(|i| qokit_terms::Term::new(0.3 * (1 << i) as f64, &[i]))
            .collect();
        let sim = FurSimulator::with_options(
            &SpinPolynomial::new(5, terms),
            SimOptions {
                quantize_u16: true,
                ..serial_options()
            },
        );
        assert!(matches!(sim.cost_diagonal(), CostVec::F64(_)));
    }

    #[test]
    fn non_integral_costs_with_few_levels_fall_back_to_level_coding() {
        let poly = qokit_terms::maxcut::all_to_all_terms(5, 0.3);
        let quantized = SimOptions {
            quantize_u16: true,
            ..serial_options()
        };
        let sim = FurSimulator::with_options(&poly, quantized);
        // 0.3-weighted terms are not on a step-1 integer grid, but K5 has
        // only three cut sizes: the same coding as the default path.
        assert!(matches!(sim.cost_diagonal(), CostVec::Levels { .. }));
        let plain = FurSimulator::with_options(&poly, serial_options());
        assert_eq!(
            sim.objective(&[0.4], &[0.7]).to_bits(),
            plain.objective(&[0.4], &[0.7]).to_bits()
        );
    }

    #[test]
    fn backends_agree_end_to_end() {
        let poly = labs_terms(12);
        let serial = FurSimulator::with_options(&poly, serial_options());
        let rayon = FurSimulator::with_options(
            &poly,
            SimOptions {
                exec: ExecPolicy::rayon(),
                ..SimOptions::default()
            },
        );
        let (g, b) = ([0.1, 0.3, 0.2], [0.8, 0.5, 0.2]);
        let rs = serial.simulate_qaoa(&g, &b);
        let rr = rayon.simulate_qaoa(&g, &b);
        assert!(rs.state().max_abs_diff(rr.state()) < 1e-10);
    }

    #[test]
    fn threads_one_objective_has_serial_bits() {
        // `threads == 1` is serial however the policy was built: forced-low
        // parallel thresholds must not change a single bit.
        let one = ExecPolicy::rayon()
            .with_threads(1)
            .with_min_len(1)
            .with_min_chunk(64);
        for n in [12, 14] {
            let poly = labs_terms(n);
            let serial = FurSimulator::with_options(&poly, serial_options());
            let pinned = FurSimulator::with_options(
                &poly,
                SimOptions {
                    exec: one,
                    ..SimOptions::default()
                },
            );
            for (g, b) in [([0.1, 0.3], [0.8, 0.5]), ([-0.7, 0.2], [0.05, -0.4])] {
                assert_eq!(
                    pinned.objective(&g, &b).to_bits(),
                    serial.objective(&g, &b).to_bits(),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn split_layout_matches_interleaved_end_to_end() {
        let poly = labs_terms(10);
        let (g, b) = ([0.1, 0.3, 0.2], [0.8, 0.5, 0.2]);
        for mixer in [Mixer::X, Mixer::XyRing] {
            for exec in [ExecPolicy::serial(), ExecPolicy::rayon()] {
                let inter = FurSimulator::with_options(
                    &poly,
                    SimOptions {
                        mixer,
                        exec: exec.with_layout(Layout::Interleaved),
                        ..SimOptions::default()
                    },
                );
                let split = FurSimulator::with_options(
                    &poly,
                    SimOptions {
                        mixer,
                        exec: exec.with_layout(Layout::Split),
                        ..SimOptions::default()
                    },
                );
                let ri = inter.simulate_qaoa(&g, &b);
                let rs = split.simulate_qaoa(&g, &b);
                assert_eq!(
                    ri.state().amplitudes(),
                    rs.state().amplitudes(),
                    "{mixer:?} / {:?}",
                    exec.threads
                );
            }
        }
    }

    #[test]
    fn xy_mixer_run_conserves_weight_sector() {
        let poly = labs_terms(6);
        let sim = FurSimulator::with_options(
            &poly,
            SimOptions {
                mixer: Mixer::XyRing,
                ..serial_options()
            },
        );
        let r = sim.simulate_qaoa(&[0.4, 0.1], &[0.3, 0.9]);
        let mass: f64 = r
            .state()
            .amplitudes()
            .iter()
            .enumerate()
            .filter(|(x, _)| x.count_ones() as usize == 3)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!((mass - 1.0).abs() < 1e-10, "weight sector leaked: {mass}");
    }

    #[test]
    fn custom_initial_state_is_used() {
        let poly = labs_terms(5);
        let sim = FurSimulator::with_options(
            &poly,
            SimOptions {
                initial: InitialState::Basis(7),
                ..serial_options()
            },
        );
        let r = sim.simulate_qaoa(&[], &[]);
        assert_eq!(r.state().amplitudes()[7], C64::ONE);
    }

    #[test]
    fn probabilities_outputs_agree() {
        let poly = labs_terms(6);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let r = sim.simulate_qaoa(&[0.3], &[0.5]);
        let p1 = sim.get_probabilities(&r);
        let p2 = sim.into_probabilities(r);
        assert_eq!(p1, p2);
        assert!((p1.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_params_panic() {
        let poly = labs_terms(4);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let _ = sim.simulate_qaoa(&[0.1, 0.2], &[0.3]);
    }

    #[test]
    fn choose_simulator_names() {
        assert!(choose_simulator("auto").is_some());
        assert_eq!(choose_simulator("c").unwrap().exec, ExecPolicy::serial());
        assert_eq!(choose_simulator("gpu").unwrap().exec, ExecPolicy::rayon());
        assert!(choose_simulator("fpga").is_none());
        assert_eq!(
            choose_simulator_xyring("auto").unwrap().mixer,
            Mixer::XyRing
        );
        assert_eq!(
            choose_simulator_xycomplete("c").unwrap().mixer,
            Mixer::XyComplete
        );
    }

    #[test]
    fn from_cost_vector_skips_precompute() {
        let poly = labs_terms(6);
        let costs = CostVec::from_polynomial(
            &poly,
            qokit_costvec::PrecomputeMethod::Direct,
            ExecPolicy::serial(),
        );
        let sim = FurSimulator::from_cost_vector(costs, serial_options());
        assert_eq!(sim.n_qubits(), 6);
        let r = sim.simulate_qaoa(&[0.2], &[0.4]);
        assert!((r.state().norm_sqr() - 1.0).abs() < 1e-10);
    }

    /// The one start path writes `e^{-iγ₁Ĉ}|+⟩` with the bits of filling
    /// `|+⟩` and running the first phase, on an `F64` and on a `Levels`
    /// diagonal that both hold a 0.0 cost, and leaves `|+⟩` itself for
    /// `p = 0`.
    #[test]
    fn the_uniform_start_has_the_bits_of_fill_then_first_phase() {
        let costs: Vec<f64> = (0..64)
            .map(|x| [0.0, -0.0, 1.5, -2.25, 4e-320][x % 5] + (x / 5 % 3) as f64)
            .collect();
        let f64_diag = CostVec::F64(costs.clone());
        let levels = CostVec::from_f64(costs);
        assert!(matches!(levels, CostVec::Levels { .. }));
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(4);
        let bits = |s: &SplitStateVec| {
            let (re, im) = s.planes();
            let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (b(re), b(im))
        };
        for diag in [f64_diag, levels] {
            for exec in [ExecPolicy::serial(), forced] {
                let sim = FurSimulator::from_cost_vector(
                    diag.clone(),
                    SimOptions {
                        exec,
                        ..SimOptions::default()
                    },
                );
                assert!(matches!(sim.start(), Start::Uniform));
                for gamma in [Some(0.0), Some(0.47), Some(-3.1), None] {
                    let mut want = sim.initial_planes();
                    if let Some(gamma) = gamma {
                        sim.first_phase(&mut want, gamma, exec);
                    }
                    let mut got = SplitStateVec::basis_state(6, 9);
                    sim.write_start(&Start::Uniform, &mut got, gamma, exec);
                    assert_eq!(bits(&got), bits(&want), "{diag:?} {exec:?} {gamma:?}");
                }
            }
        }
    }

    #[test]
    fn objective_shortcut_matches_two_step() {
        let poly = labs_terms(6);
        let sim = FurSimulator::with_options(&poly, serial_options());
        let r = sim.simulate_qaoa(&[0.15], &[0.6]);
        assert!((sim.objective(&[0.15], &[0.6]) - sim.get_expectation(&r)).abs() < 1e-12);
    }
}
