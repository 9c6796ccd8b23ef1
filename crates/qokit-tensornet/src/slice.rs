//! Slicing: graceful degradation when the best plan exceeds the width cap.
//!
//! Following *Tensor Network Quantum Simulator With Step-Dependent
//! Parallelization*, a contraction that would need an intermediate of rank
//! `w > width_cap` is **sliced**: pick `k` legs, fix each to a concrete
//! bit value, contract the `2^k` projected sub-networks independently and
//! sum. Each slice pays only `w - k'` width (for the `k'` slice legs alive
//! in the widest intermediate), at the price of redundant work across
//! slices — the classic memory-for-FLOPs trade.
//!
//! Slices are embarrassingly parallel, so they fan out as pool tasks
//! (`rayon::strided_lanes`, keyed by slice index) and are accumulated
//! **sequentially in slice order** — results are bit-identical at any pool
//! width. Stronger still, slicing itself is exact at the bit level:
//! [`crate::tensor::Tensor::project`] performs no arithmetic, so the
//! sliced sum equals entry-by-entry summation of the *unsliced* result
//! tensor with the slice legs kept open ([`SlicePlan::execute_unsliced`]) —
//! the equality the differential suite pins bit-for-bit.

use crate::network::TnError;
use crate::plan::ContractionPlan;
use crate::tensor::Tensor;
use qokit_statevec::{ExecPolicy, C64};

/// Upper bound on slice legs tried before giving up with
/// [`TnError::WidthExceeded`] (2^8 = 256 slices).
pub const DEFAULT_MAX_SLICE_LEGS: usize = 8;

/// A contraction plan plus the slice legs chosen to respect a width cap.
#[derive(Clone, Debug)]
pub struct SlicePlan {
    plan: ContractionPlan,
    /// Slice legs ordered as in the plan's result tensor (slowest first),
    /// so slice index bits align with the unsliced result's flat order.
    slice_legs: Vec<usize>,
    unsliced_width: usize,
    unsliced_cost: f64,
}

/// What slicing cost: reported alongside every planned contraction.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceStats {
    /// Number of independent slices contracted (1 = no slicing).
    pub n_slices: usize,
    /// The legs sliced over.
    pub slice_legs: Vec<usize>,
    /// Width each slice pays.
    pub width: usize,
    /// Width the unsliced plan would have paid.
    pub unsliced_width: usize,
    /// Estimated FLOP overhead of slicing: total sliced work divided by
    /// unsliced work (1.0 = free).
    pub overhead: f64,
}

impl SlicePlan {
    /// Plans a contraction of `inputs` under `width_cap`, slicing legs
    /// (greedily, the leg that shrinks the planned width most first) until
    /// the per-slice width fits. Fails with [`TnError::WidthExceeded`] only
    /// when `max_slice_legs` slice legs still leave the plan too wide.
    pub fn choose(
        inputs: &[Vec<usize>],
        width_cap: usize,
        max_slice_legs: usize,
    ) -> Result<SlicePlan, TnError> {
        let base = ContractionPlan::build(inputs);
        let unsliced_width = base.width();
        let unsliced_cost = base.cost();
        if unsliced_width <= width_cap {
            return Ok(SlicePlan {
                plan: base,
                slice_legs: Vec::new(),
                unsliced_width,
                unsliced_cost,
            });
        }
        let mut open: Vec<usize> = Vec::new();
        let mut plan = base;
        while plan.sliced_width() > width_cap && open.len() < max_slice_legs {
            let mut best: Option<((usize, f64), usize, ContractionPlan)> = None;
            for cand in plan.widest_legs() {
                let mut trial_open = open.clone();
                trial_open.push(cand);
                let trial = ContractionPlan::build_with_open(inputs, &trial_open);
                let key = (trial.sliced_width(), trial.sliced_cost());
                let better = match &best {
                    None => true,
                    Some((bk, _, _)) => key < *bk,
                };
                if better {
                    best = Some((key, cand, trial));
                }
            }
            match best {
                Some((_, cand, trial)) => {
                    open.push(cand);
                    plan = trial;
                }
                None => break, // no summable candidate left
            }
        }
        if plan.sliced_width() > width_cap {
            return Err(TnError::WidthExceeded {
                rank: plan.sliced_width(),
                cap: width_cap,
            });
        }
        // Order slice legs by their position in the result tensor so slice
        // index `s` enumerates assignments in the unsliced result's flat
        // (row-major) order.
        let slice_legs = plan.result_legs().to_vec();
        debug_assert_eq!(slice_legs.len(), open.len());
        Ok(SlicePlan {
            plan,
            slice_legs,
            unsliced_width,
            unsliced_cost,
        })
    }

    /// The underlying plan.
    pub fn plan(&self) -> &ContractionPlan {
        &self.plan
    }

    /// The slice legs, slowest (most significant slice-index bit) first.
    pub fn slice_legs(&self) -> &[usize] {
        &self.slice_legs
    }

    /// Number of slices one execution contracts.
    pub fn n_slices(&self) -> usize {
        1usize << self.slice_legs.len()
    }

    /// Width each slice pays.
    pub fn width(&self) -> usize {
        self.plan.sliced_width()
    }

    /// The slicing cost report.
    pub fn stats(&self) -> SliceStats {
        let overhead = if self.slice_legs.is_empty() {
            1.0
        } else {
            (self.n_slices() as f64) * self.plan.sliced_cost() / self.unsliced_cost
        };
        SliceStats {
            n_slices: self.n_slices(),
            slice_legs: self.slice_legs.clone(),
            width: self.plan.sliced_width(),
            unsliced_width: self.unsliced_width,
            overhead,
        }
    }

    /// Projects `tensors` onto slice assignment `s` (bit `j` of `s`, from
    /// the top, fixes `slice_legs[j]`).
    fn project_slice(&self, tensors: &[Tensor], s: usize) -> Vec<Tensor> {
        let k = self.slice_legs.len();
        tensors
            .iter()
            .map(|t| {
                let mut out: Option<Tensor> = None;
                for (j, &leg) in self.slice_legs.iter().enumerate() {
                    if t.legs.contains(&leg) {
                        let bit = (s >> (k - 1 - j)) & 1;
                        out = Some(match out {
                            Some(p) => p.project(leg, bit),
                            None => t.project(leg, bit),
                        });
                    }
                }
                out.unwrap_or_else(|| t.clone())
            })
            .collect()
    }

    /// Contracts `tensors` slice by slice, fanning the slices out on the
    /// pool unless `exec.threads == 1`, and summing the partial scalars
    /// **in slice order** — the result is bit-identical for every pool
    /// width.
    pub fn execute(&self, tensors: &[Tensor], exec: &ExecPolicy) -> C64 {
        if self.slice_legs.is_empty() {
            return self.plan.execute(tensors.to_vec()).into_scalar();
        }
        let n = self.n_slices();
        let one = |s: usize| self.project_slice(tensors, s);
        let parts: Vec<C64> = if exec.threads == 1 {
            (0..n)
                .map(|s| self.plan.execute(one(s)).into_scalar())
                .collect()
        } else {
            exec.install(|| rayon::strided_lanes(n, |s| self.plan.execute(one(s)).into_scalar()))
        };
        parts.into_iter().fold(C64::ZERO, |acc, v| acc + v)
    }

    /// The unsliced reference: one serial execution keeping the slice legs
    /// open, then summing the result tensor's entries in flat order. By the
    /// projection-exactness argument ([`Tensor::project`]) this equals
    /// [`SlicePlan::execute`] bit for bit.
    pub fn execute_unsliced(&self, tensors: &[Tensor]) -> C64 {
        let out = self.plan.execute(tensors.to_vec());
        out.data.into_iter().fold(C64::ZERO, |acc, v| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::build_qaoa_network;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn bits(v: C64) -> (u64, u64) {
        (v.re.to_bits(), v.im.to_bits())
    }

    #[test]
    fn no_slicing_when_plan_fits() {
        let poly = maxcut_polynomial(&Graph::ring(6, 1.0));
        let net = build_qaoa_network(&poly, &[0.3], &[0.4], 0);
        let sp = SlicePlan::choose(&net.structure(), 30, 8).unwrap();
        assert_eq!(sp.n_slices(), 1);
        assert!(sp.slice_legs().is_empty());
        assert_eq!(sp.stats().overhead, 1.0);
    }

    #[test]
    fn slicing_respects_the_cap_and_keeps_the_value() {
        let poly = labs_terms(7);
        let net = build_qaoa_network(&poly, &[0.2, 0.1], &[0.4, 0.3], 19);
        let structure = net.structure();
        let unconstrained = SlicePlan::choose(&structure, 64, 0).unwrap();
        let full_width = unconstrained.width();
        assert!(full_width > 3);
        let cap = full_width - 2;
        let sliced = SlicePlan::choose(&structure, cap, 8).unwrap();
        assert!(sliced.width() <= cap);
        assert!(sliced.n_slices() >= 2);
        assert!(sliced.stats().overhead >= 1.0);
        let tensors = net.into_tensors();
        let serial = ExecPolicy::serial();
        let a = unconstrained.execute(&tensors, &serial);
        let b = sliced.execute(&tensors, &serial);
        assert!(a.approx_eq(b, 1e-10), "{a} vs {b}");
    }

    #[test]
    fn sliced_equals_unsliced_bit_for_bit() {
        let poly = labs_terms(6);
        let net = build_qaoa_network(&poly, &[0.15, 0.35], &[0.55, 0.25], 9);
        let structure = net.structure();
        let full = ContractionPlan::build(&structure).width();
        let sp = SlicePlan::choose(&structure, full.saturating_sub(2), 8).unwrap();
        assert!(sp.n_slices() >= 2);
        let tensors = net.into_tensors();
        let sliced = sp.execute(&tensors, &ExecPolicy::serial());
        let unsliced = sp.execute_unsliced(&tensors);
        assert_eq!(bits(sliced), bits(unsliced));
    }

    #[test]
    fn pool_widths_are_bit_identical() {
        let poly = labs_terms(6);
        let net = build_qaoa_network(&poly, &[0.15, 0.35], &[0.55, 0.25], 41);
        let structure = net.structure();
        let full = ContractionPlan::build(&structure).width();
        let sp = SlicePlan::choose(&structure, full.saturating_sub(2), 8).unwrap();
        let tensors = net.into_tensors();
        let reference = sp.execute(&tensors, &ExecPolicy::serial());
        for workers in [1usize, 2, 4] {
            let policy = ExecPolicy::rayon().with_threads(workers);
            let got = sp.execute(&tensors, &policy);
            assert_eq!(bits(got), bits(reference), "workers = {workers}");
        }
    }

    #[test]
    fn impossible_cap_still_reports_width_exceeded() {
        let poly = labs_terms(8);
        let net = build_qaoa_network(&poly, &[0.1; 4], &[0.2; 4], 0);
        let err = SlicePlan::choose(&net.structure(), 1, 2).unwrap_err();
        assert!(matches!(err, TnError::WidthExceeded { .. }));
    }
}
