//! The mean-field (fluid-limit) approximation of the USD.
//!
//! For large `n` the rescaled process `a_i(τ) = x_i(τ·n)/n`,
//! `w(τ) = u(τ·n)/n` (with `τ` the parallel time) concentrates around the
//! solution of the deterministic ODE system
//!
//! ```text
//! da_i/dτ = a_i · (w − (1 − w − a_i)) = a_i · (2w + a_i − 1)
//! dw/dτ   = Σ_i a_i (1 − w − a_i)  −  w (1 − w)
//! ```
//!
//! obtained from the expected one-interaction change of each coordinate.
//! The fluid limit exposes the structure the paper's analysis exploits — the
//! unstable equilibrium `w* = (k−1)/(2k−1)` of the undecided fraction, the
//! loss of the weakest opinions one by one, and the role of the initial bias —
//! and gives a cheap predictor to compare stochastic runs against
//! (experiment E12).  This module provides the vector field, a fixed-step
//! RK4 integrator and convergence helpers.

use pp_core::checkpoint::{Checkpoint, EngineCheckpoint, EngineState, MeanFieldSnapshot};
use pp_core::engine::{Advance, StepEngine};
use pp_core::{Configuration, PpError};
use serde::{Deserialize, Serialize};

/// A point of the fluid-limit system: the opinion fractions `a_1..a_k` and the
/// undecided fraction `w` (all non-negative, summing to 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldState {
    fractions: Vec<f64>,
    undecided: f64,
}

impl MeanFieldState {
    /// Creates a state from opinion fractions and an undecided fraction.
    ///
    /// Returns `None` if any value is negative or the total differs from 1 by
    /// more than 1e-9.
    #[must_use]
    pub fn new(fractions: Vec<f64>, undecided: f64) -> Option<Self> {
        if fractions.is_empty() || fractions.iter().any(|&a| a < 0.0) || undecided < 0.0 {
            return None;
        }
        let total: f64 = fractions.iter().sum::<f64>() + undecided;
        if (total - 1.0).abs() > 1e-9 {
            return None;
        }
        Some(MeanFieldState {
            fractions,
            undecided,
        })
    }

    /// The fluid-limit state corresponding to a finite configuration.
    #[must_use]
    pub fn from_configuration(config: &Configuration) -> Self {
        let n = config.population() as f64;
        MeanFieldState {
            fractions: config.supports().iter().map(|&x| x as f64 / n).collect(),
            undecided: config.undecided() as f64 / n,
        }
    }

    /// The opinion fractions.
    #[must_use]
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// The undecided fraction `w`.
    #[must_use]
    pub fn undecided(&self) -> f64 {
        self.undecided
    }

    /// The number of opinions `k`.
    #[must_use]
    pub fn num_opinions(&self) -> usize {
        self.fractions.len()
    }

    /// The largest opinion fraction.
    #[must_use]
    pub fn max_fraction(&self) -> f64 {
        self.fractions.iter().copied().fold(0.0, f64::max)
    }

    /// Index of the largest opinion.
    #[must_use]
    pub fn max_opinion(&self) -> usize {
        self.fractions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("fractions are finite"))
            .map_or(0, |(i, _)| i)
    }

    /// The time derivative of the state (the vector field above).
    #[must_use]
    pub fn derivative(&self) -> MeanFieldDerivative {
        let mut d_fractions = Vec::with_capacity(self.fractions.len());
        let d_undecided = vector_field(self.fractions.iter().copied(), self.undecided, |_, d| {
            d_fractions.push(d);
        });
        MeanFieldDerivative {
            d_fractions,
            d_undecided,
        }
    }

    /// Advances the state by one RK4 step of size `dt` (in parallel time),
    /// clamping tiny negative values produced by floating-point error to 0.
    pub fn rk4_step(&mut self, dt: f64) {
        let k1 = self.derivative();
        let s2 = self.offset(&k1, dt / 2.0);
        let k2 = s2.derivative();
        let s3 = self.offset(&k2, dt / 2.0);
        let k3 = s3.derivative();
        let s4 = self.offset(&k3, dt);
        let k4 = s4.derivative();
        for (i, a) in self.fractions.iter_mut().enumerate() {
            *a += dt / 6.0
                * (k1.d_fractions[i]
                    + 2.0 * k2.d_fractions[i]
                    + 2.0 * k3.d_fractions[i]
                    + k4.d_fractions[i]);
            if *a < 0.0 {
                *a = 0.0;
            }
        }
        self.undecided += dt / 6.0
            * (k1.d_undecided + 2.0 * k2.d_undecided + 2.0 * k3.d_undecided + k4.d_undecided);
        if self.undecided < 0.0 {
            self.undecided = 0.0;
        }
        // Renormalize to remove the accumulated integration error in the
        // conservation law (sum of all fractions stays 1).
        let total: f64 = self.fractions.iter().sum::<f64>() + self.undecided;
        if total > 0.0 {
            for a in &mut self.fractions {
                *a /= total;
            }
            self.undecided /= total;
        }
    }

    fn offset(&self, d: &MeanFieldDerivative, dt: f64) -> MeanFieldState {
        MeanFieldState {
            fractions: self
                .fractions
                .iter()
                .zip(&d.d_fractions)
                .map(|(&a, &da)| (a + dt * da).max(0.0))
                .collect(),
            undecided: (self.undecided + dt * d.d_undecided).max(0.0),
        }
    }
}

/// The vector field value at a [`MeanFieldState`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldDerivative {
    /// Time derivatives of the opinion fractions.
    pub d_fractions: Vec<f64>,
    /// Time derivative of the undecided fraction.
    pub d_undecided: f64,
}

/// The vector field above at opinion fractions `a_i` and undecided fraction
/// `w`, in one allocation-free `O(k)` pass: calls `opinion(i, ȧ_i)` with
/// `ȧ_i = a_i·(2w + a_i − 1)` for each opinion in order, and returns
/// `ẇ = Σ_i a_i(1 − w − a_i) − w(1 − w)`.  The one home of both formulas:
/// [`MeanFieldState::derivative`] and the hybrid engine's fidelity detector
/// evaluate the field through it, so their values agree bit for bit.
#[must_use]
pub fn vector_field(
    fractions: impl IntoIterator<Item = f64>,
    w: f64,
    mut opinion: impl FnMut(usize, f64),
) -> f64 {
    fractions
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            opinion(i, a * (2.0 * w + a - 1.0));
            a * (1.0 - w - a)
        })
        .sum::<f64>()
        - w * (1.0 - w)
}

/// The unstable equilibrium of the undecided fraction in the symmetric
/// (all-opinions-equal) fluid limit: `w* = (k−1)/(2k−1)`.
#[must_use]
pub fn undecided_fraction_equilibrium(k: usize) -> f64 {
    let k = k as f64;
    (k - 1.0) / (2.0 * k - 1.0)
}

/// The result of integrating the fluid limit until (near-)consensus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanFieldRun {
    /// The final state.
    pub final_state: MeanFieldState,
    /// Parallel time at which integration stopped.
    pub parallel_time: f64,
    /// Whether the dominant fraction exceeded the consensus threshold.
    pub converged: bool,
    /// Peak value of the undecided fraction along the trajectory.
    pub peak_undecided: f64,
}

/// Integrates the fluid limit with fixed RK4 steps of size `dt` until the
/// largest opinion fraction exceeds `1 − tolerance` (near-consensus in the
/// deterministic system, which only reaches exact consensus asymptotically)
/// or until `max_parallel_time` is reached.
///
/// # Panics
///
/// Panics if `dt <= 0`, `tolerance <= 0`, or `max_parallel_time <= 0`.
#[must_use]
pub fn integrate_to_consensus(
    initial: &MeanFieldState,
    dt: f64,
    tolerance: f64,
    max_parallel_time: f64,
) -> MeanFieldRun {
    assert!(dt > 0.0, "step size must be positive");
    assert!(tolerance > 0.0, "tolerance must be positive");
    assert!(max_parallel_time > 0.0, "time horizon must be positive");
    let mut state = initial.clone();
    let mut t = 0.0;
    let mut peak_undecided = state.undecided();
    while t < max_parallel_time {
        if state.max_fraction() >= 1.0 - tolerance {
            return MeanFieldRun {
                final_state: state,
                parallel_time: t,
                converged: true,
                peak_undecided,
            };
        }
        state.rk4_step(dt);
        peak_undecided = peak_undecided.max(state.undecided());
        t += dt;
    }
    MeanFieldRun {
        final_state: state,
        parallel_time: t,
        converged: false,
        peak_undecided,
    }
}

/// The fluid limit lifted behind the unified [`StepEngine`] trait.
///
/// The engine integrates the deterministic ODE system with fixed-size RK4
/// steps, converts elapsed parallel time back to an interaction count
/// (`interactions = parallel time · n`), and maintains a *quantized*
/// [`Configuration`] (largest-remainder rounding of the fractions over the
/// `n` agents) so the same recorders, stop conditions and phase trackers
/// drive it as drive the stochastic engines.
///
/// Unlike [`pp_core::ExactEngine`] and [`pp_core::BatchedEngine`] this
/// backend is an *approximation*: it reproduces the `n → ∞` trajectory, so
/// it shows no fluctuation-driven behaviour (it can never break an exact
/// tie, and hitting times lack the `√n`-scale noise).  Use it for instant
/// large-`n` exploration, not for distributional statistics.
///
/// # Examples
///
/// ```
/// use usd_core::mean_field::MeanFieldEngine;
/// use pp_core::{Configuration, StopCondition};
/// use pp_core::engine::StepEngine;
///
/// let config = Configuration::from_counts(vec![700, 200, 100], 0).unwrap();
/// let mut engine = MeanFieldEngine::new(config);
/// let result = engine.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
/// assert!(result.reached_consensus());
/// assert_eq!(result.winner().unwrap().index(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeanFieldEngine {
    state: MeanFieldState,
    config: Configuration,
    population: u64,
    interactions: u64,
    dt: f64,
}

impl MeanFieldEngine {
    /// Default integration granularity in parallel time.
    pub const DEFAULT_DT: f64 = 0.01;

    /// Creates the engine from a finite configuration with the default step.
    #[must_use]
    pub fn new(config: Configuration) -> Self {
        Self::with_step(config, Self::DEFAULT_DT)
    }

    /// Creates the engine with an explicit RK4 step size (in parallel time).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    #[must_use]
    pub fn with_step(config: Configuration, dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "step size must be positive");
        MeanFieldEngine {
            state: MeanFieldState::from_configuration(&config),
            population: config.population(),
            config,
            interactions: 0,
            dt,
        }
    }

    /// The continuous fluid-limit state.
    #[must_use]
    pub fn state(&self) -> &MeanFieldState {
        &self.state
    }

    /// Restores an engine from a checkpoint captured by
    /// [`Checkpoint::capture`] on a mean-field engine.  The ODE state rides
    /// in the checkpoint as exact IEEE-754 bit patterns, so the restored
    /// engine continues bit-identically — the deterministic integrator has
    /// no RNG, making the tail trivially exact once the `f64`s agree.
    ///
    /// # Errors
    ///
    /// Returns [`PpError::Checkpoint`] when the checkpoint holds a
    /// different engine kind, the decoded floats are not a valid simplex
    /// point, or the quantized counts disagree with the population.
    pub fn restore(checkpoint: &Checkpoint) -> Result<Self, PpError> {
        let EngineState::MeanField(s) = checkpoint.engine() else {
            return Err(PpError::Checkpoint {
                reason: format!(
                    "checkpoint holds {:?} engine state, expected \"mean-field\"",
                    checkpoint.kind()
                ),
            });
        };
        let fail = |reason: String| PpError::Checkpoint { reason };
        let fractions: Vec<f64> = s.fraction_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let undecided = f64::from_bits(s.undecided_bits);
        if fractions.is_empty()
            || fractions.iter().any(|a| !a.is_finite() || *a < 0.0)
            || !undecided.is_finite()
            || undecided < 0.0
        {
            return Err(fail(
                "mean-field state bits decode to negative or non-finite fractions".to_string(),
            ));
        }
        let total: f64 = fractions.iter().sum::<f64>() + undecided;
        if (total - 1.0).abs() > 1e-6 {
            return Err(fail(format!(
                "mean-field fractions sum to {total}, not 1 — the checkpoint is corrupt"
            )));
        }
        let dt = f64::from_bits(s.dt_bits);
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(fail(format!("mean-field step size {dt} must be positive")));
        }
        if s.supports.len() != fractions.len() {
            return Err(fail(format!(
                "mean-field checkpoint has {} fractions but {} supports",
                fractions.len(),
                s.supports.len()
            )));
        }
        let config = Configuration::from_counts(s.supports.clone(), s.undecided).map_err(|e| {
            fail(format!(
                "captured quantized counts are not a valid configuration: {e}"
            ))
        })?;
        if config.population() != s.population {
            return Err(fail(format!(
                "quantized counts cover {} agents but the checkpoint says n={}",
                config.population(),
                s.population
            )));
        }
        Ok(MeanFieldEngine {
            state: MeanFieldState {
                fractions,
                undecided,
            },
            config,
            population: s.population,
            interactions: s.interactions,
            dt,
        })
    }

    /// Elapsed parallel time.
    #[must_use]
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.population as f64
    }

    /// Largest-remainder quantization of the current fractions over the `n`
    /// agents (including the undecided category), so consensus in the
    /// quantized view means `x_max = n` exactly.
    fn quantize(&self) -> Configuration {
        let n = self.population;
        let k = self.state.num_opinions();
        let mut weights: Vec<f64> = self.state.fractions().to_vec();
        weights.push(self.state.undecided());
        let total: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut counts: Vec<u64> = shares.iter().map(|s| s.floor() as u64).collect();
        let mut assigned: u64 = counts.iter().sum();
        let mut order: Vec<usize> = (0..=k).collect();
        order.sort_by(|&a, &b| {
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut idx = 0;
        while assigned < n {
            counts[order[idx % order.len()]] += 1;
            assigned += 1;
            idx += 1;
        }
        let undecided = counts.pop().expect("k+1 categories");
        Configuration::from_counts(counts, undecided)
            .expect("quantization preserves the population")
    }
}

impl EngineCheckpoint for MeanFieldEngine {
    fn capture_engine(&self) -> EngineState {
        EngineState::MeanField(MeanFieldSnapshot {
            fraction_bits: self.state.fractions.iter().map(|a| a.to_bits()).collect(),
            undecided_bits: self.state.undecided.to_bits(),
            supports: self.config.supports().to_vec(),
            undecided: self.config.undecided(),
            population: self.population,
            interactions: self.interactions,
            dt_bits: self.dt.to_bits(),
        })
    }
}

impl StepEngine for MeanFieldEngine {
    fn configuration(&self) -> &Configuration {
        &self.config
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn engine_name(&self) -> &'static str {
        "mean-field"
    }

    fn advance(&mut self, limit: u64) -> Advance {
        let n = self.population as f64;
        loop {
            if self.interactions >= limit {
                return Advance::LimitReached;
            }
            // A (near-)zero vector field means the ODE sits on an
            // equilibrium: the quantized configuration will never change
            // again (the deterministic limit cannot break ties).
            let d = self.state.derivative();
            let stalled = d
                .d_fractions
                .iter()
                .map(|x| x.abs())
                .fold(d.d_undecided.abs(), f64::max)
                < 1e-13;
            if stalled {
                self.interactions = limit;
                return Advance::Absorbed;
            }
            let headroom = limit - self.interactions;
            let step_interactions = ((self.dt * n).ceil() as u64).clamp(1, headroom);
            self.state.rk4_step(step_interactions as f64 / n);
            self.interactions += step_interactions;
            let quantized = self.quantize();
            if quantized != self.config {
                self.config = quantized;
                return Advance::Event;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn constructor_validates_simplex_membership() {
        assert!(MeanFieldState::new(vec![0.5, 0.5], 0.0).is_some());
        assert!(MeanFieldState::new(vec![0.5, 0.6], 0.0).is_none());
        assert!(MeanFieldState::new(vec![-0.1, 1.1], 0.0).is_none());
        assert!(MeanFieldState::new(vec![], 1.0).is_none());
    }

    #[test]
    fn from_configuration_normalizes() {
        let c = Configuration::from_counts(vec![300, 200], 500).unwrap();
        let s = MeanFieldState::from_configuration(&c);
        assert!(close(s.fractions()[0], 0.3, 1e-12));
        assert!(close(s.undecided(), 0.5, 1e-12));
    }

    #[test]
    fn symmetric_state_keeps_symmetry_and_approaches_equilibrium() {
        // With all opinions equal the fractions stay equal and the undecided
        // fraction converges to w* = (k-1)/(2k-1).
        let k = 5;
        let mut state = MeanFieldState::new(vec![0.2; k], 0.0).unwrap();
        for _ in 0..20_000 {
            state.rk4_step(0.01);
        }
        let first = state.fractions()[0];
        for &a in state.fractions() {
            assert!(
                close(a, first, 1e-9),
                "symmetry broken: {:?}",
                state.fractions()
            );
        }
        assert!(
            close(state.undecided(), undecided_fraction_equilibrium(k), 1e-3),
            "undecided fraction {} does not match w* {}",
            state.undecided(),
            undecided_fraction_equilibrium(k)
        );
    }

    #[test]
    fn conservation_of_mass_under_integration() {
        let mut state = MeanFieldState::new(vec![0.5, 0.2, 0.1], 0.2).unwrap();
        for _ in 0..5_000 {
            state.rk4_step(0.01);
            let total: f64 = state.fractions().iter().sum::<f64>() + state.undecided();
            assert!(close(total, 1.0, 1e-9), "mass not conserved: {total}");
        }
    }

    #[test]
    fn biased_start_converges_to_the_plurality() {
        let initial = MeanFieldState::new(vec![0.4, 0.3, 0.3], 0.0).unwrap();
        let run = integrate_to_consensus(&initial, 0.01, 1e-6, 10_000.0);
        assert!(run.converged, "fluid limit did not converge");
        assert_eq!(run.final_state.max_opinion(), 0);
        assert!(run.final_state.max_fraction() > 0.9);
        // The undecided fraction must have risen towards ~1/2 along the way
        // (the "rise of the undecided" phase in the fluid limit).
        assert!(
            run.peak_undecided > 0.3,
            "peak undecided {} too small",
            run.peak_undecided
        );
    }

    #[test]
    fn stronger_bias_converges_faster() {
        let weak = MeanFieldState::new(vec![0.35, 0.325, 0.325], 0.0).unwrap();
        let strong = MeanFieldState::new(vec![0.6, 0.2, 0.2], 0.0).unwrap();
        let weak_run = integrate_to_consensus(&weak, 0.01, 1e-6, 10_000.0);
        let strong_run = integrate_to_consensus(&strong, 0.01, 1e-6, 10_000.0);
        assert!(weak_run.converged && strong_run.converged);
        assert!(
            strong_run.parallel_time < weak_run.parallel_time,
            "strong bias ({}) should converge faster than weak bias ({})",
            strong_run.parallel_time,
            weak_run.parallel_time
        );
    }

    #[test]
    fn exactly_tied_leaders_never_separate_in_the_fluid_limit() {
        // The deterministic system cannot break an exact tie — this is why the
        // paper needs the anti-concentration argument in Phase 2.
        let initial = MeanFieldState::new(vec![0.3, 0.3, 0.4], 0.0).unwrap();
        // Opinion 2 is the plurality; opinions 0 and 1 are tied and must stay
        // tied for the entire integration.
        let mut state = initial;
        for _ in 0..50_000 {
            state.rk4_step(0.01);
            assert!(close(state.fractions()[0], state.fractions()[1], 1e-9));
        }
    }

    #[test]
    fn derivative_matches_hand_computation() {
        // a = (0.5, 0.3), w = 0.2.
        let s = MeanFieldState::new(vec![0.5, 0.3], 0.2).unwrap();
        let d = s.derivative();
        // da0 = 0.5 (2*0.2 + 0.5 - 1) = 0.5 * (-0.1) = -0.05
        assert!(close(d.d_fractions[0], -0.05, 1e-12));
        // da1 = 0.3 (0.4 + 0.3 - 1) = 0.3 * (-0.3) = -0.09
        assert!(close(d.d_fractions[1], -0.09, 1e-12));
        // dw = 0.5(1-0.2-0.5) + 0.3(1-0.2-0.3) - 0.2*0.8 = 0.15 + 0.15 - 0.16 = 0.14
        assert!(close(d.d_undecided, 0.14, 1e-12));
    }

    #[test]
    fn equilibrium_values() {
        assert!(close(undecided_fraction_equilibrium(2), 1.0 / 3.0, 1e-12));
        assert!(close(undecided_fraction_equilibrium(10), 9.0 / 19.0, 1e-12));
    }

    #[test]
    fn engine_converges_to_plurality_consensus() {
        use pp_core::StopCondition;
        let config = Configuration::from_counts(vec![500, 300, 200], 0).unwrap();
        let mut engine = MeanFieldEngine::new(config);
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.winner().unwrap().index(), 0);
        assert_eq!(engine.engine_name(), "mean-field");
        assert!(engine.parallel_time() > 0.0);
    }

    #[test]
    fn engine_respects_interaction_limits_exactly() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        let mut engine = MeanFieldEngine::new(config);
        let mut last = 0;
        for limit in [100u64, 250, 5_000] {
            while let Advance::Event = engine.advance(limit) {}
            assert_eq!(engine.interactions(), limit);
            assert!(engine.interactions() >= last);
            last = limit;
        }
    }

    #[test]
    fn tied_leaders_absorb_instead_of_spinning() {
        use pp_core::{RunOutcome, StopCondition};
        // The deterministic limit cannot break an exact tie; the engine must
        // detect the equilibrium and exhaust the budget instead of looping.
        let config = Configuration::from_counts(vec![500, 500], 0).unwrap();
        let mut engine = MeanFieldEngine::new(config);
        let result = engine.run_engine(StopCondition::consensus().or_max_interactions(10_000_000));
        assert_eq!(result.outcome(), RunOutcome::BudgetExhausted);
        assert_eq!(result.interactions(), 10_000_000);
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        use pp_core::StopCondition;
        let config = Configuration::from_counts(vec![450, 350, 200], 0).unwrap();
        // Uninterrupted reference.
        let mut reference = MeanFieldEngine::new(config.clone());
        let expected =
            reference.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
        assert!(expected.reached_consensus());

        // Interrupt mid-run (between advance calls toward the SAME final
        // limit — shrinking it would clamp a step), capture, serialize,
        // restore, finish: the tail must be bit-identical — the ODE state
        // rides as exact bit patterns.
        let mut interrupted = MeanFieldEngine::new(config);
        while interrupted.interactions() < expected.interactions() / 2 {
            if interrupted.advance(100_000_000) != Advance::Event {
                break;
            }
        }
        let checkpoint = Checkpoint::capture(&interrupted);
        assert_eq!(checkpoint.kind(), "mean-field");
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        let mut restored = MeanFieldEngine::restore(&parsed).unwrap();
        assert_eq!(restored.interactions(), interrupted.interactions());
        assert_eq!(restored.state(), interrupted.state());
        assert_eq!(
            restored.state().fractions()[0].to_bits(),
            interrupted.state().fractions()[0].to_bits(),
            "restored fractions must match bit-for-bit"
        );
        assert_eq!(restored.configuration(), interrupted.configuration());
        let resumed =
            restored.run_engine(StopCondition::consensus().or_max_interactions(100_000_000));
        assert_eq!(resumed, expected, "restored tail diverged");
    }

    #[test]
    fn restore_rejects_corrupt_state_by_name() {
        let config = Configuration::from_counts(vec![600, 400], 0).unwrap();
        let engine = MeanFieldEngine::new(config);
        let good = Checkpoint::capture(&engine);
        // Wrong kind.
        let exact = Checkpoint::new(pp_core::EngineState::Exact(pp_core::EngineSnapshot {
            supports: vec![600, 400],
            undecided: 0,
            interactions: 0,
            rng: [1, 2, 3, 4],
            counters: Vec::new(),
        }));
        let err = MeanFieldEngine::restore(&exact).unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("mean-field")),
            "{err:?}"
        );
        // Corrupt floats: a NaN fraction must be rejected, not integrated.
        let pp_core::EngineState::MeanField(snap) = good.engine() else {
            panic!("capture produced the wrong kind");
        };
        let mut corrupt = snap.clone();
        corrupt.fraction_bits[0] = f64::NAN.to_bits();
        let err =
            MeanFieldEngine::restore(&Checkpoint::new(pp_core::EngineState::MeanField(corrupt)))
                .unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("non-finite")),
            "{err:?}"
        );
        // A broken conservation law is a corrupt checkpoint.
        let mut skewed = snap.clone();
        skewed.undecided_bits = 0.5f64.to_bits();
        let err =
            MeanFieldEngine::restore(&Checkpoint::new(pp_core::EngineState::MeanField(skewed)))
                .unwrap_err();
        assert!(
            matches!(&err, PpError::Checkpoint { reason } if reason.contains("sum to")),
            "{err:?}"
        );
    }

    #[test]
    fn quantized_configuration_tracks_population_exactly() {
        let config = Configuration::from_counts(vec![333, 333, 333], 1).unwrap();
        let mut engine = MeanFieldEngine::new(config);
        for _ in 0..50 {
            engine.advance(engine.interactions() + 500);
            assert_eq!(engine.configuration().population(), 1_000);
            assert!(engine.configuration().is_consistent());
        }
    }
}
