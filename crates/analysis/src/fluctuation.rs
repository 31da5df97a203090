//! Drift-vs-fluctuation detector statistics for multi-fidelity switching.
//!
//! The hybrid engine (`pp_core::hybrid` + `usd-core`) decides between the
//! mean-field ODE and stochastic sampling by comparing, per category, how
//! far the deterministic drift moves the count over one parallel-time unit
//! against the count's intrinsic sampling fluctuation.  This module holds
//! the pure statistics of that comparison, so the derivation lives with the
//! rest of the analysis toolbox and the engine code stays mechanical.
//!
//! With fractions `a_i = x_i / n` and the ODE derivative `d_i = ȧ_i` (per
//! parallel-time unit, i.e. per `n` interactions), the expected count drift
//! over `n` interactions is `n·|d_i|` agents while the fluctuation scale of
//! a count of size `x_i` is `√x_i`; their quotient
//! [`drift_noise_ratio`] is dimensionless.  The detector takes its minimum
//! over the live categories — the fidelity bottleneck — in the same
//! allocation-free pass over the counts that evaluates the drifts and the
//! mass guards (`usd_core::HybridEngine::signal`).

/// The drift/fluctuation quotient of one category: `n·|d| / √max(x, 1)`,
/// where `d` is the ODE derivative of the category's *fraction* per
/// parallel-time unit and `x` its current count.  Large values mean the
/// deterministic drift dominates sampling noise over the next
/// parallel-time unit.
#[must_use]
pub fn drift_noise_ratio(population: u64, mass: u64, drift: f64) -> f64 {
    (population as f64) * drift.abs() / (mass.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_matches_the_closed_form() {
        // n = 10_000, x = 400, d = 0.02: 10_000·0.02/20 = 10.
        assert!((drift_noise_ratio(10_000, 400, 0.02) - 10.0).abs() < 1e-12);
        // Sign of the drift is irrelevant.
        assert_eq!(
            drift_noise_ratio(10_000, 400, -0.02),
            drift_noise_ratio(10_000, 400, 0.02)
        );
        // Zero mass clamps the denominator to 1 instead of dividing by 0.
        assert!((drift_noise_ratio(100, 0, 0.5) - 50.0).abs() < 1e-12);
    }
}
