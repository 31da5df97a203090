//! # pp-analysis — statistics and probability substrate
//!
//! The paper's proofs reduce the convergence of the undecided state dynamics
//! to one-dimensional random walk and drift arguments (gambler's ruin,
//! reflecting-barrier walks, multiplicative drift, Chernoff/Hoeffding and
//! anti-concentration bounds).  This crate implements those tools so that the
//! experiment harness can
//!
//! * summarize measured data ([`stats`], [`histogram`]),
//! * fit scaling laws against the paper's asymptotic predictions
//!   ([`regression`]),
//! * check the analytic reductions themselves against simulation
//!   ([`random_walk`], [`drift`], [`concentration`]),
//! * feed the hybrid engine's online fidelity detector with deterministic
//!   drift-vs-fluctuation statistics ([`fluctuation`]),
//! * and pin fast stepping backends to their reference implementations with
//!   reusable statistical-conformance checkers ([`conformance`]:
//!   trajectory pinning, single-event-distribution tallies, and conservation
//!   drives over any `pp_core::StepEngine`),
//! * summarize ensemble runs in constant memory ([`streaming`]: Welford
//!   moments, P² quantiles, confidence intervals, and the one-pass
//!   [`streaming::summarize_ensemble`] over a
//!   `pp_core::ensemble::EnsembleRunResult`).
//!
//! ## Example
//!
//! ```
//! use pp_analysis::stats::Summary;
//! use pp_analysis::regression::log_log_fit;
//!
//! let times = [10.0, 12.0, 9.5, 11.0];
//! let s = Summary::from_slice(&times);
//! assert!((s.mean() - 10.625).abs() < 1e-12);
//!
//! // n log n growth has log-log slope slightly above 1.
//! let ns: [f64; 3] = [1_000.0, 10_000.0, 100_000.0];
//! let ts: Vec<f64> = ns.iter().map(|&n| n * n.ln()).collect();
//! let fit = log_log_fit(&ns, &ts).unwrap();
//! assert!(fit.slope > 1.0 && fit.slope < 1.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concentration;
pub mod conformance;
pub mod drift;
pub mod fluctuation;
pub mod histogram;
pub mod random_walk;
pub mod regression;
pub mod stats;
pub mod streaming;

pub use conformance::{check_conservation, Conformance, EventTally, Verdict};
pub use fluctuation::drift_noise_ratio;
pub use histogram::Histogram;
pub use regression::{log_log_fit, LinearFit};
pub use stats::{chi_squared_binned, chi_squared_two_sample, ChiSquaredTest, Summary};
pub use streaming::{summarize_ensemble, EnsembleSummary, P2Quantile, StreamingSummary};
