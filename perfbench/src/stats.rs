//! The benchmark's own arithmetic: medians, tail percentiles, proportions
//! with Wilson intervals, and the winner-probability error between arms.

/// The percentile ladder the tail metric picks from, in ascending order.
pub const TAIL_LADDER: [f64; 12] = [
    50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9,
];

/// How many samples must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle two for even counts); `None`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
#[must_use]
pub fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A tail-latency reading: which percentile, its value, and the counts that
/// justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples ranked strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked beyond it; `None` when even the median lacks them (fewer than 20
/// samples).
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(p, n)))
        .find(|&(_, rank)| n >= rank && n - rank >= TAIL_MIN_BEYOND)
        .map(|(p, rank)| Tail {
            percentile: p,
            value: sorted[rank - 1],
            samples: n,
            beyond: n - rank,
        })
}

/// A binomial proportion with its 95% Wilson score interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Successes.
    pub successes: u64,
    /// Trials.
    pub trials: u64,
    /// The point estimate `successes / trials`.
    pub p: f64,
    /// Wilson lower bound.
    pub lo: f64,
    /// Wilson upper bound.
    pub hi: f64,
}

/// The two-sided 95% normal quantile.
pub const Z95: f64 = 1.959_963_984_540_054;

/// `successes / trials` with its 95% Wilson score interval.
///
/// # Panics
///
/// Panics when `trials` is 0 or `successes > trials`.
#[must_use]
pub fn wilson(successes: u64, trials: u64) -> Proportion {
    assert!(
        trials > 0 && successes <= trials,
        "bad proportion {successes}/{trials}"
    );
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = Z95 * Z95;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = Z95 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Proportion {
        successes,
        trials,
        p,
        lo: (centre - half).max(0.0),
        hi: (centre + half).min(1.0),
    }
}

/// The winner-probability error of an approximate arm against the reference
/// arm, with Newcombe's hybrid-score 95% interval for the difference
/// `p_arm − p_ref` (built from the two Wilson intervals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WinErr {
    /// `|p_arm − p_ref|`.
    pub err: f64,
    /// Lower end of the 95% interval for `p_arm − p_ref`.
    pub diff_lo: f64,
    /// Upper end of the 95% interval for `p_arm − p_ref`.
    pub diff_hi: f64,
    /// The sampling error printed beside `err`: the interval's half-width
    /// on the side of the point estimate that faces zero.
    pub sampling_err: f64,
}

impl WinErr {
    /// Whether the interval excludes zero, i.e. the error is larger than
    /// its sampling error.
    #[must_use]
    pub fn resolved(&self) -> bool {
        self.diff_lo > 0.0 || self.diff_hi < 0.0
    }
}

/// [`WinErr`] of `arm` against `reference`.
#[must_use]
pub fn win_err(arm: &Proportion, reference: &Proportion) -> WinErr {
    let d = arm.p - reference.p;
    let below = ((arm.p - arm.lo).powi(2) + (reference.hi - reference.p).powi(2)).sqrt();
    let above = ((arm.hi - arm.p).powi(2) + (reference.p - reference.lo).powi(2)).sqrt();
    WinErr {
        err: d.abs(),
        diff_lo: d - below,
        diff_hi: d + above,
        sampling_err: if d >= 0.0 { below } else { above },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        // p90 has rank 90 and 10 beyond; p95 would leave only 5.
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));

        let values: Vec<f64> = (1..=38).map(f64::from).collect();
        let t = tail(&values).unwrap();
        // p70 has rank ceil(26.6) = 27 and 11 beyond; p75 has rank 29, 9 beyond.
        assert_eq!(t.percentile, 70.0);
        assert_eq!(t.value, 27.0);
        assert_eq!(t.beyond, 11);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn tail_needs_enough_samples() {
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(tail(&values).is_none());
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().percentile, 50.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn wilson_matches_reference_values() {
        // 41/64: Wilson 95% interval [0.5183, 0.7474].
        let w = wilson(41, 64);
        assert!((w.p - 0.640_625).abs() < 1e-12);
        assert!((w.lo - 0.5183).abs() < 5e-4, "{}", w.lo);
        assert!((w.hi - 0.7474).abs() < 5e-4, "{}", w.hi);
        // All successes keep a non-degenerate interval: [0.9436, 1].
        let w = wilson(64, 64);
        assert!((w.lo - 0.9436).abs() < 5e-4, "{}", w.lo);
        assert_eq!(w.hi, 1.0);
        let w = wilson(0, 10);
        assert_eq!(w.lo, 0.0);
        assert!(w.hi > 0.2 && w.hi < 0.35);
    }

    #[test]
    fn win_err_reports_the_difference_and_its_sampling_error() {
        let batched = wilson(41, 64);
        let hybrid = wilson(64, 64);
        let e = win_err(&hybrid, &batched);
        assert!((e.err - 23.0 / 64.0).abs() < 1e-12);
        // Newcombe: below = sqrt((1 − 0.9436)² + (0.7474 − 0.6406)²) ≈ 0.1208.
        assert!((e.sampling_err - 0.1208).abs() < 1e-3, "{}", e.sampling_err);
        assert!(e.resolved());
        assert!(e.diff_lo < e.err && e.err < e.diff_hi);

        let sharded = wilson(46, 64);
        let e = win_err(&sharded, &batched);
        assert!((e.err - 5.0 / 64.0).abs() < 1e-12);
        assert!(!e.resolved(), "5/64 is within sampling error at 64 seeds");

        // The sign of the difference picks the side that faces zero.
        let e = win_err(&batched, &hybrid);
        assert!((e.err - 23.0 / 64.0).abs() < 1e-12);
        assert!(e.diff_hi < 0.0);
        assert!(e.resolved());
    }
}
