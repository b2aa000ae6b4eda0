//! Running estimators used by the control plane.
//!
//! §4.2: "Nodes locally compute the expected transfer opportunity with every
//! other node as a moving average of past transfers" and §4.1.2: "every node
//! tabulates the average time to meet every other node based on past meeting
//! times". [`RunningMean`] is the plain average of everything seen;
//! [`Ewma`] is the exponentially-weighted variant offered for the ablation
//! bench on estimator choice.

/// Plain running mean (the paper's "average of past meetings").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    mean: f64,
    count: u64,
}

impl RunningMean {
    /// An empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporates one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Current estimate, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Current estimate, or `fallback` before any observation.
    pub fn mean_or(&self, fallback: f64) -> f64 {
        self.mean().unwrap_or(fallback)
    }

    /// Number of observations incorporated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw `(mean, count)` state, for snapshot serialization. The raw mean
    /// is meaningful only when `count > 0`.
    pub fn state(&self) -> (f64, u64) {
        (self.mean, self.count)
    }

    /// Rebuilds an estimator from [`RunningMean::state`] output, bit-exact.
    pub fn from_state(mean: f64, count: u64) -> Self {
        Self { mean, count }
    }
}

/// Exponentially weighted moving average with smoothing factor `alpha`.
///
/// `alpha = 1` reproduces "last observation wins"; small `alpha` approaches a
/// long-run average. Initialized from the first observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with `0 < alpha ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Incorporates one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_matches_arithmetic_mean() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or(9.0), 9.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.observe(x);
        }
        assert!((m.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn running_mean_is_order_insensitive() {
        let mut a = RunningMean::new();
        let mut b = RunningMean::new();
        for x in [5.0, 1.0, 3.0] {
            a.observe(x);
        }
        for x in [3.0, 5.0, 1.0] {
            b.observe(x);
        }
        assert!((a.mean().unwrap() - b.mean().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn ewma_initializes_from_first_observation() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(0.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn ewma_alpha_one_tracks_last() {
        let mut e = Ewma::new(1.0);
        for x in [3.0, 7.0, 2.0] {
            e.observe(x);
        }
        assert_eq!(e.value(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}
