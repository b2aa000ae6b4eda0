//! Discretized distribution calculus for delay estimation.
//!
//! Appendix C of the paper defines `dag_delay`, an idealized algorithm that
//! propagates *distributions* of delivery delay through a dependency DAG
//! using two operators: `⊕` (sum of independent delays, i.e. convolution —
//! "adding two identical exponential distributions yields a gamma
//! distribution") and `min` (the earliest of several replicas to reach the
//! destination). Closed forms exist only for special cases (min of
//! exponentials), so this module implements the calculus numerically on a
//! uniform time grid, which is exact in the limit of fine grids and easily
//! testable against the closed forms.

/// A probability distribution over `[0, horizon]`, represented by its CDF
/// sampled at `n + 1` uniformly spaced points (`bin 0 = t = 0`).
///
/// Mass beyond the horizon is carried implicitly: `cdf` values need not reach
/// 1.0 at the last bin, and [`DiscreteDist::mean`] accounts for the tail by
/// treating it as located at the horizon (a documented lower-bound bias that
/// vanishes as the horizon grows).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    /// CDF samples; `cdf[k] = P(X ≤ k · dt)`. Monotone non-decreasing, in [0,1].
    cdf: Vec<f64>,
    /// Grid step in the caller's time unit.
    dt: f64,
}

impl DiscreteDist {
    /// Builds a distribution directly from CDF samples.
    ///
    /// # Panics
    /// If fewer than two samples, a non-positive step, values outside
    /// `[0, 1]`, or a decreasing sequence are given.
    pub fn from_cdf(cdf: Vec<f64>, dt: f64) -> Self {
        assert!(cdf.len() >= 2, "need at least two CDF samples");
        assert!(dt > 0.0 && dt.is_finite(), "grid step must be positive");
        let mut prev = 0.0f64;
        for (i, &v) in cdf.iter().enumerate() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&v),
                "cdf[{i}] = {v} out of range"
            );
            assert!(v + 1e-12 >= prev, "cdf must be non-decreasing at {i}");
            prev = v;
        }
        Self { cdf, dt }
    }

    /// A point mass at `t = 0` (delivery already happened).
    pub fn zero(n: usize, dt: f64) -> Self {
        Self::from_cdf(vec![1.0; n + 1], dt)
    }

    /// A distribution with no mass on the grid (never delivers within the
    /// horizon) — the identity element of `min_with`.
    pub fn never(n: usize, dt: f64) -> Self {
        Self::from_cdf(vec![0.0; n + 1], dt)
    }

    /// Discretizes an exponential with rate `lambda` on an `n`-bin grid of
    /// step `dt`.
    pub fn exponential(lambda: f64, n: usize, dt: f64) -> Self {
        assert!(lambda > 0.0, "rate must be positive");
        let cdf = (0..=n)
            .map(|k| 1.0 - (-lambda * k as f64 * dt).exp())
            .collect();
        Self::from_cdf(cdf, dt)
    }

    /// Discretizes a gamma with integer shape `k` and rate `lambda`
    /// (the `k`-fold convolution of an exponential), built by convolution so
    /// it is exactly consistent with [`DiscreteDist::convolve`].
    pub fn gamma(shape: u32, lambda: f64, n: usize, dt: f64) -> Self {
        assert!(shape >= 1, "shape must be at least 1");
        let e = Self::exponential(lambda, n, dt);
        let mut acc = e.clone();
        for _ in 1..shape {
            acc = acc.convolve(&e);
        }
        acc
    }

    /// Number of bins (grid cells) after `t = 0`.
    pub fn bins(&self) -> usize {
        self.cdf.len() - 1
    }

    /// Grid step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// CDF evaluated at time `t` (nearest grid point at or below `t`,
    /// clamped to the horizon).
    pub fn cdf_at(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let k = ((t / self.dt).floor() as usize).min(self.cdf.len() - 1);
        self.cdf[k]
    }

    /// Probability mass in bin `k`, i.e. `P((k−1)·dt < X ≤ k·dt)` for `k ≥ 1`
    /// and `P(X ≤ 0)` for `k = 0`.
    fn pmf(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.cdf.len());
        p.push(self.cdf[0]);
        for k in 1..self.cdf.len() {
            p.push((self.cdf[k] - self.cdf[k - 1]).max(0.0));
        }
        p
    }

    /// Distribution of the sum of two independent delays (the paper's `⊕`).
    ///
    /// Mass that lands past the horizon stays in the implicit tail.
    /// O(n²); `dag_delay` uses modest grids so this is fine.
    pub fn convolve(&self, other: &Self) -> Self {
        assert_eq!(self.cdf.len(), other.cdf.len(), "grids must match");
        assert!((self.dt - other.dt).abs() < 1e-12, "grid steps must match");
        let pa = self.pmf();
        let pb = other.pmf();
        let n = self.cdf.len();
        let mut pmf = vec![0.0f64; n];
        for (i, &a) in pa.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in pb.iter().enumerate() {
                if i + j < n {
                    pmf[i + j] += a * b;
                }
                // else: tail mass, implicitly dropped from the grid.
            }
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for m in pmf {
            acc = (acc + m).min(1.0);
            cdf.push(acc);
        }
        Self { cdf, dt: self.dt }
    }

    /// Distribution of the minimum of two independent delays:
    /// `F_min(t) = 1 − (1 − F₁(t)) · (1 − F₂(t))`.
    pub fn min_with(&self, other: &Self) -> Self {
        assert_eq!(self.cdf.len(), other.cdf.len(), "grids must match");
        assert!((self.dt - other.dt).abs() < 1e-12, "grid steps must match");
        let cdf = self
            .cdf
            .iter()
            .zip(&other.cdf)
            .map(|(&a, &b)| 1.0 - (1.0 - a) * (1.0 - b))
            .collect();
        Self { cdf, dt: self.dt }
    }

    /// Minimum over a non-empty set of independent delays.
    pub fn min_of(dists: &[Self]) -> Self {
        assert!(!dists.is_empty(), "min_of needs at least one distribution");
        let mut acc = dists[0].clone();
        for d in &dists[1..] {
            acc = acc.min_with(d);
        }
        acc
    }

    /// Expected value, computed as `Σ (1 − F(k·dt)) · dt` (the survival-sum
    /// identity on the grid). Tail mass beyond the horizon contributes as if
    /// it sat exactly at the horizon, so this is a lower bound that becomes
    /// exact as the horizon grows.
    pub fn mean(&self) -> f64 {
        let mut s = 0.0;
        for k in 0..self.cdf.len() - 1 {
            s += (1.0 - self.cdf[k]) * self.dt;
        }
        s
    }

    /// Probability that the delay exceeds the horizon (the implicit tail).
    pub fn tail_mass(&self) -> f64 {
        1.0 - *self.cdf.last().expect("non-empty cdf")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 4000;
    const DT: f64 = 0.01;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn exponential_mean_on_grid() {
        let d = DiscreteDist::exponential(2.0, N, DT);
        close(d.mean(), 0.5, 0.01);
    }

    #[test]
    fn min_of_exponentials_matches_closed_form() {
        // min of Exp(λ1), Exp(λ2) is Exp(λ1+λ2) — the identity Eq. 7 builds on.
        let a = DiscreteDist::exponential(1.0, N, DT);
        let b = DiscreteDist::exponential(3.0, N, DT);
        let m = a.min_with(&b);
        let expect = DiscreteDist::exponential(4.0, N, DT);
        close(m.mean(), expect.mean(), 1e-6);
        close(m.cdf_at(0.5), expect.cdf_at(0.5), 1e-9);
    }

    #[test]
    fn convolution_of_exponentials_is_gamma() {
        // Exp(λ) ⊕ Exp(λ) = Gamma(2, λ): the paper's example for ⊕.
        let e = DiscreteDist::exponential(2.0, N, DT);
        let g = e.convolve(&e);
        close(g.mean(), 1.0, 0.02); // Gamma(2,2) mean = 1
        let g3 = g.convolve(&e);
        close(g3.mean(), 1.5, 0.03); // Gamma(3,2) mean = 1.5
    }

    #[test]
    fn gamma_constructor_matches_convolution() {
        let e = DiscreteDist::exponential(1.5, N, DT);
        let by_conv = e.convolve(&e).convolve(&e);
        let direct = DiscreteDist::gamma(3, 1.5, N, DT);
        for k in (0..=N).step_by(500) {
            close(by_conv.cdf[k], direct.cdf[k], 1e-9);
        }
    }

    #[test]
    fn zero_is_identity_for_convolution() {
        let e = DiscreteDist::exponential(1.0, N, DT);
        let z = DiscreteDist::zero(N, DT);
        let c = e.convolve(&z);
        for k in (0..=N).step_by(400) {
            close(c.cdf[k], e.cdf[k], 1e-12);
        }
    }

    #[test]
    fn never_is_identity_for_min() {
        let e = DiscreteDist::exponential(1.0, N, DT);
        let nv = DiscreteDist::never(N, DT);
        let m = e.min_with(&nv);
        for k in (0..=N).step_by(400) {
            close(m.cdf[k], e.cdf[k], 1e-12);
        }
        close(nv.mean(), N as f64 * DT, 1e-9);
    }

    #[test]
    fn min_commutes() {
        let a = DiscreteDist::exponential(0.7, N, DT);
        let b = DiscreteDist::gamma(2, 1.3, N, DT);
        let ab = a.min_with(&b);
        let ba = b.min_with(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn tail_mass_reported() {
        // Horizon 1.0 with mean 10 exponential: most mass is in the tail.
        let d = DiscreteDist::exponential(0.1, 100, 0.01);
        assert!(d.tail_mass() > 0.85);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_cdf() {
        let _ = DiscreteDist::from_cdf(vec![0.0, 0.5, 0.4], 1.0);
    }

    #[test]
    #[should_panic(expected = "grids must match")]
    fn rejects_mismatched_grids() {
        let a = DiscreteDist::exponential(1.0, 10, 0.1);
        let b = DiscreteDist::exponential(1.0, 20, 0.1);
        let _ = a.min_with(&b);
    }
}
