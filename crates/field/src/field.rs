//! Stationary Gaussian random fields via random cosine features.

use crate::Position;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A smooth, spatially correlated scalar field over the plane.
///
/// The field is a superposition of `K` cosine waves with random frequencies
/// drawn from a Gaussian spectral density and random phases:
///
/// ```text
/// f(p) = mean + amplitude * sqrt(2/K) * Σ_k cos(w_k · p + φ_k)
/// ```
///
/// By Bochner's theorem this approximates a stationary Gaussian process with
/// a squared-exponential covariance whose correlation length is
/// `correlation_length`; for K ≳ 50 the approximation is visually and
/// statistically indistinguishable for our purposes. Nearby nodes therefore
/// observe similar values — the property the quadtree representation
/// exploits (paper §V-A, Fig. 4).
#[derive(Debug, Clone)]
pub struct CosineField {
    mean: f64,
    amplitude: f64,
    /// (wx, wy, phase) per wave.
    waves: Vec<(f64, f64, f64)>,
    norm: f64,
}

impl CosineField {
    /// Number of cosine features.
    pub(crate) const K: usize = 64;

    /// Builds a field with the given first two moments and correlation
    /// length (meters), deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `correlation_length` or `amplitude` is not positive.
    pub fn new(mean: f64, amplitude: f64, correlation_length: f64, seed: u64) -> Self {
        assert!(
            correlation_length > 0.0,
            "correlation length must be positive"
        );
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        let mut rng = SmallRng::seed_from_u64(seed);
        let sigma_w = 1.0 / correlation_length;
        let waves = (0..Self::K)
            .map(|_| {
                // Box-Muller pairs for the 2-D Gaussian frequency.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = sigma_w * (-2.0 * u1.ln()).sqrt();
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                (r * u2.cos(), r * u2.sin(), phase)
            })
            .collect();
        Self {
            mean,
            amplitude,
            waves,
            norm: (2.0 / Self::K as f64).sqrt(),
        }
    }

    /// Samples the field at a position.
    pub fn sample(&self, p: Position) -> f64 {
        self.at(self.wave_sum(p))
    }

    /// The cosine sum at a position: the `K` cosines of a sample, which
    /// depend on the position, the correlation length and the seed only —
    /// not on the mean or the amplitude.
    pub(crate) fn wave_sum(&self, p: Position) -> f64 {
        #[cfg(test)]
        tests::COSINES.with(|n| n.set(n.get() + self.waves.len()));
        self.waves
            .iter()
            .map(|&(wx, wy, ph)| (wx * p.x + wy * p.y + ph).cos())
            .sum()
    }

    /// Replaces the mean and the amplitude, which the waves do not depend
    /// on: the field [`Self::new`] builds from the same correlation length
    /// and seed with these moments.
    ///
    /// # Panics
    /// Panics if `amplitude` is negative.
    pub(crate) fn set_moments(&mut self, mean: f64, amplitude: f64) {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        self.mean = mean;
        self.amplitude = amplitude;
    }

    /// The field's value where the cosines sum to `sum`.
    pub(crate) fn at(&self, sum: f64) -> f64 {
        self.mean + self.amplitude * self.norm * sum
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured amplitude (≈ standard deviation of the field).
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Cosines [`CosineField::wave_sum`] evaluated on this thread.
        pub(crate) static COSINES: Cell<usize> = const { Cell::new(0) };
    }

    fn sample_stats(field: &CosineField, n: usize) -> (f64, f64) {
        let mut rng = SmallRng::seed_from_u64(999);
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                field.sample(Position::new(
                    rng.gen_range(0.0..5000.0),
                    rng.gen_range(0.0..5000.0),
                ))
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn moments_match_configuration() {
        let f = CosineField::new(21.0, 2.0, 100.0, 3);
        let (mean, sd) = sample_stats(&f, 20_000);
        assert!((mean - 21.0).abs() < 0.5, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.6, "sd {sd}");
    }

    #[test]
    fn nearby_points_are_correlated() {
        let f = CosineField::new(0.0, 1.0, 200.0, 7);
        let mut rng = SmallRng::seed_from_u64(11);
        let (mut near_diff, mut far_diff) = (0.0, 0.0);
        let n = 2000;
        for _ in 0..n {
            let p = Position::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0));
            let near = Position::new(p.x + 5.0, p.y);
            let far = Position::new(p.x + 1000.0, p.y + 1000.0);
            near_diff += (f.sample(p) - f.sample(near)).abs();
            far_diff += (f.sample(p) - f.sample(far)).abs();
        }
        assert!(
            near_diff * 5.0 < far_diff,
            "near {near_diff:.1} should be far below far {far_diff:.1}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CosineField::new(5.0, 1.0, 50.0, 42);
        let b = CosineField::new(5.0, 1.0, 50.0, 42);
        let c = CosineField::new(5.0, 1.0, 50.0, 43);
        let p = Position::new(10.0, 20.0);
        assert_eq!(a.sample(p), b.sample(p));
        assert_ne!(a.sample(p), c.sample(p));
    }

    #[test]
    fn zero_amplitude_is_constant() {
        let f = CosineField::new(9.0, 0.0, 100.0, 1);
        assert_eq!(f.sample(Position::new(0.0, 0.0)), 9.0);
        assert_eq!(f.sample(Position::new(500.0, 123.0)), 9.0);
    }
}
