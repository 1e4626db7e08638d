//! Deterministic pseudo-random noise for the plant models.
//!
//! The simulator must be bit-reproducible (DESIGN.md §6.3), so every noise
//! source is an explicitly-seeded generator. We embed a small xoshiro256++
//! implementation rather than pulling `rand` into this leaf crate; the
//! generator is used for *disturbance modeling*, not statistics-grade
//! sampling.

/// Seeded pseudo-random noise source (xoshiro256++ core).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    s: [u64; 4],
    /// Cached second output of the Box–Muller pair.
    spare: Option<f64>,
}

impl NoiseSource {
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state, as
        // recommended by the xoshiro authors.
        let mut sm = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        NoiseSource {
            s: [next(), next(), next(), next()],
            spare: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }
}

/// First-order (exponentially-correlated) disturbance process, used for
/// slowly-wandering quantities such as ambient temperature.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    noise: NoiseSource,
    /// Mean-reversion level.
    pub mean: f64,
    /// Mean-reversion rate, 1/s.
    pub theta: f64,
    /// Diffusion strength.
    pub sigma: f64,
    value: f64,
}

impl OrnsteinUhlenbeck {
    pub fn new(seed: u64, mean: f64, theta: f64, sigma: f64) -> Self {
        OrnsteinUhlenbeck {
            noise: NoiseSource::new(seed),
            mean,
            theta,
            sigma,
            value: mean,
        }
    }

    pub fn value(&self) -> f64 {
        self.value
    }

    /// Advance the process by `dt` seconds and return the new value.
    pub fn step(&mut self, dt: f64) -> f64 {
        let drift = self.theta * (self.mean - self.value) * dt;
        let diff = self.sigma * dt.sqrt() * self.noise.gaussian();
        self.value += drift + diff;
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = NoiseSource::new(123);
        let mut b = NoiseSource::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1);
        let mut b = NoiseSource::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut n = NoiseSource::new(9);
        for _ in 0..10_000 {
            let u = n.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut n = NoiseSource::new(4242);
        let k = 50_000;
        let xs: Vec<f64> = (0..k).map(|_| n.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / k as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / k as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut ou = OrnsteinUhlenbeck::new(7, 25.0, 0.5, 0.1);
        // Pull the state far away, then let it relax.
        for _ in 0..2000 {
            ou.step(1.0);
        }
        assert!((ou.value() - 25.0).abs() < 2.0);
    }

    #[test]
    fn ou_zero_sigma_is_deterministic_decay() {
        let mut ou = OrnsteinUhlenbeck::new(7, 10.0, 0.1, 0.0);
        // Start at the mean: stays exactly there.
        for _ in 0..50 {
            assert!((ou.step(1.0) - 10.0).abs() < 1e-12);
        }
    }
}
