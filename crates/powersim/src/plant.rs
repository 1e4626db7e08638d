//! The plant one run simulates (Fig. 4, §VI-A) as one value, which the
//! rack is built from ([`PlantSpec::rack`]) and every controller is
//! built for, so the two cannot disagree.

use crate::breaker::BreakerSpec;
use crate::rack::Rack;
use crate::server::ServerSpec;
use crate::units::Watts;
use crate::ups::UpsSpec;

/// Everything physical about one rack.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantSpec {
    /// Server hardware description (every server is identical).
    pub server: ServerSpec,
    /// Servers behind the breaker (§VI-A: 16).
    pub num_servers: usize,
    /// Interactive cores per server (§VI-A mixed placement: 4 of 8).
    pub interactive_cores_per_server: usize,
    /// Circuit breaker protecting the rack.
    pub breaker: BreakerSpec,
    /// UPS energy storage.
    pub ups: UpsSpec,
}

/// Why a [`PlantSpec`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlantError {
    /// At least one server is required.
    NoServers,
    /// Interactive cores must leave at least one batch core per server.
    NoBatchCores {
        cores_per_server: usize,
        interactive: usize,
    },
    /// The DVFS ladder must span a positive, finite range:
    /// `0 < min < max` (batch progress is undefined at a zero frequency).
    InvalidFreqScale { min: f64, max: f64 },
    /// The breaker cannot even carry the fleet's idle draw (or its
    /// rating is NaN).
    BreakerBelowIdle { rated: Watts, idle: Watts },
}

impl std::fmt::Display for PlantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlantError::NoServers => write!(f, "at least one server is required"),
            PlantError::NoBatchCores {
                cores_per_server: c,
                interactive: i,
            } => write!(f, "{i} of {c} cores interactive leaves no batch core"),
            PlantError::InvalidFreqScale { min, max } => {
                write!(f, "frequency ladder needs 0 < min < max < ∞: {min}..{max}")
            }
            PlantError::BreakerBelowIdle { rated, idle } => {
                write!(f, "breaker rating {rated} is below the idle draw {idle}")
            }
        }
    }
}

impl std::error::Error for PlantError {}

impl PlantSpec {
    /// The paper's evaluation rack (§VI-A): 16 servers of 8 cores, 4 of
    /// them interactive, behind a 3.2 kW breaker and a 400 Wh UPS.
    pub fn paper_default() -> Self {
        PlantSpec {
            server: ServerSpec::paper_default(),
            num_servers: 16,
            interactive_cores_per_server: 4,
            breaker: BreakerSpec::paper_default(),
            ups: UpsSpec::paper_default(),
        }
    }

    /// Batch cores per server.
    pub fn batch_cores_per_server(&self) -> usize {
        self.server.num_cores - self.interactive_cores_per_server
    }

    /// Check every structural constraint of the plant.
    pub fn validate(&self) -> Result<(), PlantError> {
        if self.num_servers == 0 {
            return Err(PlantError::NoServers);
        }
        if self.interactive_cores_per_server >= self.server.num_cores {
            return Err(PlantError::NoBatchCores {
                cores_per_server: self.server.num_cores,
                interactive: self.interactive_cores_per_server,
            });
        }
        let (min, max) = (self.server.freq_scale.min.0, self.server.freq_scale.max.0);
        if !(0.0 < min && min < max && max.is_finite()) {
            return Err(PlantError::InvalidFreqScale { min, max });
        }
        let idle = Watts(self.server.idle_watts * self.num_servers as f64);
        if self.breaker.rated.0.is_nan() || self.breaker.rated.0 < idle.0 {
            return Err(PlantError::BreakerBelowIdle {
                rated: self.breaker.rated,
                idle,
            });
        }
        Ok(())
    }

    /// Validate and build the rack of servers (breaker and UPS aside).
    pub fn rack(&self) -> Result<Rack, PlantError> {
        self.validate()?;
        let rack = Rack::new(
            self.server.clone(),
            self.num_servers,
            self.interactive_cores_per_server,
        );
        // Plant validation is strictly tighter than the rack's.
        Ok(rack.expect("a valid plant builds a valid rack"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::NormFreq;

    #[test]
    fn validate_rejects_each_broken_plant() {
        let broken = |f: fn(&mut PlantSpec)| {
            let mut plant = PlantSpec::paper_default();
            f(&mut plant);
            plant.rack().expect_err("a broken plant builds no rack")
        };
        assert_eq!(broken(|p| p.num_servers = 0), PlantError::NoServers);
        assert_eq!(
            broken(|p| p.interactive_cores_per_server = 8),
            PlantError::NoBatchCores {
                cores_per_server: 8,
                interactive: 8
            }
        );
        assert_eq!(
            broken(|p| p.breaker.rated = Watts(100.0)),
            PlantError::BreakerBelowIdle {
                rated: Watts(100.0),
                idle: Watts(2400.0)
            }
        );
        assert!(matches!(
            broken(|p| p.breaker.rated = Watts(f64::NAN)),
            PlantError::BreakerBelowIdle { .. }
        ));
        for (min, max) in [
            (0.6, 0.6),
            (1.0, 0.2),
            (f64::NAN, 1.0),
            (0.2, f64::INFINITY),
            (0.0, 1.0),
            (-0.5, 1.0),
        ] {
            let mut plant = PlantSpec::paper_default();
            plant.server.freq_scale.min = NormFreq(min);
            plant.server.freq_scale.max = NormFreq(max);
            let err = plant.validate().expect_err("a broken ladder is rejected");
            assert!(
                matches!(err, PlantError::InvalidFreqScale { .. }),
                "{min}..{max}"
            );
            assert!(err.to_string().contains("frequency ladder"), "{err}");
        }
    }
}
