//! # baselines — the state-of-the-art sprinting baselines of §VI-B
//!
//! SprintCon is evaluated against the sprinting game of Fan et al. \[2\]
//! run with its Cooperative Threshold solution (SGCT) and two idealized
//! variants the paper constructs for a fair power-safety comparison:
//!
//! * [`sgct::SgctVariant::Uncontrolled`] — SGCT as-is: open-loop power
//!   estimates, trips circuit breakers (Fig. 5);
//! * [`sgct::SgctVariant::V1Ideal`] — clairvoyant power management that
//!   lands exactly on the budget, never trips;
//! * [`sgct::SgctVariant::V2InteractivePriority`] — V1 plus priority for
//!   interactive cores.
//!
//! Modules: [`estimate`] (the open-loop model and the ideal oracle, each
//! evaluated through an incremental [`PowerProbe`]), [`game`]
//! (cooperative-threshold assignment), [`sgct`] (the stateful policies).

#![forbid(unsafe_code)]

pub mod estimate;
pub mod game;
pub mod sgct;

pub use estimate::{
    oracle_power, CalibratedRackEstimator, EstimateProbe, LinearRackEstimator, OracleProbe,
    PowerProbe, ProbeBuffers,
};
pub use game::{cooperative_threshold, rank_cores, Assignment, SprintRanking};
pub use sgct::{SgctCommand, SgctConfig, SgctPolicy, SgctVariant};
