//! # sprint-control — control-theory toolbox
//!
//! The feedback-control machinery SprintCon is built on, implemented from
//! scratch (no offline linalg/QP crates exist in this environment):
//!
//! * [`linalg`] — small dense matrices, Cholesky solves, spectral-radius
//!   estimation.
//! * [`qp`] — box-constrained convex QP: accelerated projected gradient
//!   plus a coordinate-descent reference solver, certified by the
//!   projected-KKT residual.
//! * [`qp_structured`] — O(n) solver for the diagonal-plus-rank-one
//!   blocks the MPC cost actually has; the production hot path.
//! * [`mpc`] — the Model Predictive Controller of §V-B: Eq. (7) reference
//!   trajectory, Eq. (8) cost, Eq. (9) box constraints, per-channel
//!   progress weights.
//! * [`pid`] — classical PID with anti-windup, for the MPC-vs-PID
//!   ablation.
//! * [`reference`](mod@reference) — exponential references and
//!   settling-time estimates
//!   (the §V-C allocator/controller timing contract).
//! * [`stability`] — closed-loop pole analysis under model error (§V-C).
//! * [`kalman`] — scalar Kalman smoothing for noisy power measurements.

#![forbid(unsafe_code)]

pub mod kalman;
pub mod linalg;
pub mod mpc;
pub mod pid;
pub mod qp;
pub mod qp_structured;
pub mod reference;
pub mod stability;

pub use kalman::Kalman1d;
pub use linalg::Mat;
pub use mpc::{MpcBackend, MpcConfig, MpcController, MpcDecision};
pub use pid::{Pid, PidConfig};
pub use qp::{QpProblem, QpSolution};
pub use qp_structured::{solve_blocks_into, BlockSolve, RankOneDiagQp};
pub use reference::{discrete_settling_periods, settling_time, ExpReference};
pub use stability::{
    max_gain_ratio, mimo_closed_loop, mimo_spectral_radius, scalar_pole, scalar_stable, LoopParams,
};
