//! # powersim — data-center power-infrastructure models
//!
//! The physical substrate of the SprintCon reproduction: everything the
//! controllers act on but do not contain. All models are deterministic
//! given their seeds, allocation-light, and free of I/O, so they can run
//! inside tight simulation loops and property tests.
//!
//! Modules:
//!
//! * [`units`] — strongly-typed watts / watt-hours / seconds / normalized
//!   frequency / utilization.
//! * [`cpu`] — DVFS ladders, core roles, per-core cubic power law.
//! * [`server`] — the nonlinear plant power model and the controller's
//!   fitted linear models (Eq. (1)–(5) of the paper).
//! * [`rack`] — a rack of servers as SoA slabs (batched stepping, role
//!   views, builder) plus a noisy power monitor.
//! * [`breaker`] — inverse-time circuit-breaker trip model (Fig. 2).
//! * [`ups`] — UPS battery with duty-cycled discharge circuit.
//! * [`battery_life`] — LFP cycle-life vs depth-of-discharge (§VII-D).
//! * [`supercap`] — hybrid battery + supercapacitor storage (\[24\]).
//! * [`thermal`] — lumped RC processor thermal model (the original
//!   sprinting limiter of \[1\]/\[4\], behind Fig. 3's duty cycle).
//! * [`fan`] — cooling-fan power disturbance (§V-A).
//! * [`topology`] — breaker + UPS feed serving a rack (Fig. 4).
//! * [`datacenter`] — feeder → PDU → rack tree with breakers on every
//!   shared edge (the cross-rack headroom market's substrate).
//! * [`noise`] — seeded noise sources used by the above.
//! * [`faults`] — deterministic fault injection (sensor, actuator,
//!   storage, breaker, server faults) replayed from a [`faults::FaultPlan`].
//! * [`grid`] — deterministic grid-signal injection (curtailment, price
//!   spikes, frequency regulation) replayed from a [`grid::GridPlan`].

#![forbid(unsafe_code)]

pub mod battery_life;
pub mod breaker;
pub mod cpu;
pub mod datacenter;
pub mod fan;
pub mod faults;
pub mod grid;
pub mod noise;
pub mod rack;
pub mod server;
pub mod supercap;
pub mod thermal;
pub mod topology;
pub mod units;
pub mod ups;

pub use breaker::{BreakerSpec, CircuitBreaker};
pub use cpu::{CoreRole, FreqScale, SnapLadder};
pub use datacenter::{Datacenter, DatacenterTopology, PduSpec, TopologyError};
pub use faults::{ActiveFaults, FaultEvent, FaultInjector, FaultKind, FaultPlan, StochasticFault};
pub use grid::{
    ActiveGrid, GridEvent, GridEventKind, GridInjector, GridPlan, GridPlanError,
    StochasticGridEvent,
};
pub use rack::{
    CoreId, PowerMonitor, Rack, RackBuilder, RackConfigError, RackState, RoleView, RoleViewMut,
};
pub use server::{InteractivePowerModel, LinearServerModel, ServerSpec};
pub use supercap::{HybridStorage, Supercap, SupercapSpec};
pub use thermal::{periodic_sprint_duty, ThermalModel};
pub use topology::{FeedOutcome, PowerFeed};
pub use units::{NormFreq, Seconds, Utilization, WattHours, Watts};
pub use ups::{UpsBattery, UpsSpec};
