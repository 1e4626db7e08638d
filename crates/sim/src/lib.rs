//! # simkit — the discrete-time rack simulation and experiment harness
//!
//! Drives the `powersim` plant and `workloads` under a control
//! [`policy::Policy`] — SprintCon, the SGCT baselines, or fixed test
//! policies — one control period at a time, and measures what the
//! paper's evaluation measures.
//!
//! * [`engine`] — the tick loop (actuate → execute → power → serve →
//!   record) with trip/brownout semantics.
//! * [`dc_engine`] — many racks under a feeder → PDU → rack power tree,
//!   coupled only through the two-level headroom market at allocator
//!   boundaries; one fork-join over racks per epoch, bit-identical to
//!   sequential.
//! * [`policy`] — the policy trait plus SprintCon/SGCT adapters.
//! * [`scenario`] — the §VI-A setup builder (16 servers, 3.2 kW CB,
//!   400 Wh UPS, Wikipedia-like burst, SPEC-like jobs).
//! * [`recorder`] — per-period samples, run aggregates, CSV export.
//! * [`metrics`] — run summaries (avg frequencies, DoD, deadlines, …).
//! * [`mode`] — the shared [`mode::ModeLabel`] vocabulary for policy modes.
//! * [`experiment`] — the §VII policy kinds, the one builder that
//!   builds each for a plant ([`PolicyKind::build_for`]), and
//!   [`run_policy`], the untraced single-run entry point.
//! * [`exec`] — the parallel execution layer: [`exec::par_map`], the
//!   one order-preserving scoped map behind all parallel work, and
//!   [`exec::Campaign`], which fans scenario × policy runs through it
//!   with deterministic, input-ordered, sequential-bit-identical
//!   results, and [`exec::ExecConfig`], whose one switch turns per-run
//!   telemetry on.
//! * [`paper`] — the §VII evaluation as one campaign of twelve runs and
//!   one table of the paper's claims, each with its measured value and
//!   check.
//! * [`ascii_plot`] — terminal charts for the examples and `paper_figures`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ascii_plot;
pub mod dc_engine;
pub mod engine;
pub mod exec;
pub mod experiment;
pub mod metrics;
pub mod mode;
pub mod paper;
pub mod policy;
pub mod qos;
pub mod recorder;
pub mod scenario;

pub use dc_engine::{
    run_datacenter, DatacenterSim, DcError, DcRecordMode, DcRunOutput, DcScenario, MarketRound,
};
pub use engine::{RackSim, TierState};
pub use exec::{run_digest, Campaign, CampaignEntry, CampaignResult, DigestBuilder, ExecConfig};
pub use experiment::{aggregate_metrics, run_policy, PolicyKind, PolicyOverrides, RunOutput};
pub use metrics::{summary_table, RunSummary};
pub use mode::ModeLabel;
pub use policy::{FreqCommand, Policy, PolicyCommand, SgctSimPolicy, SimView, SprintConPolicy};
pub use qos::{qos_report, QosReport, SloAttainment};
pub use recorder::{CsvError, Recorder, Sample, SamplesNotKept, SimEvent};
pub use scenario::{Disturbances, Scenario, ScenarioBuilder, ScenarioError};
// Workload-source vocabulary, re-exported so scenario construction and
// open-loop result types don't force a direct `workloads` dependency.
pub use workloads::open_loop::{
    ArrivalProcess, DemandModel, QueueObservation, ServiceModel, TailSummary, WorkloadSource,
};
// Grid-event vocabulary, re-exported for the same reason: scenarios are
// built against `GridPlan` without a direct `powersim` dependency.
pub use powersim::grid::{
    ActiveGrid, GridEvent, GridEventKind, GridPlan, GridPlanError, StochasticGridEvent,
};
// Re-export the sink vocabulary so downstream crates can install their
// own collector around a run without a direct `telemetry` dependency.
pub use telemetry::{
    with_collector, Collector, JsonlSink, MemorySink, MetricsSnapshot, NullSink, Sink,
};
