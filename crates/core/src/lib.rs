//! # sprintcon — controllable and efficient computational sprinting
//!
//! A from-scratch implementation of **SprintCon** (Zheng et al.,
//! IPDPS 2019): a control system that lets a rack of data-center servers
//! sprint — draw more power than its circuit breaker's rated capacity —
//! for long durations, safely and efficiently, by coordinating three
//! pieces (Fig. 4 of the paper):
//!
//! * the **power load allocator** ([`allocator`]) splits the load between
//!   the breaker (periodic overload schedule → `P_cb`) and the UPS, and
//!   budgets the batch workloads (`P_batch`) from deadline pressure and
//!   interactive headroom utilization;
//! * the **server power controller** ([`server_controller`]) is an MPC
//!   over per-core DVFS that tracks `P_batch` using the indirect feedback
//!   `p_fb = p_total − p_inter` (Eq. (6));
//! * the **UPS power controller** ([`ups_controller`]) sets the
//!   duty-cycled discharge so the breaker carries exactly `P_cb`.
//!
//! The [`supervisor::SprintCon`] object ties them together and implements
//! the §IV-C escalation ladder (breaker near trip → stop overloading;
//! storage near empty → throttle everything into `P_cb`; both → end the
//! sprint).
//!
//! ## Quick start
//!
//! ```
//! use sprintcon::{ActiveGrid, SprintCon, SprintConConfig, SprintConInputs};
//! use powersim::units::{Seconds, Utilization, Watts};
//! use workloads::{BatchJob, ProgressModel};
//!
//! let cfg = SprintConConfig::paper_default();
//! let mut ctl = SprintCon::new(cfg);
//! let n = ctl.server_controller().num_channels();
//! let jobs: Vec<BatchJob> = (0..n)
//!     .map(|i| BatchJob::new(format!("job{i}"), ProgressModel::new(0.2), 300.0, Seconds(900.0)))
//!     .collect();
//! let utils = vec![Utilization(0.6); ctl.cfg.num_servers];
//! let freqs = vec![1.0; n];
//! let out = ctl.step(Seconds(1.0), SprintConInputs {
//!     p_total: Watts(4100.0),
//!     interactive_util: &utils,
//!     batch_freqs: &freqs,
//!     jobs: &jobs,
//!     breaker_margin: 0.0,
//!     breaker_closed: true,
//!     ups_soc: 1.0,
//!     queue: None,
//!     grid: ActiveGrid::default(),
//! });
//! assert_eq!(out.batch_freqs.len(), n);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod allocator;
pub mod bidding;
pub mod config;
pub mod server_controller;
pub mod supervisor;
pub mod ups_controller;

pub use allocator::{AllocatorTargets, CbScheduler, PowerLoadAllocator, ScheduleKind};
pub use bidding::{allocate_headroom_two_level_with, HeadroomBid, MarketOutcome, MarketWorkspace};
pub use config::{ConfigError, SprintConConfig};
pub use powersim::grid::ActiveGrid;
pub use server_controller::ServerPowerController;
pub use supervisor::{QueueMeasurement, SprintCon, SprintConInputs, SprintConOutputs, SprintMode};
pub use ups_controller::UpsPowerController;
