//! Open-loop request queueing and the typed workload-source API.
//!
//! The closed-loop [`crate::interactive`] tier clips demand into core
//! utilization, so overload is invisible: the served fraction drops but
//! nothing *waits*. Real serving is open loop — requests keep arriving
//! whether or not the tier keeps up, overload shows up as queueing, and
//! the quantity an operator watches is tail latency. This module adds
//! that path behind a typed [`WorkloadSource`]:
//!
//! * [`WorkloadSource::UtilTrace`] — today's behavior: a normalized
//!   demand trace executed by [`crate::interactive::InteractiveTier`]
//!   (bit-identical to the pre-redesign engine);
//! * [`WorkloadSource::OpenLoop`] — a deterministic request-level
//!   queueing model ([`OpenLoopTier`]): arrivals from a scaled demand
//!   generator ([`DemandModel`]), per-core service rates scaled by DVFS
//!   frequency through [`ProgressModel`], a bounded FIFO queue with
//!   tail-drop accounting, and streaming latency quantile sketches
//!   ([`LatencySketch`]) so p50/p95/p99 are computed without storing
//!   individual requests.
//!
//! ## Fluid FIFO model
//!
//! Requests are fluid (`f64` counts): within one control period,
//! arrivals spread uniformly over the tick and service drains the FIFO
//! at `cores · rate(f) / service_time` requests per second. Each served
//! slice's sojourn is the horizontal distance between the arrival and
//! completion curves plus the current service duration, observed into
//! the sketches as a linear latency ramp. Conservation holds exactly
//! (to float rounding): `arrived = completed + dropped + queued`.
//!
//! ## Determinism contract
//!
//! The tier is a pure function of its configuration, the seed, and the
//! per-tick inputs: no wall clock, no global state, no RNG beyond the
//! seeded demand generator. The sketch uses fixed log-spaced bins and a
//! fixed accumulation order, so whole-run quantiles are bit-identical
//! across sequential and parallel campaign execution — the same FNV
//! digest contract the closed-loop path satisfies.

use crate::interactive::server_weights;
use crate::mmpp::MmppConfig;
use crate::progress_model::ProgressModel;
use crate::trace::Trace;
use crate::wiki_trace::WikiTraceConfig;
use powersim::units::{NormFreq, Seconds, Utilization};
use std::collections::VecDeque;

/// Count below which a fluid batch is considered empty.
const EPS: f64 = 1e-9;

/// Why a workload source failed validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// Per-request service time must be positive and finite.
    InvalidServiceTime(f64),
    /// Per-server queue bound must be positive and finite.
    InvalidQueueCap(f64),
    /// The demand → request-rate scale must be positive and finite.
    InvalidPeakRate(f64),
    /// An explicit demand trace must be non-empty with a positive period.
    EmptyDemandTrace,
    /// An explicit demand trace sample is NaN or infinite.
    NonFiniteDemand { index: usize, value: f64 },
    /// Regime switching needs at least two MMPP states.
    TooFewMmppStates(usize),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::InvalidServiceTime(v) => {
                write!(f, "service time must be positive and finite, got {v}")
            }
            WorkloadError::InvalidQueueCap(v) => {
                write!(f, "queue capacity must be positive and finite, got {v}")
            }
            WorkloadError::InvalidPeakRate(v) => {
                write!(
                    f,
                    "peak requests/s per core must be positive and finite, got {v}"
                )
            }
            WorkloadError::EmptyDemandTrace => {
                write!(f, "demand trace is empty or has a non-positive period")
            }
            WorkloadError::NonFiniteDemand { index, value } => {
                write!(
                    f,
                    "demand trace sample {index} is {value}, not a finite number"
                )
            }
            WorkloadError::TooFewMmppStates(n) => {
                write!(f, "MMPP demand needs at least two states, got {n}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A normalized-demand generator in `[0, 1]` peak-core units: the
/// smooth Wikipedia-like generator, the regime-switching MMPP, or an
/// explicit trace (e.g. streamed in through [`crate::trace_io`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DemandModel {
    Wiki(WikiTraceConfig),
    Mmpp(MmppConfig),
    Trace(Trace),
}

impl DemandModel {
    /// Materialize the demand trace under `seed` (ignored for an
    /// explicit trace). For [`DemandModel::Wiki`] this is exactly the
    /// stream the pre-redesign engine generated, so `UtilTrace` runs
    /// stay bit-identical.
    pub fn generate(&self, seed: u64) -> Trace {
        match self {
            DemandModel::Wiki(cfg) => cfg.generate(seed),
            DemandModel::Mmpp(cfg) => cfg.generate(seed),
            DemandModel::Trace(t) => t.clone(),
        }
    }

    /// Check the structural constraints a generator would otherwise
    /// assert at generation time.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            DemandModel::Wiki(_) => Ok(()),
            DemandModel::Mmpp(cfg) => {
                if cfg.states.len() < 2 {
                    Err(WorkloadError::TooFewMmppStates(cfg.states.len()))
                } else {
                    Ok(())
                }
            }
            DemandModel::Trace(t) => {
                if t.values.is_empty() || !(t.dt.0 > 0.0 && t.dt.0.is_finite()) {
                    return Err(WorkloadError::EmptyDemandTrace);
                }
                match t.values.iter().position(|v| !v.is_finite()) {
                    Some(index) => Err(WorkloadError::NonFiniteDemand {
                        index,
                        value: t.values[index],
                    }),
                    None => Ok(()),
                }
            }
        }
    }
}

/// The arrival side of an open-loop workload: a demand generator plus
/// the scale that turns normalized demand into a request rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Normalized demand intensity in `[0, 1]`.
    pub demand: DemandModel,
    /// Requests per second per interactive core that demand `1.0` maps
    /// to. With the paper-default service model this is sized so demand
    /// `1.0` is exactly offered load ρ = 1 at peak frequency.
    pub peak_rps_per_core: f64,
}

impl ArrivalProcess {
    pub fn new(demand: DemandModel, peak_rps_per_core: f64) -> Self {
        ArrivalProcess {
            demand,
            peak_rps_per_core,
        }
    }

    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !(self.peak_rps_per_core > 0.0 && self.peak_rps_per_core.is_finite()) {
            return Err(WorkloadError::InvalidPeakRate(self.peak_rps_per_core));
        }
        self.demand.validate()
    }
}

/// The service side: per-request work, how DVFS frequency scales the
/// service rate, and the per-server queue bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Mean per-request service time at peak frequency, seconds.
    pub service_time_s: f64,
    /// Frequency → execution-rate model; a core at normalized frequency
    /// `f` serves `rate(f) / service_time_s` requests per second.
    pub progress: ProgressModel,
    /// Per-server queue bound in requests (waiting + in service);
    /// arrivals beyond it are tail-dropped and counted.
    pub queue_cap: f64,
}

impl ServiceModel {
    /// Interactive serving defaults: 20 ms requests, mildly
    /// memory-bound (mb = 0.15), and a queue bound equivalent to the
    /// closed-loop tier's 3.0-second backlog cap at peak service rate
    /// (4 cores × 50 req/s × 3 s = 600 requests).
    pub fn paper_default() -> Self {
        ServiceModel {
            service_time_s: 0.02,
            progress: ProgressModel::new(0.15),
            queue_cap: 600.0,
        }
    }

    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !(self.service_time_s > 0.0 && self.service_time_s.is_finite()) {
            return Err(WorkloadError::InvalidServiceTime(self.service_time_s));
        }
        if !(self.queue_cap > 0.0 && self.queue_cap.is_finite()) {
            return Err(WorkloadError::InvalidQueueCap(self.queue_cap));
        }
        Ok(())
    }
}

/// The typed workload-facing API: what drives the interactive tier.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// Closed-loop utilization trace — today's behavior, executed by
    /// [`crate::interactive::InteractiveTier`]. Bit-identical to the
    /// pre-redesign engine when the demand model is
    /// [`DemandModel::Wiki`].
    UtilTrace(DemandModel),
    /// Open-loop request queueing, executed by [`OpenLoopTier`].
    OpenLoop {
        arrivals: ArrivalProcess,
        service: ServiceModel,
    },
}

impl WorkloadSource {
    /// The §VI-A default: the Wikipedia-like utilization trace.
    pub fn paper_default() -> Self {
        WorkloadSource::UtilTrace(DemandModel::Wiki(WikiTraceConfig::paper_default()))
    }

    /// Open-loop serving of the Wikipedia-like demand with the
    /// paper-default service model, sized so demand 1.0 saturates the
    /// interactive cores at peak frequency (ρ = 1).
    pub fn open_loop_wiki() -> Self {
        WorkloadSource::OpenLoop {
            arrivals: ArrivalProcess::new(
                DemandModel::Wiki(WikiTraceConfig::paper_default()),
                50.0,
            ),
            service: ServiceModel::paper_default(),
        }
    }

    /// Open-loop serving of the spiky regime-switching demand — the
    /// flash-crowd scenario whose request tails `tests/workload_api.rs`
    /// and `tests/grid.rs` pin.
    pub fn open_loop_flash_crowd() -> Self {
        WorkloadSource::OpenLoop {
            arrivals: ArrivalProcess::new(DemandModel::Mmpp(MmppConfig::spiky_default()), 50.0),
            service: ServiceModel::paper_default(),
        }
    }

    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            WorkloadSource::UtilTrace(dm) => dm.validate(),
            WorkloadSource::OpenLoop { arrivals, service } => {
                arrivals.validate()?;
                service.validate()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streaming latency quantile sketch
// ---------------------------------------------------------------------

/// Number of log-spaced latency bins.
const BINS: usize = 128;
/// Sketch range: 0.1 ms … 1000 s of sojourn time.
const L_MIN: f64 = 1e-4;
const L_MAX: f64 = 1e3;

/// A streaming latency quantile sketch over fixed log-spaced bins.
///
/// Observations are weighted fluid counts; a served slice whose
/// latencies ramp linearly over `[lo, hi]` is spread across the bins it
/// overlaps in proportion to overlap length, so the sketch is exact for
/// the fluid model up to bin resolution (bins are ~5.5% wide across
/// seven decades). Quantile queries interpolate geometrically within a
/// bin. Everything is plain f64 arithmetic in a fixed order —
/// bit-deterministic and mergeable-free by construction (one sketch per
/// rack, owned by its shard).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySketch {
    counts: Vec<f64>,
    total: f64,
    max_seen: f64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    pub fn new() -> Self {
        LatencySketch {
            counts: vec![0.0; BINS],
            total: 0.0,
            max_seen: 0.0,
        }
    }

    pub fn reset(&mut self) {
        self.counts.fill(0.0);
        self.total = 0.0;
        self.max_seen = 0.0;
    }

    /// Total observed weight (requests).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Largest latency observed.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    fn bin_of(x: f64) -> usize {
        let x = x.max(L_MIN);
        let pos = (x / L_MIN).ln() / (L_MAX / L_MIN).ln() * BINS as f64;
        (pos as usize).min(BINS - 1)
    }

    /// Lower bound of bin `i`.
    fn bin_lo(i: usize) -> f64 {
        L_MIN * (L_MAX / L_MIN).powf(i as f64 / BINS as f64)
    }

    /// Observe `weight` requests at latency `l`.
    pub fn observe(&mut self, l: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.counts[Self::bin_of(l)] += weight;
        self.total += weight;
        if l > self.max_seen {
            self.max_seen = l;
        }
    }

    /// Observe `weight` requests whose latencies ramp linearly from
    /// `lo` to `hi` (a served fluid slice).
    pub fn observe_range(&mut self, lo: f64, hi: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        if hi - lo < 1e-12 {
            self.observe(lo, weight);
            return;
        }
        let span = hi - lo;
        let (b0, b1) = (Self::bin_of(lo), Self::bin_of(hi));
        for b in b0..=b1 {
            let (blo, bhi) = (Self::bin_lo(b), Self::bin_lo(b + 1));
            let overlap = (hi.min(bhi) - lo.max(blo)).max(0.0);
            if overlap > 0.0 {
                self.counts[b] += weight * overlap / span;
            }
        }
        self.total += weight;
        if hi > self.max_seen {
            self.max_seen = hi;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of observed latency, or 0.0
    /// if nothing was observed.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total;
        let mut cum = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c <= 0.0 {
                continue;
            }
            if cum + c >= target {
                let frac = ((target - cum) / c).clamp(0.0, 1.0);
                let (blo, bhi) = (Self::bin_lo(b), Self::bin_lo(b + 1));
                return (blo * (bhi / blo).powf(frac)).min(self.max_seen.max(blo));
            }
            cum += c;
        }
        self.max_seen
    }
}

// ---------------------------------------------------------------------
// The open-loop tier
// ---------------------------------------------------------------------

/// One fluid batch of queued requests: `count` requests whose arrival
/// times spread uniformly over `[t0, t1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Batch {
    t0: f64,
    t1: f64,
    count: f64,
}

/// Per-server result of one open-loop step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopLoad {
    /// Core utilization (busy fraction of this tick's service capacity).
    pub util: Utilization,
    /// Requests completed this tick.
    pub completed: f64,
    /// Requests dropped this tick (tail drop or power loss).
    pub dropped: f64,
    /// Queue depth after the step, requests.
    pub queue_len: f64,
}

/// One tick's aggregate queue observation — what the supervisor and the
/// recorder see (plain data, no counters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueObservation {
    /// Mean queue depth per server after the tick, requests.
    pub depth: f64,
    /// This tick's sojourn-time quantiles, seconds.
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    /// Requests arrived / completed / dropped this tick (rack total).
    pub arrived: f64,
    pub completed: f64,
    pub dropped: f64,
}

/// Whole-run tail summary from the cumulative sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Run-level sojourn-time quantiles, seconds.
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
    /// Request totals over the run.
    pub arrived: f64,
    pub completed: f64,
    pub dropped: f64,
    /// `dropped / arrived` (0 when nothing arrived).
    pub drop_fraction: f64,
}

/// The open-loop interactive tier: per-server bounded FIFO queues fed
/// by a scaled demand trace, drained at DVFS-dependent service rates.
#[derive(Debug, Clone)]
pub struct OpenLoopTier {
    /// Normalized arrival-intensity trace.
    pub demand: Trace,
    /// Per-server demand weights, mean 1.0 (same imperfect front-end
    /// balancing as the closed-loop tier).
    pub weights: Vec<f64>,
    service: ServiceModel,
    peak_rps_per_core: f64,
    cores_per_server: usize,
    queues: Vec<VecDeque<Batch>>,
    qlen: Vec<f64>,
    /// Run totals, requests.
    pub arrived: f64,
    pub completed: f64,
    pub dropped: f64,
    run_sketch: LatencySketch,
    tick_sketch: LatencySketch,
    last_tick: QueueObservation,
}

impl OpenLoopTier {
    /// Build the tier from an arrival process and service model;
    /// `seed` drives the demand generator (same stream position the
    /// closed-loop tier's generator uses).
    pub fn new(
        arrivals: &ArrivalProcess,
        service: &ServiceModel,
        num_servers: usize,
        cores_per_server: usize,
        seed: u64,
    ) -> Self {
        assert!(num_servers > 0 && cores_per_server > 0);
        OpenLoopTier {
            demand: arrivals.demand.generate(seed),
            weights: server_weights(num_servers, 0.12),
            service: service.clone(),
            peak_rps_per_core: arrivals.peak_rps_per_core,
            cores_per_server,
            queues: vec![VecDeque::new(); num_servers],
            qlen: vec![0.0; num_servers],
            arrived: 0.0,
            completed: 0.0,
            dropped: 0.0,
            run_sketch: LatencySketch::new(),
            tick_sketch: LatencySketch::new(),
            last_tick: QueueObservation {
                depth: 0.0,
                p50_s: 0.0,
                p95_s: 0.0,
                p99_s: 0.0,
                arrived: 0.0,
                completed: 0.0,
                dropped: 0.0,
            },
        }
    }

    pub fn num_servers(&self) -> usize {
        self.weights.len()
    }

    /// Advance one tick reading the demand level from the owned trace.
    pub fn step_into(
        &mut self,
        t: Seconds,
        dt: Seconds,
        freqs: &[NormFreq],
        powered: &[bool],
        out: &mut Vec<OpenLoopLoad>,
    ) {
        let level = self.demand.at(t);
        self.step_with_demand_into(level, t, dt, freqs, powered, out);
    }

    /// Advance one tick with an externally supplied demand level — the
    /// streaming-ingestion path: a full-day CSV can be fed chunk by
    /// chunk through [`crate::trace_io::TraceReader`] without ever
    /// materializing the whole trace.
    pub fn step_with_demand_into(
        &mut self,
        level: f64,
        t: Seconds,
        dt: Seconds,
        freqs: &[NormFreq],
        powered: &[bool],
        out: &mut Vec<OpenLoopLoad>,
    ) {
        let n = self.weights.len();
        assert_eq!(freqs.len(), n);
        assert_eq!(powered.len(), n);
        out.clear();
        out.reserve(n);
        self.tick_sketch.reset();
        let level = if level.is_finite() {
            level.max(0.0)
        } else {
            0.0
        };
        let cores = self.cores_per_server as f64;
        let (mut t_arr, mut t_done, mut t_drop) = (0.0, 0.0, 0.0);
        for s in 0..n {
            let arr = level * self.weights[s] * self.peak_rps_per_core * cores * dt.0;
            self.arrived += arr;
            t_arr += arr;
            if !powered[s] {
                // Power loss: the queue and everything arriving is lost.
                let lost = arr + self.qlen[s];
                self.dropped += lost;
                t_drop += lost;
                self.queues[s].clear();
                self.qlen[s] = 0.0;
                out.push(OpenLoopLoad {
                    util: Utilization::IDLE,
                    completed: 0.0,
                    dropped: lost,
                    queue_len: 0.0,
                });
                continue;
            }
            // Enqueue with tail drop at the queue bound; the kept head
            // of the arrival batch spans proportionally less of the
            // tick (uniform arrival density).
            let free = (self.service.queue_cap - self.qlen[s]).max(0.0);
            let accepted = arr.min(free);
            let dropped_here = arr - accepted;
            if accepted > EPS {
                let span = dt.0 * (accepted / arr);
                self.queues[s].push_back(Batch {
                    t0: t.0,
                    t1: t.0 + span,
                    count: accepted,
                });
                self.qlen[s] += accepted;
            }
            self.dropped += dropped_here;
            t_drop += dropped_here;

            // Serve FIFO at the DVFS-scaled rate. `rate` requires a
            // strictly positive frequency; a stopped core serves nothing.
            let f = freqs[s].0;
            let (cap, svc) = if f > EPS {
                let rate = self.service.progress.rate(f.min(1.0));
                (
                    cores * rate * dt.0 / self.service.service_time_s,
                    self.service.service_time_s / rate,
                )
            } else {
                (0.0, f64::INFINITY)
            };
            let mut served = 0.0;
            if cap > EPS {
                let mut remaining = cap.min(self.qlen[s]);
                while remaining > EPS {
                    let Some(front) = self.queues[s].front_mut() else {
                        break;
                    };
                    let m = front.count.min(remaining);
                    // Completion window: service spreads over the tick
                    // in proportion to capacity used so far.
                    let c0 = t.0 + dt.0 * (served / cap);
                    let c1 = t.0 + dt.0 * ((served + m) / cap);
                    // Arrival window of the served slice.
                    let a0 = front.t0;
                    let a1 = front.t0 + (front.t1 - front.t0) * (m / front.count);
                    let l0 = (c0 - a0).max(0.0) + svc;
                    let l1 = (c1 - a1).max(0.0) + svc;
                    self.run_sketch.observe_range(l0, l1, m);
                    self.tick_sketch.observe_range(l0, l1, m);
                    served += m;
                    remaining -= m;
                    if m + EPS >= front.count {
                        self.queues[s].pop_front();
                    } else {
                        front.t0 = a1;
                        front.count -= m;
                    }
                }
                self.qlen[s] = (self.qlen[s] - served).max(0.0);
            }
            self.completed += served;
            t_done += served;
            let util = if cap > 0.0 {
                Utilization((served / cap).clamp(0.0, 1.0))
            } else {
                Utilization::IDLE
            };
            out.push(OpenLoopLoad {
                util,
                completed: served,
                dropped: dropped_here,
                queue_len: self.qlen[s],
            });
        }
        self.last_tick = QueueObservation {
            depth: self.qlen.iter().sum::<f64>() / n as f64,
            p50_s: self.tick_sketch.quantile(0.50),
            p95_s: self.tick_sketch.quantile(0.95),
            p99_s: self.tick_sketch.quantile(0.99),
            arrived: t_arr,
            completed: t_done,
            dropped: t_drop,
        };
    }

    /// The most recent tick's aggregate observation.
    pub fn last_tick(&self) -> QueueObservation {
        self.last_tick
    }

    /// Whole-run tail summary from the cumulative sketch.
    pub fn tail_summary(&self) -> TailSummary {
        TailSummary {
            p50_s: self.run_sketch.quantile(0.50),
            p95_s: self.run_sketch.quantile(0.95),
            p99_s: self.run_sketch.quantile(0.99),
            max_s: self.run_sketch.max(),
            arrived: self.arrived,
            completed: self.completed,
            dropped: self.dropped,
            drop_fraction: if self.arrived > 0.0 {
                self.dropped / self.arrived
            } else {
                0.0
            },
        }
    }

    /// Requests currently queued across all servers.
    pub fn queued(&self) -> f64 {
        self.qlen.iter().sum()
    }

    /// Mean queued work per interactive core, seconds at peak service
    /// rate — the open-loop counterpart of the closed-loop tier's
    /// backlog proxy, so QoS analytics stay comparable.
    pub fn queued_seconds_per_core(&self) -> f64 {
        self.queued() * self.service.service_time_s
            / (self.weights.len() * self.cores_per_server) as f64
    }

    /// Fraction of arrived requests completed so far.
    pub fn service_ratio(&self) -> f64 {
        if self.arrived <= 0.0 {
            1.0
        } else {
            (self.completed / self.arrived).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(level: f64, servers: usize) -> OpenLoopTier {
        let arrivals = ArrivalProcess::new(
            DemandModel::Trace(Trace::constant(Seconds(1.0), level, 2000)),
            50.0,
        );
        let mut t = OpenLoopTier::new(&arrivals, &ServiceModel::paper_default(), servers, 4, 0);
        t.weights = vec![1.0; servers]; // uniform for exactness
        t
    }

    fn run(t: &mut OpenLoopTier, ticks: usize, f: f64, powered: bool) {
        let n = t.num_servers();
        let mut out = Vec::new();
        for k in 0..ticks {
            t.step_into(
                Seconds(k as f64),
                Seconds(1.0),
                &vec![NormFreq(f); n],
                &vec![powered; n],
                &mut out,
            );
        }
    }

    #[test]
    fn underload_latency_is_the_service_time() {
        let mut t = tier(0.5, 2);
        run(&mut t, 50, 1.0, true);
        let tail = t.tail_summary();
        // ρ = 0.5 at peak: no queueing, sojourn ≈ 20 ms service time
        // (within bin resolution).
        assert!(tail.p99_s < 0.05, "p99={}", tail.p99_s);
        assert!(tail.p50_s > 0.015, "p50={}", tail.p50_s);
        assert_eq!(tail.dropped, 0.0);
        assert!((t.service_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overload_queues_then_drops_at_the_cap() {
        let mut t = tier(0.9, 1);
        // Capacity at f=0.4: rate = 1/(0.15 + 0.85/0.4) ≈ 0.44 —
        // well under the 0.9 offered load, so the queue must grow to
        // the cap and then tail-drop.
        run(&mut t, 600, 0.4, true);
        let tail = t.tail_summary();
        assert!(t.queued() > 500.0, "queue should sit at the cap");
        assert!(tail.dropped > 0.0);
        assert!(tail.drop_fraction > 0.1, "{}", tail.drop_fraction);
        // Sojourn is dominated by the full queue ahead: seconds, not ms.
        assert!(tail.p99_s > 1.0, "p99={}", tail.p99_s);
    }

    #[test]
    fn conservation_exact() {
        let mut t = tier(0.8, 3);
        let freqs = [0.3, 1.0, 0.55];
        let mut out = Vec::new();
        for k in 0..500 {
            let fs: Vec<NormFreq> = (0..3).map(|s| NormFreq(freqs[(k + s) % 3])).collect();
            let powered = [true, true, k % 7 != 0];
            t.step_into(Seconds(k as f64), Seconds(1.0), &fs, &powered, &mut out);
        }
        let accounted = t.completed + t.dropped + t.queued();
        assert!(
            (t.arrived - accounted).abs() < 1e-6 * t.arrived.max(1.0),
            "arrived={} accounted={accounted}",
            t.arrived
        );
    }

    #[test]
    fn powered_off_server_drops_everything() {
        let mut t = tier(0.7, 2);
        let mut out = Vec::new();
        t.step_into(
            Seconds(0.0),
            Seconds(1.0),
            &[NormFreq::PEAK, NormFreq::PEAK],
            &[true, false],
            &mut out,
        );
        assert!(out[0].completed > 0.0);
        assert_eq!(out[1].completed, 0.0);
        assert!(out[1].dropped > 0.0);
        assert_eq!(out[1].util, Utilization::IDLE);
    }

    #[test]
    fn throttling_raises_p99_monotonically() {
        let mut fast = tier(0.6, 2);
        let mut slow = tier(0.6, 2);
        run(&mut fast, 120, 1.0, true);
        run(&mut slow, 120, 0.5, true);
        assert!(
            slow.tail_summary().p99_s > fast.tail_summary().p99_s,
            "slow p99 {} must exceed fast p99 {}",
            slow.tail_summary().p99_s,
            fast.tail_summary().p99_s
        );
    }

    #[test]
    fn deterministic_across_clones() {
        let arrivals = ArrivalProcess::new(DemandModel::Mmpp(MmppConfig::spiky_default()), 50.0);
        let svc = ServiceModel::paper_default();
        let mut a = OpenLoopTier::new(&arrivals, &svc, 4, 4, 9);
        let mut b = OpenLoopTier::new(&arrivals, &svc, 4, 4, 9);
        run(&mut a, 300, 0.8, true);
        run(&mut b, 300, 0.8, true);
        let (ta, tb) = (a.tail_summary(), b.tail_summary());
        assert_eq!(ta.p99_s.to_bits(), tb.p99_s.to_bits());
        assert_eq!(ta.completed.to_bits(), tb.completed.to_bits());
        assert_eq!(a.queued().to_bits(), b.queued().to_bits());
    }

    #[test]
    fn streaming_step_matches_trace_step() {
        // step_into(t) == step_with_demand_into(demand.at(t)) — the
        // contract the TraceReader streaming path relies on.
        let mut a = tier(0.7, 2);
        let mut b = tier(0.7, 2);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for k in 0..50 {
            let t = Seconds(k as f64);
            let level = a.demand.at(t);
            a.step_into(t, Seconds(1.0), &[NormFreq(0.6); 2], &[true; 2], &mut out_a);
            b.step_with_demand_into(
                level,
                t,
                Seconds(1.0),
                &[NormFreq(0.6); 2],
                &[true; 2],
                &mut out_b,
            );
            assert_eq!(out_a, out_b);
        }
        assert_eq!(a.completed.to_bits(), b.completed.to_bits());
    }

    #[test]
    fn sketch_quantiles_bracket_observations() {
        let mut s = LatencySketch::new();
        for k in 1..=1000 {
            s.observe(k as f64 * 1e-3, 1.0); // 1 ms … 1 s uniform
        }
        let (p50, p99) = (s.quantile(0.50), s.quantile(0.99));
        assert!((p50 - 0.5).abs() < 0.05, "p50={p50}");
        assert!((p99 - 0.99).abs() < 0.08, "p99={p99}");
        assert!(s.quantile(1.0) <= s.max() + 1e-12);
        assert_eq!(LatencySketch::new().quantile(0.99), 0.0);
    }

    #[test]
    fn sketch_range_observation_spreads_weight() {
        let mut ranged = LatencySketch::new();
        ranged.observe_range(0.01, 0.1, 100.0);
        assert!((ranged.total() - 100.0).abs() < 1e-9);
        // The median of a uniform ramp [10ms, 100ms] is ~55 ms
        // (log-bin quantization allows a few percent).
        let p50 = ranged.quantile(0.5);
        assert!((0.04..0.08).contains(&p50), "p50={p50}");
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let bad_service = ServiceModel {
            service_time_s: 0.0,
            ..ServiceModel::paper_default()
        };
        assert!(matches!(
            bad_service.validate(),
            Err(WorkloadError::InvalidServiceTime(_))
        ));
        let bad_cap = ServiceModel {
            queue_cap: f64::NAN,
            ..ServiceModel::paper_default()
        };
        assert!(matches!(
            bad_cap.validate(),
            Err(WorkloadError::InvalidQueueCap(_))
        ));
        let bad_rate =
            ArrivalProcess::new(DemandModel::Wiki(WikiTraceConfig::paper_default()), -1.0);
        assert!(matches!(
            bad_rate.validate(),
            Err(WorkloadError::InvalidPeakRate(_))
        ));
        let empty = DemandModel::Trace(Trace::new(Seconds(1.0), Vec::new()));
        assert!(matches!(
            empty.validate(),
            Err(WorkloadError::EmptyDemandTrace)
        ));
        assert!(WorkloadSource::paper_default().validate().is_ok());
        assert!(WorkloadSource::open_loop_wiki().validate().is_ok());
        assert!(WorkloadSource::open_loop_flash_crowd().validate().is_ok());
    }
}
