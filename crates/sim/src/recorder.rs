//! Time-series recording of simulation runs, with CSV export and
//! column-wise extraction for the figure harness.
//!
//! Two retention modes share one API:
//!
//! * **Full** (the default): every [`Sample`] is kept for the whole run
//!   — what the figure harness, CSV export, and standalone [`run_digest`]
//!   consume. Memory is O(ticks).
//! * **Streaming** ([`Recorder::streaming`]): built for the datacenter
//!   engine's 10k-rack floors, where whole-run retention at every rack
//!   is the memory ceiling. Samples are *not* kept; instead each push
//!   appends `cb_power` to a contiguous epoch lane (drained by the tree
//!   replay at every allocator boundary) and folds the sample into an
//!   incremental FNV digest plus the handful of running aggregates the
//!   §VII summary reads ([`Recorder::ups_energy_wh`] & friends). The
//!   folds replicate the full-retention accessors' accumulation order
//!   exactly, so summaries — and therefore run digests — come out
//!   **bit-identical** to a full-retention recorder of the same
//!   trajectory (`bench_datacenter --check` and `tests/datacenter.rs`
//!   enforce this). Events and the open-loop tail summary are kept in
//!   both modes (both are bounded and both feed the digest tail).
//!
//! [`run_digest`]: crate::exec::run_digest

use crate::exec::DigestBuilder;
use crate::mode::ModeLabel;
use powersim::units::{Seconds, Watts};
use std::io::Write;
use std::path::Path;
use workloads::open_loop::{QueueObservation, TailSummary};
use workloads::trace::Trace;

/// One control period's worth of observations.
#[derive(Debug, Clone)]
pub struct Sample {
    pub t: Seconds,
    /// True total rack power (servers + fans).
    pub p_total: Watts,
    /// What the (noisy) monitor reported.
    pub p_measured: Watts,
    pub p_server: Watts,
    pub p_fan: Watts,
    /// Power delivered through the breaker.
    pub cb_power: Watts,
    /// Power delivered by the UPS.
    pub ups_power: Watts,
    /// Unserved demand (brownout indicator).
    pub shortfall: Watts,
    /// The breaker tripped during this period.
    pub tripped: bool,
    pub breaker_closed: bool,
    pub breaker_margin: f64,
    pub ups_soc: f64,
    /// Policy-published breaker budget (Fig. 5/6's "CB budget" curve).
    pub p_cb_target: Option<Watts>,
    /// Policy-published batch budget.
    pub p_batch_target: Option<Watts>,
    /// Mean normalized frequency of interactive cores (0 when down).
    pub mean_freq_interactive: f64,
    /// Mean normalized frequency of batch cores (0 when down).
    pub mean_freq_batch: f64,
    /// Mean queued interactive backlog (peak-core-seconds per core).
    pub interactive_backlog: f64,
    /// Open-loop queue observation for this tick; `None` on the
    /// closed-loop path (and then contributes nothing to run digests).
    pub queue: Option<QueueObservation>,
    pub mode_label: ModeLabel,
}

/// A discrete event worth indexing a run by.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// The breaker tripped open.
    BreakerTripped,
    /// The breaker re-closed after its delay.
    BreakerReclosed,
    /// The rack browned out (unserved demand) and shut down.
    Brownout,
    /// The policy's internal mode changed (label = new mode).
    ModeChange(ModeLabel),
    /// A batch job completed its first run.
    JobCompleted { core: usize },
}

/// Streaming-mode fold state: everything the summary and digest need
/// from the samples, without the samples.
#[derive(Debug, Clone)]
struct StreamFold {
    /// Contiguous `cb_power` lane of the current epoch, in push order;
    /// the datacenter tree replay consumes and clears it every epoch.
    lane: Vec<f64>,
    /// Incremental fold of every pushed sample, in push order — the
    /// per-sample section of [`crate::exec::run_digest`], bit for bit.
    digest: DigestBuilder,
    /// First two timestamps seen: the same `dt` derivation full
    /// retention uses (`t1 − t0`, fallback 1 s below two samples).
    t0: Option<f64>,
    t1: Option<f64>,
    /// Samples pushed before `dt` is known (at most the first one);
    /// folded into the aggregates as soon as the second push fixes `dt`.
    pending: Vec<Sample>,
    /// Samples folded into the aggregates so far.
    folded: usize,
    sum_freq_interactive: f64,
    sum_freq_batch: f64,
    ups_energy_wh: f64,
    cb_energy_wh: f64,
    trip_count: usize,
    first_shortfall: Option<Seconds>,
}

impl StreamFold {
    fn new() -> Self {
        StreamFold {
            lane: Vec::new(),
            digest: DigestBuilder::new(),
            t0: None,
            t1: None,
            pending: Vec::new(),
            folded: 0,
            sum_freq_interactive: 0.0,
            sum_freq_batch: 0.0,
            ups_energy_wh: 0.0,
            cb_energy_wh: 0.0,
            trip_count: 0,
            first_shortfall: None,
        }
    }

    fn dt(&self) -> Option<Seconds> {
        match (self.t0, self.t1) {
            (Some(a), Some(b)) => Some(Seconds(b - a)),
            _ => None,
        }
    }

    /// Fold one sample into the running aggregates with the same
    /// accumulation order as the full-retention accessors (`+=` from a
    /// zero accumulator mirrors `Iterator::sum`'s left fold).
    fn fold(&mut self, s: &Sample, dt: Seconds) {
        self.folded += 1;
        self.sum_freq_interactive += s.mean_freq_interactive;
        self.sum_freq_batch += s.mean_freq_batch;
        self.ups_energy_wh += s.ups_power.over(dt).0;
        self.cb_energy_wh += s.cb_power.over(dt).0;
        if s.tripped {
            self.trip_count += 1;
        }
        if self.first_shortfall.is_none() && s.shortfall.0 > 1.0 {
            self.first_shortfall = Some(s.t);
        }
    }

    fn push(&mut self, s: Sample) {
        self.lane.push(s.cb_power.0);
        crate::exec::digest_sample(&mut self.digest, &s);
        if self.t0.is_none() {
            self.t0 = Some(s.t.0);
        } else if self.t1.is_none() {
            self.t1 = Some(s.t.0);
        }
        match self.dt() {
            Some(dt) => {
                // The second push fixes dt; flush the first sample (the
                // only one that can be pending) before folding this one,
                // preserving push order.
                for i in 0..self.pending.len() {
                    let p = self.pending[i].clone();
                    self.fold(&p, dt);
                }
                self.pending.clear();
                self.fold(&s, dt);
            }
            None => self.pending.push(s),
        }
    }

    /// Fold any still-pending samples with the sub-two-sample fallback
    /// `dt` of 1 s — exactly what full retention's `dt()` would use.
    fn flush_pending(&mut self) {
        for i in 0..self.pending.len() {
            let p = self.pending[i].clone();
            self.fold(&p, Seconds(1.0));
        }
        self.pending.clear();
    }

    fn len(&self) -> usize {
        self.folded + self.pending.len()
    }
}

/// An append-only recording of one run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    samples: Vec<Sample>,
    events: Vec<(Seconds, SimEvent)>,
    /// Whole-run request-latency tail summary (open-loop runs only);
    /// overwritten each tick with the cumulative sketch state.
    tail: Option<TailSummary>,
    /// Streaming-mode fold state; `None` means full retention.
    stream: Option<Box<StreamFold>>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            samples: Vec::with_capacity(n),
            events: Vec::new(),
            tail: None,
            stream: None,
        }
    }

    /// A streaming recorder: samples are folded, not retained — see the
    /// module docs for the contract. [`Recorder::samples`] stays empty;
    /// use [`Recorder::epoch_lane`] for the current epoch's breaker
    /// powers and the aggregate accessors for everything the summary
    /// reads.
    pub fn streaming() -> Self {
        Recorder {
            samples: Vec::new(),
            events: Vec::new(),
            tail: None,
            stream: Some(Box::new(StreamFold::new())),
        }
    }

    /// Streaming mode: the contiguous `cb_power` lane of the current
    /// epoch (everything pushed since the last
    /// [`Recorder::clear_epoch_lane`]). `None` under full retention.
    pub fn epoch_lane(&self) -> Option<&[f64]> {
        self.stream.as_ref().map(|st| st.lane.as_slice())
    }

    /// Streaming mode: drop the current epoch lane (keeps its
    /// allocation). No-op under full retention.
    pub fn clear_epoch_lane(&mut self) {
        if let Some(st) = &mut self.stream {
            st.lane.clear();
        }
    }

    /// Streaming mode: a snapshot of the incremental per-sample digest
    /// fold — the exact state [`crate::exec::run_digest`] would be in
    /// after hashing every pushed sample. Finish it with
    /// [`crate::exec::digest_run_tail`]. `None` under full retention.
    pub fn stream_digest(&self) -> Option<DigestBuilder> {
        self.stream.as_ref().map(|st| st.digest.clone())
    }

    /// Streaming mode: finalize the aggregate folds (flushes a
    /// sub-two-sample run with the same fallback `dt` full retention
    /// uses). Idempotent; no-op under full retention.
    pub fn finish_stream(&mut self) {
        if let Some(st) = &mut self.stream {
            st.flush_pending();
        }
    }

    /// Record the run-level request tail summary (open-loop runs).
    pub fn set_tail(&mut self, tail: TailSummary) {
        self.tail = Some(tail);
    }

    /// The run-level request tail summary, if this was an open-loop run.
    pub fn tail(&self) -> Option<TailSummary> {
        self.tail
    }

    pub fn push(&mut self, s: Sample) {
        match &mut self.stream {
            Some(st) => st.push(s),
            None => self.samples.push(s),
        }
    }

    /// Record a discrete event at time `t`.
    pub fn push_event(&mut self, t: Seconds, e: SimEvent) {
        self.events.push((t, e));
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[(Seconds, SimEvent)] {
        &self.events
    }

    /// Events matching a predicate.
    pub fn events_where<'a>(
        &'a self,
        pred: impl Fn(&SimEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (Seconds, SimEvent)> + 'a {
        self.events.iter().filter(move |(_, e)| pred(e))
    }

    /// Samples pushed so far (both modes; streaming counts folded ones).
    pub fn len(&self) -> usize {
        match &self.stream {
            Some(st) => st.len(),
            None => self.samples.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained samples. Empty in streaming mode (which is the
    /// point) — consumers that need trajectories (CSV export, column
    /// extraction, figure harness) require full retention.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    fn dt(&self) -> Seconds {
        match &self.stream {
            Some(st) => st.dt().unwrap_or(Seconds(1.0)),
            None => {
                if self.samples.len() >= 2 {
                    Seconds(self.samples[1].t.0 - self.samples[0].t.0)
                } else {
                    Seconds(1.0)
                }
            }
        }
    }

    /// Extract a column as a [`Trace`].
    pub fn column(&self, f: impl Fn(&Sample) -> f64) -> Trace {
        Trace::new(self.dt(), self.samples.iter().map(f).collect())
    }

    /// Streaming mode: aggregates over folded samples plus any samples
    /// still pending a `dt` (a sub-two-sample run), folded on the fly
    /// with the same 1 s fallback full retention would apply — so the
    /// accessor is exact at any point, not just after
    /// [`Recorder::finish_stream`].
    fn stream_with_pending<T>(
        st: &StreamFold,
        base: T,
        fold: impl Fn(T, &Sample, Seconds) -> T,
    ) -> T {
        let mut acc = base;
        for s in &st.pending {
            acc = fold(acc, s, Seconds(1.0));
        }
        acc
    }

    /// Total energy delivered by the UPS over the run, Wh.
    pub fn ups_energy_wh(&self) -> f64 {
        match &self.stream {
            Some(st) => Self::stream_with_pending(st, st.ups_energy_wh, |acc, s, dt| {
                acc + s.ups_power.over(dt).0
            }),
            None => {
                let dt = self.dt();
                self.samples.iter().map(|s| s.ups_power.over(dt).0).sum()
            }
        }
    }

    /// Total energy through the breaker, Wh.
    pub fn cb_energy_wh(&self) -> f64 {
        match &self.stream {
            Some(st) => Self::stream_with_pending(st, st.cb_energy_wh, |acc, s, dt| {
                acc + s.cb_power.over(dt).0
            }),
            None => {
                let dt = self.dt();
                self.samples.iter().map(|s| s.cb_power.over(dt).0).sum()
            }
        }
    }

    /// Number of breaker trips.
    pub fn trip_count(&self) -> usize {
        match &self.stream {
            Some(st) => {
                Self::stream_with_pending(st, st.trip_count, |acc, s, _| acc + s.tripped as usize)
            }
            None => self.samples.iter().filter(|s| s.tripped).count(),
        }
    }

    /// First time the rack browned out, if ever.
    pub fn first_shortfall(&self) -> Option<Seconds> {
        match &self.stream {
            Some(st) => Self::stream_with_pending(st, st.first_shortfall, |acc, s, _| {
                if acc.is_none() && s.shortfall.0 > 1.0 {
                    Some(s.t)
                } else {
                    acc
                }
            }),
            None => self
                .samples
                .iter()
                .find(|s| s.shortfall.0 > 1.0)
                .map(|s| s.t),
        }
    }

    /// Mean interactive frequency over the whole run (zeros included).
    pub fn avg_freq_interactive(&self) -> f64 {
        match &self.stream {
            Some(st) => {
                let sum = Self::stream_with_pending(st, st.sum_freq_interactive, |a, s, _| {
                    a + s.mean_freq_interactive
                });
                mean_of(sum, st.len())
            }
            None => mean(self.samples.iter().map(|s| s.mean_freq_interactive)),
        }
    }

    /// Mean batch frequency over the whole run (zeros included).
    pub fn avg_freq_batch(&self) -> f64 {
        match &self.stream {
            Some(st) => {
                let sum = Self::stream_with_pending(st, st.sum_freq_batch, |a, s, _| {
                    a + s.mean_freq_batch
                });
                mean_of(sum, st.len())
            }
            None => mean(self.samples.iter().map(|s| s.mean_freq_batch)),
        }
    }

    /// Write the full recording as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "t_s,p_total_w,p_measured_w,p_server_w,p_fan_w,cb_power_w,ups_power_w,\
             shortfall_w,tripped,breaker_closed,breaker_margin,ups_soc,p_cb_target_w,\
             p_batch_target_w,freq_interactive,freq_batch,backlog,queue_depth,queue_p99_s,\
             queue_dropped,mode"
        )?;
        for s in &self.samples {
            writeln!(
                out,
                "{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{:.4},{:.4},{},{},{:.4},{:.4},{:.4},{},{},{},{}",
                s.t.0,
                s.p_total.0,
                s.p_measured.0,
                s.p_server.0,
                s.p_fan.0,
                s.cb_power.0,
                s.ups_power.0,
                s.shortfall.0,
                s.tripped as u8,
                s.breaker_closed as u8,
                s.breaker_margin,
                s.ups_soc,
                s.p_cb_target.map_or(String::from(""), |w| format!("{:.1}", w.0)),
                s.p_batch_target.map_or(String::from(""), |w| format!("{:.1}", w.0)),
                s.mean_freq_interactive,
                s.mean_freq_batch,
                s.interactive_backlog,
                s.queue.map_or(String::new(), |q| format!("{:.3}", q.depth)),
                s.queue.map_or(String::new(), |q| format!("{:.6}", q.p99_s)),
                s.queue.map_or(String::new(), |q| format!("{:.3}", q.dropped)),
                s.mode_label,
            )?;
        }
        Ok(())
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = it.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    mean_of(sum, n)
}

fn mean_of(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, ups: f64, cb: f64) -> Sample {
        Sample {
            t: Seconds(t),
            p_total: Watts(cb + ups),
            p_measured: Watts(cb + ups),
            p_server: Watts(cb + ups - 50.0),
            p_fan: Watts(50.0),
            cb_power: Watts(cb),
            ups_power: Watts(ups),
            shortfall: Watts::ZERO,
            tripped: false,
            breaker_closed: true,
            breaker_margin: 0.1,
            ups_soc: 0.9,
            p_cb_target: Some(Watts(4000.0)),
            p_batch_target: None,
            mean_freq_interactive: 1.0,
            mean_freq_batch: 0.6,
            interactive_backlog: 0.0,
            queue: None,
            mode_label: ModeLabel::Sprint,
        }
    }

    #[test]
    fn energy_accounting() {
        let mut r = Recorder::default();
        // 600 s at 600 W UPS → 100 Wh.
        for k in 0..600 {
            r.push(sample(k as f64, 600.0, 3200.0));
        }
        assert!((r.ups_energy_wh() - 100.0).abs() < 1e-9);
        assert!((r.cb_energy_wh() - 3200.0 * 600.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn column_extraction() {
        let mut r = Recorder::default();
        for k in 0..10 {
            r.push(sample(k as f64 * 2.0, 100.0, 3000.0));
        }
        let col = r.column(|s| s.ups_power.0);
        assert_eq!(col.len(), 10);
        assert_eq!(col.dt, Seconds(2.0));
        assert_eq!(col.mean(), 100.0);
    }

    #[test]
    fn averages_and_counters() {
        let mut r = Recorder::default();
        let mut s1 = sample(0.0, 0.0, 4000.0);
        s1.tripped = true;
        r.push(s1);
        let mut s2 = sample(1.0, 0.0, 0.0);
        s2.mean_freq_interactive = 0.0;
        s2.mean_freq_batch = 0.0;
        s2.shortfall = Watts(500.0);
        r.push(s2);
        assert_eq!(r.trip_count(), 1);
        assert_eq!(r.first_shortfall(), Some(Seconds(1.0)));
        assert!((r.avg_freq_interactive() - 0.5).abs() < 1e-12);
        assert!((r.avg_freq_batch() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut r = Recorder::default();
        for k in 0..5 {
            r.push(sample(k as f64, 10.0, 3000.0));
        }
        let dir = std::env::temp_dir().join("sprintcon_test_csv");
        let path = dir.join("rec.csv");
        r.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 rows
        assert!(lines[0].starts_with("t_s,"));
        assert_eq!(lines[0].split(',').count(), 21);
        assert_eq!(lines[1].split(',').count(), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_fold_matches_full_retention_bit_for_bit() {
        let mut full = Recorder::default();
        let mut st = Recorder::streaming();
        for k in 0..50 {
            let mut s = sample(
                k as f64 * 2.0,
                100.0 + 3.7 * k as f64,
                3000.0 - 11.0 * k as f64,
            );
            s.mean_freq_interactive = 0.5 + 0.01 * k as f64;
            s.mean_freq_batch = 0.3 + 0.007 * k as f64;
            if k % 7 == 0 {
                s.tripped = true;
            }
            if k == 31 {
                s.shortfall = Watts(600.0);
            }
            full.push(s.clone());
            st.push(s);
        }
        st.finish_stream();
        assert_eq!(st.len(), full.len());
        assert_eq!(st.trip_count(), full.trip_count());
        assert_eq!(st.first_shortfall(), full.first_shortfall());
        assert_eq!(st.ups_energy_wh().to_bits(), full.ups_energy_wh().to_bits());
        assert_eq!(st.cb_energy_wh().to_bits(), full.cb_energy_wh().to_bits());
        assert_eq!(
            st.avg_freq_interactive().to_bits(),
            full.avg_freq_interactive().to_bits()
        );
        assert_eq!(
            st.avg_freq_batch().to_bits(),
            full.avg_freq_batch().to_bits()
        );
        // The epoch lane holds every cb_power pushed since the last clear.
        let lane = st.epoch_lane().expect("streaming recorder has a lane");
        assert_eq!(lane.len(), 50);
        for (v, s) in lane.iter().zip(full.samples()) {
            assert_eq!(v.to_bits(), s.cb_power.0.to_bits());
        }
        // And the incremental sample digest equals a from-scratch fold.
        let mut h = crate::exec::DigestBuilder::new();
        for s in full.samples() {
            crate::exec::digest_sample(&mut h, s);
        }
        assert_eq!(
            st.stream_digest().expect("streaming digest").finish(),
            h.finish()
        );
        // Full retention exposes no streaming surface.
        assert!(full.epoch_lane().is_none());
        assert!(full.stream_digest().is_none());
    }

    #[test]
    fn streaming_accessors_are_exact_mid_run_and_below_two_samples() {
        // One sample: full retention falls back to dt = 1 s; streaming
        // must agree even before finish_stream().
        let mut full = Recorder::default();
        let mut st = Recorder::streaming();
        let s = sample(5.0, 200.0, 2800.0);
        full.push(s.clone());
        st.push(s);
        assert_eq!(st.len(), 1);
        assert_eq!(st.ups_energy_wh().to_bits(), full.ups_energy_wh().to_bits());
        assert_eq!(
            st.avg_freq_interactive().to_bits(),
            full.avg_freq_interactive().to_bits()
        );
        // finish_stream is idempotent and changes nothing.
        st.finish_stream();
        st.finish_stream();
        assert_eq!(st.ups_energy_wh().to_bits(), full.ups_energy_wh().to_bits());
        // Empty streaming recorder behaves like an empty full one.
        let empty = Recorder::streaming();
        assert!(empty.is_empty());
        assert_eq!(empty.avg_freq_batch(), 0.0);
        assert_eq!(empty.first_shortfall(), None);
    }

    #[test]
    fn epoch_lane_clears_without_losing_aggregates() {
        let mut st = Recorder::streaming();
        for k in 0..10 {
            st.push(sample(k as f64, 50.0, 1000.0 + k as f64));
        }
        assert_eq!(st.epoch_lane().unwrap().len(), 10);
        let energy_before = st.cb_energy_wh();
        st.clear_epoch_lane();
        assert!(st.epoch_lane().unwrap().is_empty());
        assert_eq!(st.len(), 10, "clearing the lane must not drop samples");
        assert_eq!(st.cb_energy_wh().to_bits(), energy_before.to_bits());
        for k in 10..13 {
            st.push(sample(k as f64, 50.0, 1000.0 + k as f64));
        }
        assert_eq!(st.epoch_lane().unwrap().len(), 3, "lane restarts per epoch");
        assert_eq!(st.len(), 13);
    }

    #[test]
    fn queue_columns_fill_for_open_loop_samples() {
        let mut r = Recorder::default();
        let mut s = sample(0.0, 10.0, 3000.0);
        s.queue = Some(QueueObservation {
            depth: 12.5,
            p50_s: 0.02,
            p95_s: 0.05,
            p99_s: 0.08,
            arrived: 100.0,
            completed: 90.0,
            dropped: 2.0,
        });
        r.push(s);
        let dir = std::env::temp_dir().join("sprintcon_test_csv_queue");
        let path = dir.join("rec.csv");
        r.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let row: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row[17], "12.500");
        assert_eq!(row[18], "0.080000");
        assert_eq!(row[19], "2.000");
        std::fs::remove_dir_all(&dir).ok();
    }
}
