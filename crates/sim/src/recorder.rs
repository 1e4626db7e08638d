//! Time-series recording of simulation runs, with CSV export.
//!
//! Every recorder folds the run aggregates the §VII summary reads
//! ([`Recorder::ups_energy_wh`] and friends) at push time, in push
//! order, so each aggregate has one implementation and is exact after
//! every push. The two kinds of recorder differ only in what else they
//! keep:
//!
//! * [`Recorder::with_capacity`] (and `default()`) keeps every
//!   [`Sample`]: what the figure harness, CSV export and the QoS report
//!   read. Memory is O(ticks).
//! * [`Recorder::streaming`] keeps no samples. It is the datacenter
//!   engine's recorder, where whole-run retention at every rack would be
//!   the memory ceiling of a 10k-rack floor. Each push appends
//!   `cb_power` to a contiguous epoch lane, which the tree replay drains
//!   at every allocator boundary, and folds the sample into the
//!   per-sample section of [`run_digest`], which starts from that fold.
//!   A streaming recorder therefore digests exactly like one that kept
//!   the same trajectory.
//!
//! Both keep the events and the open-loop tail summary (both are
//! bounded and both feed the digest tail).
//!
//! [`run_digest`]: crate::exec::run_digest

use crate::exec::DigestBuilder;
use crate::mode::ModeLabel;
use powersim::units::{Seconds, Watts};
use std::io::Write;
use std::path::Path;
use workloads::open_loop::{QueueObservation, TailSummary};

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

/// The run aggregates every recorder folds at push time, in push order:
/// the same left folds `Iterator::sum` and a counted mean make over the
/// samples, so an aggregate reads the same whether or not the samples
/// are kept.
#[derive(Debug, Clone)]
struct Aggregates {
    len: usize,
    /// Period between the first two samples; 1 s until the second push
    /// fixes it (the fallback of a one-sample run).
    dt: Seconds,
    /// The first sample's time, UPS power and breaker power: the second
    /// push refolds that sample's energy with the real `dt`.
    first: (Seconds, Watts, Watts),
    ups_energy_wh: f64,
    cb_energy_wh: f64,
    sum_freq_interactive: f64,
    sum_freq_batch: f64,
    first_shortfall: Option<Seconds>,
}

impl Default for Aggregates {
    fn default() -> Self {
        Aggregates {
            len: 0,
            dt: Seconds(1.0),
            first: (Seconds(0.0), Watts::ZERO, Watts::ZERO),
            // −0.0, where `Iterator::sum::<f64>` starts: the additive
            // identity, so an empty or all-−0.0 series keeps its sign.
            ups_energy_wh: -0.0,
            cb_energy_wh: -0.0,
            sum_freq_interactive: 0.0,
            sum_freq_batch: 0.0,
            first_shortfall: None,
        }
    }
}

impl Aggregates {
    fn push(&mut self, s: &Sample) {
        match self.len {
            0 => self.first = (s.t, s.ups_power, s.cb_power),
            1 => {
                let (t0, ups, cb) = self.first;
                self.dt = Seconds(s.t.0 - t0.0);
                // Restart both sums at the real `dt`. Their first step,
                // −0.0 + x, is x.
                self.ups_energy_wh = ups.over(self.dt).0;
                self.cb_energy_wh = cb.over(self.dt).0;
            }
            _ => {}
        }
        self.len += 1;
        self.ups_energy_wh += s.ups_power.over(self.dt).0;
        self.cb_energy_wh += s.cb_power.over(self.dt).0;
        self.sum_freq_interactive += s.mean_freq_interactive;
        self.sum_freq_batch += s.mean_freq_batch;
        if self.first_shortfall.is_none() && s.shortfall.0 > 1.0 {
            self.first_shortfall = Some(s.t);
        }
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            sum / self.len as f64
        }
    }
}

/// What a streaming recorder keeps instead of its samples.
#[derive(Debug, Clone, Default)]
struct Stream {
    /// Contiguous `cb_power` lane of the current epoch, in push order;
    /// the datacenter tree replay consumes and clears it every epoch.
    lane: Vec<f64>,
    /// Incremental fold of every pushed sample, in push order: the
    /// per-sample section of [`crate::exec::run_digest`], bit for bit.
    digest: DigestBuilder,
}

/// An append-only recording of one run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    samples: Vec<Sample>,
    events: Vec<(Seconds, SimEvent)>,
    /// Whole-run request-latency tail summary (open-loop runs only);
    /// overwritten each tick with the cumulative sketch state.
    tail: Option<TailSummary>,
    totals: Aggregates,
    /// The streaming recorder's lane and digest; `None` keeps samples.
    stream: Option<Box<Stream>>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            samples: Vec::with_capacity(n),
            ..Recorder::default()
        }
    }

    /// A streaming recorder: samples are folded, not kept (see the
    /// module docs). [`Recorder::samples`] stays empty; use
    /// [`Recorder::epoch_lane`] for the current epoch's breaker powers.
    pub fn streaming() -> Self {
        Recorder {
            stream: Some(Box::default()),
            ..Recorder::default()
        }
    }

    /// Streaming recorder: the contiguous `cb_power` lane of the current
    /// epoch (everything pushed since the last
    /// [`Recorder::clear_epoch_lane`]). `None` if samples are kept.
    pub fn epoch_lane(&self) -> Option<&[f64]> {
        self.stream.as_ref().map(|st| st.lane.as_slice())
    }

    /// Streaming recorder: drop the current epoch lane (keeps its
    /// allocation). No-op if samples are kept.
    pub fn clear_epoch_lane(&mut self) {
        if let Some(st) = &mut self.stream {
            st.lane.clear();
        }
    }

    /// Streaming recorder: a snapshot of the incremental per-sample
    /// digest fold, the exact state [`crate::exec::run_digest`] starts
    /// its tail from. `None` if samples are kept.
    pub fn stream_digest(&self) -> Option<DigestBuilder> {
        self.stream.as_ref().map(|st| st.digest.clone())
    }

    /// Nothing is left to fold: every aggregate is exact after each
    /// push. Kept because the benchmark's traced floor replay calls it;
    /// it goes with that call.
    pub fn finish_stream(&mut self) {}

    /// Record the run-level request tail summary (open-loop runs).
    pub fn set_tail(&mut self, tail: TailSummary) {
        self.tail = Some(tail);
    }

    /// The run-level request tail summary, if this was an open-loop run.
    pub fn tail(&self) -> Option<TailSummary> {
        self.tail
    }

    pub fn push(&mut self, s: Sample) {
        self.totals.push(&s);
        match &mut self.stream {
            Some(st) => {
                st.lane.push(s.cb_power.0);
                crate::exec::digest_sample(&mut st.digest, &s);
            }
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

    /// Samples pushed so far, kept or not.
    pub fn len(&self) -> usize {
        self.totals.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kept samples; empty for a streaming recorder.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Total energy delivered by the UPS over the run, Wh.
    pub fn ups_energy_wh(&self) -> f64 {
        self.totals.ups_energy_wh
    }

    /// Total energy through the breaker, Wh.
    pub fn cb_energy_wh(&self) -> f64 {
        self.totals.cb_energy_wh
    }

    /// First time the rack browned out, if ever.
    pub fn first_shortfall(&self) -> Option<Seconds> {
        self.totals.first_shortfall
    }

    /// Mean interactive frequency over the whole run (zeros included).
    pub fn avg_freq_interactive(&self) -> f64 {
        self.totals.mean(self.totals.sum_freq_interactive)
    }

    /// Mean batch frequency over the whole run (zeros included).
    pub fn avg_freq_batch(&self) -> f64 {
        self.totals.mean(self.totals.sum_freq_batch)
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
    fn averages_and_first_shortfall() {
        let mut r = Recorder::default();
        r.push(sample(0.0, 0.0, 4000.0));
        let mut s2 = sample(1.0, 0.0, 0.0);
        s2.mean_freq_interactive = 0.0;
        s2.mean_freq_batch = 0.0;
        s2.shortfall = Watts(500.0);
        r.push(s2);
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

    /// Each aggregate recomputed from the kept samples with whole-series
    /// folds (`Iterator::sum` for the energies, a counted mean for the
    /// frequencies); a recorder's push-time fold must match it bit for bit.
    fn assert_whole_series_folds(r: &Recorder, samples: &[Sample]) {
        let dt = match samples {
            [a, b, ..] => Seconds(b.t.0 - a.t.0),
            _ => Seconds(1.0),
        };
        let ups: f64 = samples.iter().map(|s| s.ups_power.over(dt).0).sum();
        let cb: f64 = samples.iter().map(|s| s.cb_power.over(dt).0).sum();
        let n = samples.len().max(1) as f64;
        let fi = samples.iter().fold(0.0, |a, s| a + s.mean_freq_interactive) / n;
        let fb = samples.iter().fold(0.0, |a, s| a + s.mean_freq_batch) / n;
        let shortfall = samples.iter().find(|s| s.shortfall.0 > 1.0).map(|s| s.t);
        assert_eq!(r.len(), samples.len());
        assert_eq!(r.ups_energy_wh().to_bits(), ups.to_bits());
        assert_eq!(r.cb_energy_wh().to_bits(), cb.to_bits());
        assert_eq!(r.avg_freq_interactive().to_bits(), fi.to_bits());
        assert_eq!(r.avg_freq_batch().to_bits(), fb.to_bits());
        assert_eq!(r.first_shortfall(), shortfall);
    }

    #[test]
    fn push_time_folds_match_whole_series_folds_bit_for_bit() {
        let mut series = Vec::new();
        for k in 0..50 {
            let mut s = sample(
                k as f64 * 2.0,
                100.0 + 3.7 * k as f64,
                3000.0 - 11.0 * k as f64,
            );
            s.mean_freq_interactive = 0.5 + 0.01 * k as f64;
            s.mean_freq_batch = 0.3 + 0.007 * k as f64;
            if k == 31 {
                s.shortfall = Watts(600.0);
            }
            series.push(s);
        }
        // An idle UPS reports −0.0 W; `Iterator::sum` keeps that sign.
        let idle: Vec<Sample> = (0..5).map(|k| sample(k as f64, -0.0, -0.0)).collect();
        for samples in [&series[..], &series[..1], &idle[..], &[]] {
            let mut kept = Recorder::default();
            let mut st = Recorder::streaming();
            assert_whole_series_folds(&kept, &[]);
            assert_whole_series_folds(&st, &[]);
            for (i, s) in samples.iter().enumerate() {
                kept.push(s.clone());
                st.push(s.clone());
                // Exact after every push, not only at the end.
                assert_whole_series_folds(&kept, &samples[..=i]);
                assert_whole_series_folds(&st, &samples[..=i]);
            }
            assert_eq!(kept.samples().len(), samples.len());
            assert!(st.samples().is_empty());
            // The epoch lane holds every cb_power pushed since the last
            // clear, and the stream digest equals a from-scratch fold.
            let lane = st.epoch_lane().expect("streaming recorder has a lane");
            assert_eq!(lane.len(), samples.len());
            let mut h = crate::exec::DigestBuilder::new();
            for (v, s) in lane.iter().zip(samples) {
                assert_eq!(v.to_bits(), s.cb_power.0.to_bits());
                crate::exec::digest_sample(&mut h, s);
            }
            let digest = st.stream_digest().expect("streaming digest");
            assert_eq!(digest.finish(), h.finish());
            assert!(kept.epoch_lane().is_none());
            assert!(kept.stream_digest().is_none());
        }
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
