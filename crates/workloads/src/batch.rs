//! Batch-job execution model with deadlines.
//!
//! A batch job owns one core (§IV-D assumes per-core independent
//! workloads). It carries a total amount of work measured in
//! *peak-core-seconds* — the time it would take at peak frequency — and
//! advances at the rate the [`ProgressModel`] gives for the core's current
//! frequency. Deadlines are in terms of hours/days normally, but the
//! evaluation deliberately postpones them into minutes (§VII-D), so the
//! job tracks enough state to answer the allocator's two questions:
//! *will I miss my deadline at the current pace?* and *what rate do I need
//! from here on?* It also computes the MPC control-penalty weight `R_ij`
//! of §V-B.

use crate::progress_model::ProgressModel;
use powersim::units::Seconds;

/// A batch job bound to one core.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Display name (from the benchmark profile).
    pub name: String,
    /// Frequency-scaling model.
    pub model: ProgressModel,
    /// Total work in peak-core-seconds.
    pub total_work: f64,
    /// Absolute deadline (simulation time).
    pub deadline: Seconds,
    /// If true, the job restarts immediately on completion (§VI-A: batch
    /// workloads are "processed repeatedly and continuously").
    pub repeat: bool,
    /// Work completed in the current run, peak-core-seconds.
    done_work: f64,
    /// Simulation time the job has been running (including repeats).
    elapsed: Seconds,
    /// Completed runs (only grows with `repeat`).
    pub completions: usize,
    /// Time the *first* run completed, if it has.
    pub first_completion: Option<Seconds>,
}

impl BatchJob {
    pub fn new(
        name: impl Into<String>,
        model: ProgressModel,
        total_work: f64,
        deadline: Seconds,
    ) -> Self {
        assert!(total_work > 0.0, "job must contain work");
        BatchJob {
            name: name.into(),
            model,
            total_work,
            deadline,
            repeat: false,
            done_work: 0.0,
            elapsed: Seconds::ZERO,
            completions: 0,
            first_completion: None,
        }
    }

    pub fn repeating(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Fraction of the current run completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.done_work / self.total_work).clamp(0.0, 1.0)
    }

    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// The first run has finished.
    pub fn is_done(&self) -> bool {
        self.first_completion.is_some()
    }

    /// Whether the first run completed by its deadline (false while
    /// still running past the deadline, true while running before it —
    /// i.e. "not yet violated").
    pub fn deadline_met(&self, now: Seconds) -> bool {
        match self.first_completion {
            Some(t) => t.0 <= self.deadline.0,
            None => now.0 <= self.deadline.0,
        }
    }

    /// Remaining work of the current run, peak-core-seconds.
    pub fn remaining_work(&self) -> f64 {
        (self.total_work - self.done_work).max(0.0)
    }

    /// The execution *rate* (in peak-core units) needed from `now` to
    /// finish exactly at the deadline; `None` once the deadline has
    /// passed with work outstanding (no finite rate suffices) or the job
    /// is done (no rate needed).
    pub fn required_rate(&self, now: Seconds) -> Option<f64> {
        // The deadline governs the *first* completion (§VI-A repeats jobs
        // only to keep the 15-minute trace busy); once met, re-runs carry
        // no pressure.
        if self.is_done() {
            return Some(0.0);
        }
        let left = Seconds(self.deadline.0 - now.0);
        if left.0 <= 0.0 {
            return if self.remaining_work() > 0.0 {
                None
            } else {
                Some(0.0)
            };
        }
        Some(self.remaining_work() / left.0)
    }

    /// The frequency needed to finish exactly at the deadline, clamped to
    /// `[0, 1]`-representable rates; `None` if even peak frequency cannot
    /// make it (or the deadline already passed with work left).
    pub fn required_freq(&self, now: Seconds) -> Option<f64> {
        let rate = self.required_rate(now)?;
        self.model
            .freq_for_rate(rate.min(1.0 + 1e-12).min(1.0))
            .filter(|_| rate <= 1.0 + 1e-9)
    }

    /// The MPC control-penalty weight of §V-B:
    /// `R = remaining_progress / (remaining_time / (elapsed + remaining_time))`.
    ///
    /// The paper's worked example: 80% executed, 6 minutes used, 4 left →
    /// `R = 0.2 / (4/10) = 0.5`. Falls back to a large weight when the
    /// deadline has passed with work outstanding.
    pub fn control_weight(&self, now: Seconds) -> f64 {
        const OVERDUE_WEIGHT: f64 = 100.0;
        if self.is_done() {
            // First run met (or at least finished): repeats are pure
            // background work with no urgency.
            return 0.0;
        }
        let remaining_t = self.deadline.0 - now.0;
        if remaining_t <= 0.0 {
            return if self.remaining_work() > 0.0 {
                OVERDUE_WEIGHT
            } else {
                0.0
            };
        }
        let denom = remaining_t / (self.elapsed.0 + remaining_t);
        let w = (1.0 - self.progress()) / denom.max(1e-9);
        w.min(OVERDUE_WEIGHT)
    }

    /// Advance the job by `dt` at normalized frequency `f`. Returns the
    /// number of runs completed during this step (0 or more; >1 only for
    /// absurdly small repeating jobs).
    pub fn step(&mut self, f: f64, dt: Seconds) -> usize {
        assert!(dt.0 > 0.0);
        self.elapsed += dt;
        if f <= 0.0 || (self.is_done() && !self.repeat) {
            return 0; // powered off, fully throttled, or already finished
        }
        let mut advanced = self.model.rate(f) * dt.0;
        let mut completed = 0;
        loop {
            let room = self.total_work - self.done_work;
            if advanced < room {
                self.done_work += advanced;
                break;
            }
            advanced -= room;
            completed += 1;
            if self.first_completion.is_none() {
                self.first_completion = Some(self.elapsed);
            }
            self.completions += 1;
            if self.repeat {
                self.done_work = 0.0;
            } else {
                self.done_work = self.total_work;
                break;
            }
        }
        completed
    }
}

/// Size a job so that running at constant frequency `f_ref` finishes
/// exactly at `deadline` — the knob the evaluation uses to make deadlines
/// "relatively tight" (§VII-D).
pub fn sized_for_deadline(
    name: impl Into<String>,
    model: ProgressModel,
    deadline: Seconds,
    f_ref: f64,
) -> BatchJob {
    let work = model.rate(f_ref) * deadline.0;
    BatchJob::new(name, model, work, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> BatchJob {
        // 300 peak-core-seconds, 10-minute deadline, mb = 0.25.
        BatchJob::new("test", ProgressModel::new(0.25), 300.0, Seconds(600.0))
    }

    #[test]
    fn completes_at_peak_frequency_in_total_work_seconds() {
        let mut j = job();
        let mut t: f64 = 0.0;
        while !j.is_done() {
            j.step(1.0, Seconds(1.0));
            t += 1.0;
            assert!(t < 1000.0);
        }
        assert!((t - 300.0).abs() < 1.0);
        assert_eq!(j.completions, 1);
        assert!(j.deadline_met(Seconds(t)));
    }

    #[test]
    fn lower_frequency_slows_progress_per_model() {
        let mut a = job();
        let mut b = job();
        for _ in 0..100 {
            a.step(1.0, Seconds(1.0));
            b.step(0.5, Seconds(1.0));
        }
        let expected_ratio = ProgressModel::new(0.25).rate(0.5);
        assert!((b.progress() / a.progress() - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn zero_frequency_freezes_progress_but_not_time() {
        let mut j = job();
        j.step(0.0, Seconds(50.0));
        assert_eq!(j.progress(), 0.0);
        assert_eq!(j.elapsed(), Seconds(50.0));
    }

    #[test]
    fn paper_control_weight_example() {
        // 80% executed, 6 minutes elapsed, 4 minutes to deadline → R = 0.5.
        let mut j = BatchJob::new("ex", ProgressModel::new(0.0), 100.0, Seconds(600.0));
        // Run at a pace that lands exactly 80% done at t = 360 s:
        // rate = 80 work / 360 s.
        let f = 80.0 / 360.0;
        for _ in 0..360 {
            j.step(f, Seconds(1.0));
        }
        assert!((j.progress() - 0.8).abs() < 1e-6);
        let r = j.control_weight(Seconds(360.0));
        assert!((r - 0.5).abs() < 1e-6, "R={r}");
    }

    #[test]
    fn control_weight_grows_when_behind() {
        // Two jobs at the same wall-clock instant: the one that ran slower
        // (less progress, same elapsed) must carry the bigger weight.
        let mut slow = job();
        let mut fast = job();
        for _ in 0..200 {
            slow.step(0.25, Seconds(1.0));
            fast.step(1.0, Seconds(1.0));
        }
        let now = Seconds(200.0);
        assert!(slow.control_weight(now) > fast.control_weight(now));
        // And the same job's weight grows as its deadline nears without
        // progress (elapsed keeps accumulating).
        let w_early = slow.control_weight(now);
        for _ in 0..300 {
            slow.step(0.0, Seconds(1.0)); // starved: time passes, no work
        }
        let w_late = slow.control_weight(Seconds(500.0));
        assert!(w_late > w_early, "late={w_late} early={w_early}");
        // Overdue with work left → the large fallback weight.
        assert!(slow.control_weight(Seconds(601.0)) >= 100.0);
    }

    #[test]
    fn required_rate_and_freq() {
        let mut j = job();
        // Do half the work in 150 s at peak.
        for _ in 0..150 {
            j.step(1.0, Seconds(1.0));
        }
        // 150 work left, 450 s to deadline → rate 1/3.
        let rate = j.required_rate(Seconds(150.0)).unwrap();
        assert!((rate - 150.0 / 450.0).abs() < 1e-6);
        let f = j.required_freq(Seconds(150.0)).unwrap();
        // Check the inversion: rate(f) == required rate.
        assert!((j.model.rate(f) - rate).abs() < 1e-6);
        // Hopeless deadlines return None.
        assert!(j.required_rate(Seconds(599.999)).is_some());
        assert!(j.required_rate(Seconds(600.1)).is_none());
    }

    #[test]
    fn required_freq_none_when_even_peak_insufficient() {
        let j = job(); // 300 work
                       // 10 s before deadline, 300 work left → rate 30: impossible.
        assert!(j.required_freq(Seconds(590.0)).is_none());
    }

    #[test]
    fn repeating_job_counts_completions() {
        let mut j = BatchJob::new("r", ProgressModel::new(0.0), 10.0, Seconds(1e9)).repeating();
        for _ in 0..95 {
            j.step(1.0, Seconds(1.0));
        }
        assert_eq!(j.completions, 9);
        assert!((j.progress() - 0.5).abs() < 1e-9);
        assert!(j.first_completion.is_some());
    }

    #[test]
    fn one_huge_step_completes_multiple_repeats() {
        let mut j = BatchJob::new("r", ProgressModel::new(0.0), 10.0, Seconds(1e9)).repeating();
        let completed = j.step(1.0, Seconds(35.0));
        assert_eq!(completed, 3);
        assert!((j.progress() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sized_for_deadline_finishes_exactly_on_time_at_ref_freq() {
        let m = ProgressModel::new(0.3);
        let mut j = sized_for_deadline("s", m, Seconds(600.0), 0.55);
        let mut t: f64 = 0.0;
        while !j.is_done() {
            j.step(0.55, Seconds(1.0));
            t += 1.0;
            assert!(t <= 601.0);
        }
        assert!((t - 600.0).abs() <= 1.0);
    }

    #[test]
    fn non_repeating_job_clamps_at_done() {
        let mut j = BatchJob::new("n", ProgressModel::new(0.0), 5.0, Seconds(100.0));
        j.step(1.0, Seconds(50.0));
        assert!(j.is_done());
        assert_eq!(j.progress(), 1.0);
        assert_eq!(j.completions, 1);
        j.step(1.0, Seconds(50.0));
        assert_eq!(j.completions, 1, "finished job must not re-run");
        assert_eq!(j.required_rate(Seconds(99.0)), Some(0.0));
    }
}
