//! Run-level metrics — the quantities the paper's evaluation reports.

use crate::engine::RackSim;
use crate::recorder::Recorder;
use powersim::units::Seconds;
use workloads::open_loop::TailSummary;

/// Summary of one policy run (the row format of §VII).
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub policy: String,
    /// Mean normalized interactive frequency over the run, shutdown
    /// periods counted as zero (Fig. 5(b)/Fig. 7 convention).
    pub avg_freq_interactive: f64,
    /// Same for batch cores.
    pub avg_freq_batch: f64,
    /// Breaker trips (power-safety violations).
    pub trips: usize,
    /// The rack browned out and shut down.
    pub shutdown: bool,
    pub shutdown_at: Option<Seconds>,
    /// Total energy the UPS delivered, Wh.
    pub ups_energy_wh: f64,
    /// Total discharge of UPS capacity — the paper's Fig. 8(b) metric —
    /// as a fraction of capacity (cell-side, so efficiency losses count).
    pub dod: f64,
    /// Deepest instantaneous depth of discharge reached.
    pub max_dod: f64,
    /// Batch deadline outcomes.
    pub deadlines_met: usize,
    pub deadlines_total: usize,
    /// Mean over jobs of completion_time / deadline (Fig. 8(a)); jobs
    /// that never completed count as 1.5 (off the chart).
    pub normalized_time_use: f64,
    /// Fraction of interactive demand actually served.
    pub service_ratio: f64,
    /// Energy through the breaker, Wh.
    pub cb_energy_wh: f64,
    /// Control periods that drew more than an active grid curtailment's
    /// cap through the breaker after its response deadline.
    pub grid_violations: u64,
    /// Request-latency tail summary (open-loop runs only; `None` on
    /// the closed-loop path, where it contributes nothing to digests).
    pub open_loop: Option<TailSummary>,
}

impl RunSummary {
    /// Compute the summary from a finished run.
    pub fn from_run(policy: impl Into<String>, sim: &RackSim, rec: &Recorder) -> Self {
        let jobs = &sim.jobs;
        let deadlines_total = jobs.len();
        let deadlines_met = jobs
            .iter()
            .filter(|j| matches!(j.first_completion, Some(t) if t.0 <= j.deadline.0))
            .count();
        let normalized_time_use = if deadlines_total == 0 {
            0.0
        } else {
            jobs.iter()
                .map(|j| match j.first_completion {
                    Some(t) => t.0 / j.deadline.0,
                    None => 1.5,
                })
                .sum::<f64>()
                / deadlines_total as f64
        };
        let capacity = sim.feed.ups.spec.capacity.0;
        RunSummary {
            policy: policy.into(),
            avg_freq_interactive: rec.avg_freq_interactive(),
            avg_freq_batch: rec.avg_freq_batch(),
            trips: sim.feed.breaker.trip_count,
            shutdown: sim.is_shutdown(),
            shutdown_at: rec.first_shortfall(),
            ups_energy_wh: rec.ups_energy_wh(),
            dod: (sim.feed.ups.total_cell_energy_out.0 / capacity).min(1.0),
            max_dod: sim.feed.ups.max_dod,
            deadlines_met,
            deadlines_total,
            normalized_time_use,
            service_ratio: sim.tier.service_ratio(),
            cb_energy_wh: rec.cb_energy_wh(),
            grid_violations: sim.grid_violations(),
            open_loop: rec.tail(),
        }
    }

    /// Computing capacity relative to a baseline, following §VII-C:
    /// the paper derives its "6–56% improvement" from the ratio of
    /// interactive frequencies (`1/f_baseline − 1` against SprintCon's
    /// peak-pinned 1.0).
    pub fn interactive_capacity_gain_over(&self, baseline: &RunSummary) -> f64 {
        assert!(baseline.avg_freq_interactive > 0.0);
        self.avg_freq_interactive / baseline.avg_freq_interactive - 1.0
    }

    /// One aligned text row (see [`summary_table`]).
    pub fn row(&self) -> String {
        format!(
            "{:<10} {:>7.2} {:>7.2} {:>6} {:>9} {:>9.1} {:>6.1}% {:>6.1}% {:>6}/{:<3} {:>8.2} {:>8.3}",
            self.policy,
            self.avg_freq_interactive,
            self.avg_freq_batch,
            self.trips,
            match self.shutdown_at {
                Some(t) => format!("{:.1}m", t.as_minutes()),
                None => "-".into(),
            },
            self.ups_energy_wh,
            self.dod * 100.0,
            self.max_dod * 100.0,
            self.deadlines_met,
            self.deadlines_total,
            self.normalized_time_use,
            self.service_ratio,
        )
    }
}

/// Render summaries as an aligned table.
pub fn summary_table(rows: &[RunSummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>6} {:>9} {:>9} {:>7} {:>7} {:>10} {:>8} {:>8}\n",
        "policy",
        "f_int",
        "f_bat",
        "trips",
        "down@",
        "ups_Wh",
        "DoD",
        "maxDoD",
        "deadlines",
        "t_use",
        "svc"
    ));
    for r in rows {
        out.push_str(&r.row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::FixedPolicy;
    use crate::scenario::Scenario;
    use powersim::units::{NormFreq, Watts};

    #[test]
    fn summary_from_safe_run() {
        let mut sim = Scenario::paper_default(3).build();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 0.4, Watts(900.0));
        let rec = sim.run(&mut p, Seconds(120.0));
        let s = RunSummary::from_run("fixed", &sim, &rec);
        assert_eq!(s.policy, "fixed");
        assert_eq!(s.trips, 0);
        assert!(!s.shutdown);
        assert!((s.avg_freq_interactive - 1.0).abs() < 1e-9);
        assert!((s.avg_freq_batch - 0.4).abs() < 1e-9);
        assert!(s.ups_energy_wh > 0.0);
        assert!(s.dod > 0.0 && s.dod < 0.2);
        assert_eq!(s.deadlines_total, 64);
        assert!(s.service_ratio > 0.9);
    }

    #[test]
    fn capacity_gain_formula() {
        let mut a = RunSummary::from_run(
            "a",
            &Scenario::paper_default(1).build(),
            &Recorder::default(),
        );
        let mut b = a.clone();
        a.avg_freq_interactive = 1.0;
        b.avg_freq_interactive = 0.64;
        // The paper's top end: 1/0.64 − 1 = 56%.
        assert!((a.interactive_capacity_gain_over(&b) - 0.5625).abs() < 1e-9);
        b.avg_freq_interactive = 0.94;
        // Bottom end: ≈ 6%.
        let g = a.interactive_capacity_gain_over(&b);
        assert!((g - 0.0638).abs() < 0.001);
    }

    #[test]
    fn table_renders_all_rows() {
        let sim = Scenario::paper_default(1).build();
        let s = RunSummary::from_run("x", &sim, &Recorder::default());
        let t = summary_table(&[s.clone(), s]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("policy"));
    }

    #[test]
    fn unfinished_jobs_count_against_time_use() {
        let sim = Scenario::paper_default(1).build();
        let s = RunSummary::from_run("x", &sim, &Recorder::default());
        // No job ran: all unfinished → 1.5 each.
        assert!((s.normalized_time_use - 1.5).abs() < 1e-12);
        assert_eq!(s.deadlines_met, 0);
    }
}
