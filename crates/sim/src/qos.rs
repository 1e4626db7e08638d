//! Interactive quality-of-service analytics.
//!
//! The paper's motivation for pinning interactive cores at peak frequency
//! is latency; the engine tracks the queued backlog per period, and this
//! module turns backlog into the QoS quantities an operator would watch:
//! a queueing-delay proxy, percentiles, and SLO-attainment accounting
//! across a ladder of thresholds. Open-loop runs additionally surface
//! the request-level tail (p99 sojourn, drop fraction) from the
//! engine's streaming latency sketch.

use crate::recorder::{Recorder, SamplesNotKept};

/// Attainment of one SLO threshold over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAttainment {
    /// The delay budget this row evaluates, seconds.
    pub slo_delay_s: f64,
    /// Fraction of periods whose delay met the SLO.
    pub attainment: f64,
    /// Fraction of periods whose delay exceeded the SLO.
    pub violation_fraction: f64,
    /// Longest consecutive violation streak, seconds.
    pub longest_violation_s: f64,
}

/// QoS report for the interactive tier over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Mean queueing-delay proxy, seconds (backlog / service capacity —
    /// how long the queued work takes to drain at peak service rate).
    pub mean_delay_s: f64,
    /// 95th / 99th percentile of the delay proxy.
    pub p95_delay_s: f64,
    pub p99_delay_s: f64,
    /// Worst delay over the run.
    pub max_delay_s: f64,
    /// Fraction of periods whose delay exceeded the *first* SLO in the
    /// ladder (the headline threshold).
    pub violation_fraction: f64,
    /// Longest consecutive violation streak of the first SLO, seconds.
    pub longest_violation_s: f64,
    /// Attainment per requested SLO threshold, in input order.
    pub per_slo: Vec<SloAttainment>,
    /// p99 request sojourn time from the open-loop latency sketch;
    /// `None` for closed-loop runs.
    pub request_p99_s: Option<f64>,
    /// Fraction of requests dropped (tail drop or power loss); `None`
    /// for closed-loop runs.
    pub drop_fraction: Option<f64>,
}

/// Compute a [`QosReport`] from a recording.
///
/// `slo_delays_s` is a ladder of delay budgets (e.g. `[0.25, 0.5, 1.0]`
/// seconds of queued work per core), each reported separately in
/// [`QosReport::per_slo`]; the first is the headline threshold behind
/// the top-level violation fields. The delay proxy for a period is its
/// mean backlog (peak-core-seconds per core): the time a newly arriving
/// request would wait for the queue ahead of it at peak service rate.
///
/// The report reads every period's backlog, so a streaming recorder
/// (a datacenter floor rack's) that was pushed samples is refused with
/// [`SamplesNotKept`]; only a run with no ticks reports all-zero.
pub fn qos_report(rec: &Recorder, slo_delays_s: &[f64]) -> Result<QosReport, SamplesNotKept> {
    assert!(!slo_delays_s.is_empty(), "at least one SLO threshold");
    for &slo in slo_delays_s {
        assert!(slo > 0.0, "SLO must be positive");
    }
    let samples = rec.kept_samples()?;
    let tail = rec.tail();
    let request_p99_s = tail.map(|t| t.p99_s);
    let drop_fraction = tail.map(|t| t.drop_fraction);
    let delays: Vec<f64> = samples.iter().map(|s| s.interactive_backlog).collect();
    if delays.is_empty() {
        return Ok(QosReport {
            mean_delay_s: 0.0,
            p95_delay_s: 0.0,
            p99_delay_s: 0.0,
            max_delay_s: 0.0,
            violation_fraction: 0.0,
            longest_violation_s: 0.0,
            per_slo: slo_delays_s
                .iter()
                .map(|&slo| SloAttainment {
                    slo_delay_s: slo,
                    attainment: 1.0,
                    violation_fraction: 0.0,
                    longest_violation_s: 0.0,
                })
                .collect(),
            request_p99_s,
            drop_fraction,
        });
    }
    let mut sorted = delays.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| sorted[((p * (sorted.len() - 1) as f64).round()) as usize];
    let dt = if samples.len() >= 2 {
        samples[1].t.0 - samples[0].t.0
    } else {
        1.0
    };
    let per_slo: Vec<SloAttainment> = slo_delays_s
        .iter()
        .map(|&slo| {
            let violations = delays.iter().filter(|&&d| d > slo).count();
            let mut longest = 0usize;
            let mut run = 0usize;
            for &d in &delays {
                if d > slo {
                    run += 1;
                    longest = longest.max(run);
                } else {
                    run = 0;
                }
            }
            let vf = violations as f64 / delays.len() as f64;
            SloAttainment {
                slo_delay_s: slo,
                attainment: 1.0 - vf,
                violation_fraction: vf,
                longest_violation_s: longest as f64 * dt,
            }
        })
        .collect();
    Ok(QosReport {
        mean_delay_s: delays.iter().sum::<f64>() / delays.len() as f64,
        p95_delay_s: pct(0.95),
        p99_delay_s: pct(0.99),
        // `sorted` is non-empty: the `delays.is_empty()` early return
        // above guards this path.
        max_delay_s: sorted[sorted.len() - 1],
        violation_fraction: per_slo[0].violation_fraction,
        longest_violation_s: per_slo[0].longest_violation_s,
        per_slo,
        request_p99_s,
        drop_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::FixedPolicy;
    use crate::scenario::Scenario;
    use powersim::units::{NormFreq, Seconds, Watts};
    use workloads::open_loop::WorkloadSource;

    fn run_with_interactive_freq(f: f64) -> Recorder {
        let mut sim = Scenario::paper_default(3).build();
        let mut p = FixedPolicy::new(NormFreq(f), 0.3, Watts(1200.0));
        sim.run(&mut p, Seconds(240.0))
    }

    #[test]
    fn peak_frequency_keeps_qos_clean() {
        let rec = run_with_interactive_freq(1.0);
        let q = qos_report(&rec, &[0.25]).expect("samples kept");
        assert!(q.violation_fraction < 0.05, "{q:?}");
        assert!(q.p99_delay_s < 1.0);
        assert!(q.mean_delay_s <= q.p95_delay_s);
        assert!(q.p95_delay_s <= q.p99_delay_s);
        assert!(q.p99_delay_s <= q.max_delay_s);
        // Closed-loop run: no request-level tail.
        assert_eq!(q.request_p99_s, None);
        assert_eq!(q.drop_fraction, None);
    }

    #[test]
    fn throttled_interactive_cores_blow_the_slo() {
        // At 0.4× peak against ~0.6 demand, the queue grows: QoS must
        // show sustained violations — this is why SprintCon refuses to
        // throttle interactive cores.
        let rec = run_with_interactive_freq(0.4);
        let q = qos_report(&rec, &[0.25]).expect("samples kept");
        assert!(q.violation_fraction > 0.5, "{q:?}");
        assert!(q.longest_violation_s > 30.0);
        assert!(q.max_delay_s > 1.0);
    }

    #[test]
    fn report_is_monotone_in_service_quality() {
        let good = qos_report(&run_with_interactive_freq(1.0), &[0.25]).expect("samples kept");
        let bad = qos_report(&run_with_interactive_freq(0.5), &[0.25]).expect("samples kept");
        assert!(bad.mean_delay_s > good.mean_delay_s);
        assert!(bad.violation_fraction >= good.violation_fraction);
    }

    #[test]
    fn slo_ladder_attainment_is_monotone_in_threshold() {
        let rec = run_with_interactive_freq(0.4);
        let q = qos_report(&rec, &[0.1, 0.25, 1.0, 10.0]).expect("samples kept");
        assert_eq!(q.per_slo.len(), 4);
        // A looser SLO can only be attained more often.
        for w in q.per_slo.windows(2) {
            assert!(w[1].attainment >= w[0].attainment, "{:?}", q.per_slo);
            assert!(w[1].longest_violation_s <= w[0].longest_violation_s);
        }
        for a in &q.per_slo {
            assert!((a.attainment + a.violation_fraction - 1.0).abs() < 1e-12);
        }
        // The headline fields mirror the first ladder entry.
        assert_eq!(q.violation_fraction, q.per_slo[0].violation_fraction);
        assert_eq!(q.longest_violation_s, q.per_slo[0].longest_violation_s);
    }

    #[test]
    fn open_loop_runs_surface_the_request_tail() {
        let mut sc = Scenario::paper_default(11);
        sc.workload = WorkloadSource::open_loop_wiki();
        sc.duration = Seconds(120.0);
        let mut sim = sc.build();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 0.3, Watts(1200.0));
        let rec = sim.run(&mut p, Seconds(120.0));
        let q = qos_report(&rec, &[0.25]).expect("samples kept");
        let p99 = q.request_p99_s.expect("open-loop runs report p99");
        assert!(p99 > 0.0, "p99={p99}");
        let df = q.drop_fraction.expect("open-loop runs report drops");
        assert!((0.0..=1.0).contains(&df));
    }

    #[test]
    fn empty_recorder_is_all_zero() {
        let q = qos_report(&Recorder::default(), &[0.25]).expect("nothing was pushed");
        assert_eq!(q.mean_delay_s, 0.0);
        assert_eq!(q.violation_fraction, 0.0);
        assert_eq!(q.per_slo.len(), 1);
        assert_eq!(q.per_slo[0].attainment, 1.0);
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn rejects_zero_slo() {
        let _ = qos_report(&Recorder::default(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one SLO threshold")]
    fn rejects_empty_slo_ladder() {
        let _ = qos_report(&Recorder::default(), &[]);
    }
}
