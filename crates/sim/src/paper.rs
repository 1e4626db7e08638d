//! The paper's whole evaluation as one pass and one claims table.
//!
//! Figs. 5–8 and the headline numbers all come from one campaign: seed
//! [`SEED`], the four §VII policies and the batch deadlines of
//! [`DEADLINES_MIN`] ([`PaperCampaign`]). Figs. 5–7 and the headline read
//! the 12-minute runs, which are [`Scenario::paper_default`]'s; Fig. 8
//! reads all twelve. Figs. 1–3 (`paper/motivation.rs`) and the design
//! ablations A1–A5 of DESIGN.md §4 (`paper/ablation.rs`) run no rack
//! simulation, except that A4 replays the 12-minute SprintCon run's UPS
//! power. [`PaperCampaign::run`] computes each of them once, as one
//! [`Table`] and its claims. [`PaperCampaign::claims`] holds one
//! [`Claim`] per reproduced statement. The `paper_figures` bin prints
//! the table with the figures' series and writes every CSV, and
//! `tests/paper_reproduction.rs` checks every row.

mod ablation;
mod motivation;

use crate::exec::{Campaign, ExecConfig};
use crate::experiment::{PolicyKind, RunOutput};
use crate::metrics::RunSummary;
use crate::recorder::{Recorder, Sample};
use crate::scenario::Scenario;
use powersim::battery_life::LfpCycleLife;
use powersim::units::Seconds;
use std::ops::Range;
use PolicyKind::{Sgct, SgctV1, SgctV2, SprintCon};

/// The seed of every figure and headline number.
pub const SEED: u64 = 2019;

/// The Fig. 8 batch deadlines, in minutes. The middle one is
/// [`Scenario::paper_default`]'s, which Figs. 5–7 and the headline run.
pub const DEADLINES_MIN: [f64; 3] = [9.0, 12.0, 15.0];

const PAPER_DEADLINE_MIN: f64 = 12.0;

/// SprintCon's first overload + recovery cycle, in samples.
const FIRST_CYCLE: Range<usize> = 0..240;

/// The paper artifact a [`Claim`] reproduces, in the claims table's
/// order. `A1`–`A5` are DESIGN.md §4's design ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Figure {
    Fig1,
    Fig2,
    Fig3,
    Fig5,
    Fig6,
    Fig7,
    Fig8a,
    Fig8b,
    Headline,
    /// MPC against PID.
    A1,
    /// τ_r, Lp/Lc and the §V-C timing contract.
    A2,
    /// The progress weights R.
    A3,
    /// Hybrid battery + supercap storage.
    A4,
    /// The UPS measurement filter.
    A5,
}

/// One row of the claims table.
#[derive(Debug, Clone)]
pub struct Claim {
    pub figure: Figure,
    /// The reproduced statement, with the bound its check applies.
    pub statement: String,
    /// The paper's value, or its qualitative claim.
    pub paper: &'static str,
    /// The value measured on the campaign.
    pub measured: String,
    /// Whether the check holds; `None` for a value reported against the
    /// paper's without a check.
    pub holds: Option<bool>,
}

impl Claim {
    /// A checked claim whose check does not hold.
    pub fn failed(&self) -> bool {
        self.holds == Some(false)
    }
}

/// The series of one artifact outside Figs. 5–8, which `paper_figures`
/// writes as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    pub figure: Figure,
    /// The CSV's file name.
    pub file: &'static str,
    /// The CSV's header line.
    pub header: String,
    pub rows: Vec<Vec<f64>>,
}

/// The paper's evaluation: the §VII campaign's twelve runs
/// ([`DEADLINES_MIN`] × [`PolicyKind::ALL`], deadline-major) and the
/// tables and claims of Figs. 1–3 and A1–A5.
#[derive(Debug)]
pub struct PaperCampaign {
    runs: Vec<RunOutput>,
    /// Figs. 1–3 and A1–A5, in that order.
    tables: Vec<Table>,
    /// Their claims.
    claims: Vec<Claim>,
}

impl PaperCampaign {
    /// Run the campaign on `exec`'s workers (bit-identical to a
    /// sequential run), then compute Figs. 1–3 and A1–A5.
    pub fn run(exec: ExecConfig) -> Self {
        let scenarios =
            DEADLINES_MIN.map(|d| Scenario::paper_default(SEED).with_deadline(Seconds::minutes(d)));
        let runs = Campaign::new()
            .add_grid(scenarios, &PolicyKind::ALL)
            .run_with(exec);
        let mut paper = PaperCampaign {
            runs: runs.into_iter().map(|r| r.output).collect(),
            tables: Vec::new(),
            claims: Vec::new(),
        };
        let samples = paper.recorder(SprintCon).samples();
        let ups: Vec<f64> = samples.iter().map(|s| s.ups_power.0).collect();
        let mut claims = Vec::new();
        paper.tables = vec![
            motivation::fig1(&mut Rows(Figure::Fig1, &mut claims)),
            motivation::fig2(&mut Rows(Figure::Fig2, &mut claims)),
            motivation::fig3(&mut Rows(Figure::Fig3, &mut claims)),
            ablation::mpc_vs_pid(&mut Rows(Figure::A1, &mut claims)),
            ablation::horizons(&mut Rows(Figure::A2, &mut claims)),
            ablation::rweights(&mut Rows(Figure::A3, &mut claims)),
            ablation::hybrid_storage(&ups, &mut Rows(Figure::A4, &mut claims)),
            ablation::ups_filter(&mut Rows(Figure::A5, &mut claims)),
        ];
        paper.claims = claims;
        paper
    }

    /// The CSV tables of Figs. 1–3 and A1–A5, in that order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    fn output(&self, deadline_min: f64, kind: PolicyKind) -> &RunOutput {
        let d = DEADLINES_MIN
            .iter()
            .position(|&m| m == deadline_min)
            .expect("a deadline of the campaign");
        let k = PolicyKind::ALL
            .iter()
            .position(|&p| p == kind)
            .expect("PolicyKind::ALL lists every kind");
        &self.runs[d * PolicyKind::ALL.len() + k]
    }

    /// The summary of `kind` at the `deadline_min`-minute batch
    /// deadline, one of [`DEADLINES_MIN`].
    pub fn summary(&self, deadline_min: f64, kind: PolicyKind) -> &RunSummary {
        &self.output(deadline_min, kind).summary
    }

    /// The recording of `kind`'s 12-minute run, which Figs. 5–7 plot.
    pub fn recorder(&self, kind: PolicyKind) -> &Recorder {
        &self.output(PAPER_DEADLINE_MIN, kind).recorder
    }

    /// Every claim of the evaluation, in [`Figure`] order.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = self.claims.clone();
        self.fig5(&mut Rows(Figure::Fig5, &mut claims));
        self.fig6(&mut Rows(Figure::Fig6, &mut claims));
        self.fig7(&mut Rows(Figure::Fig7, &mut claims));
        self.fig8a(&mut Rows(Figure::Fig8a, &mut claims));
        self.fig8b(&mut Rows(Figure::Fig8b, &mut claims));
        self.headline(&mut Rows(Figure::Headline, &mut claims));
        claims.sort_by_key(|c| c.figure);
        claims
    }

    /// The three 12-minute runs that Figs. 6 and 7 compare.
    fn panels(&self) -> [&RunSummary; 3] {
        [SprintCon, SgctV1, SgctV2].map(|k| self.summary(PAPER_DEADLINE_MIN, k))
    }

    fn fig5(&self, rows: &mut Rows<'_>) {
        let s = self.summary(PAPER_DEADLINE_MIN, Sgct);
        let samples = self.recorder(Sgct).samples();
        let trips = format!("{} trips", s.trips);
        rows.check("SGCT trips the breaker", "trips", trips, s.trips >= 1);
        let first = samples.iter().position(|x| x.tripped);
        rows.check(
            "its first trip comes in sample <= 150",
            "~150 s",
            first.map_or("none".into(), |i| {
                format!("sample {i} (t = {} s)", samples[i].t.0)
            }),
            first.is_some_and(|i| i <= 150),
        );
        let after = first.and_then(|i| samples.get(i + 1));
        rows.check(
            "on the next sample the breaker delivers 0 W and the UPS > 3 kW",
            "UPS carries the rack",
            after.map_or("none".into(), |x| {
                format!("CB {:.0} W, UPS {:.0} W", x.cb_power.0, x.ups_power.0)
            }),
            after.is_some_and(|x| x.cb_power.0 == 0.0 && x.ups_power.0 > 3000.0),
        );
        let down = s.shutdown_at.map(|t| t.as_minutes());
        rows.check(
            "the UPS runs dry and the rack shuts down in minutes 8-13",
            "after the 11th minute",
            down.map_or("never".into(), |m| format!("at {m:.1} min")),
            s.shutdown && down.is_some_and(|m| (8.0..=13.0).contains(&m)),
        );
        let last = samples.last();
        rows.check(
            "both mean frequencies of its last sample are 0",
            "servers shut down",
            last.map_or("none".into(), |x| {
                format!("{} / {}", x.mean_freq_interactive, x.mean_freq_batch)
            }),
            last.is_some_and(|x| x.mean_freq_interactive == 0.0 && x.mean_freq_batch == 0.0),
        );
        let svc = format!("{:.3}", s.service_ratio);
        rows.check(
            "its service ratio stays below 0.9",
            "traffic lost",
            svc,
            s.service_ratio < 0.9,
        );
        rows.report(
            "SGCT mean frequency, interactive / batch",
            "0.64 / 0.71",
            freqs(s),
        );
    }

    fn fig6(&self, rows: &mut Rows<'_>) {
        let samples = self.recorder(SprintCon).samples();
        // The one-period measurement delay lets an isolated demand spike
        // onto the breaker for one control period, so the checks bound
        // how often and how far the breaker leaves its budget.
        let above = |x: &Sample, w: f64| x.p_cb_target.is_none_or(|b| x.cb_power.0 > b.0 + w);
        let max_excess = samples
            .iter()
            .map(|x| x.p_cb_target.map_or(f64::INFINITY, |b| x.cb_power.0 - b.0))
            .fold(f64::NEG_INFINITY, f64::max);
        rows.check(
            "no SprintCon sample exceeds its CB budget by more than 400 W",
            "rides the 4.0 / 3.2 kW budget",
            format!("max excess {max_excess:.0} W"),
            !samples.iter().any(|x| above(x, 400.0)),
        );
        let count = |xs: &[Sample]| xs.iter().filter(|&x| above(x, 60.0)).count();
        let (n, len) = (count(samples), samples.len());
        rows.check(
            "fewer than 3% of its samples exceed it by more than 60 W",
            "rides the 4.0 / 3.2 kW budget",
            format!("{n} of {len} ({:.1}%)", n as f64 / len as f64 * 100.0),
            (n as f64 / len as f64) < 0.03,
        );
        let cycle = samples.get(FIRST_CYCLE).unwrap_or_default();
        let (n, len) = (count(cycle), cycle.len());
        rows.check(
            "fewer than 5% of its first-cycle samples (0-239) do",
            "rides the 4.0 / 3.2 kW budget",
            format!("{n} of {len}"),
            len > 0 && n * 100 < len * 5,
        );
        let [sc, v1, v2] = self.panels();
        rows.check(
            "SprintCon, V1 and V2 never trip",
            "no trips",
            format!("{} / {} / {} trips", sc.trips, v1.trips, v2.trips),
            sc.trips == 0 && v1.trips == 0 && v2.trips == 0,
        );
        rows.check(
            "V1 and V2 never shut down",
            "no shutdown",
            format!("shutdown: {} / {}", v1.shutdown, v2.shutdown),
            !v1.shutdown && !v2.shutdown,
        );
        let (e1, e2) = (v1.ups_energy_wh, v2.ups_energy_wh);
        rows.check(
            "V1's and V2's UPS energies lie within 30 Wh; V1's exceeds 80 Wh",
            "similar, substantial",
            format!("{e1:.1} / {e2:.1} Wh"),
            (e1 - e2).abs() < 30.0 && e1 > 80.0,
        );
        // V1 and V2 from sample 30 on, past their ramp to the budget.
        let sd = |k: PolicyKind, skip: usize| {
            let xs = self.recorder(k).samples().get(skip..).unwrap_or_default();
            let m = mean(xs.iter().map(|x| x.p_total.0));
            mean(xs.iter().map(|x| (x.p_total.0 - m).powi(2))).sqrt()
        };
        let [s0, s1, s2] = [sd(SprintCon, 0), sd(SgctV1, 30), sd(SgctV2, 30)];
        rows.report(
            "total-power sd: SprintCon vs V1 / V2 (from sample 30)",
            "follows workload vs flat",
            format!("{s0:.1} vs {s1:.1} / {s2:.1} W"),
        );
        // V1 and V2 take sprint power from the CB in its overload windows
        // and from the UPS in its recovery windows.
        let rated = Scenario::paper_default(SEED).breaker.rated.0;
        let ups = |k: PolicyKind, overload: bool| {
            let in_window = |x: &&Sample| x.p_cb_target.is_some_and(|b| (b.0 > rated) == overload);
            mean(
                self.recorder(k)
                    .samples()
                    .iter()
                    .filter(in_window)
                    .map(|x| x.ups_power.0),
            )
        };
        let [o1, o2, r1, r2] = [
            (SgctV1, true),
            (SgctV2, true),
            (SgctV1, false),
            (SgctV2, false),
        ]
        .map(|(k, o)| ups(k, o));
        rows.report(
            "V1 / V2 mean UPS power: overload vs recovery windows",
            "CB and UPS take turns",
            format!("{o1:.0} / {o2:.0} vs {r1:.0} / {r2:.0} W"),
        );
    }

    fn fig7(&self, rows: &mut Rows<'_>) {
        let [sc, v1, v2] = self.panels();
        let samples = self.recorder(SprintCon).samples();
        let f_int = sc.avg_freq_interactive;
        rows.check(
            "SprintCon's interactive frequency is 1 within 1e-6",
            "1.00",
            format!("{f_int:.6}"),
            (f_int - 1.0).abs() < 1e-6,
        );
        let first = mean_over(samples, FIRST_CYCLE, |x| x.mean_freq_interactive);
        rows.check(
            "... and over its first cycle (samples 0-239) within 1e-9",
            "1.00",
            format!("{first:.9}"),
            (first - 1.0).abs() < 1e-9,
        );
        let (b, b1, b2) = (sc.avg_freq_batch, v1.avg_freq_batch, v2.avg_freq_batch);
        rows.check(
            "SprintCon's batch frequency is below V1's and V2's",
            "0.59 < 0.91, 0.84",
            format!("{b:.2} < {b1:.2}, {b2:.2}"),
            b < b1 && b < b2,
        );
        let (i1, i2) = (v1.avg_freq_interactive, v2.avg_freq_interactive);
        let mut ordered = |statement, paper, x: f64, y: f64| {
            rows.check(statement, paper, format!("{x:.2} > {y:.2}"), x > y);
        };
        ordered("V1: batch > interactive", "0.91 > 0.84", b1, i1);
        ordered("V2: interactive > batch", "0.94 > 0.84", i2, b2);
        ordered("V2's interactive > V1's", "0.94 > 0.84", i2, i1);
        // SprintCon's batch frequency steps with the CB phase: the
        // overload-window mean clearly exceeds the recovery-window mean.
        for (over, recovery, margin) in [(20..145, 180..440, 0.2), (30..145, 180..235, 0.15)] {
            let statement = format!(
                "SprintCon's batch mean over samples {}-{} exceeds {}-{} by > {margin}",
                over.start,
                over.end - 1,
                recovery.start,
                recovery.end - 1
            );
            let hi = mean_over(samples, over, |x| x.mean_freq_batch);
            let lo = mean_over(samples, recovery, |x| x.mean_freq_batch);
            let measured = format!("{hi:.3} vs {lo:.3}");
            rows.check(
                &statement,
                "steps with the CB phase",
                measured,
                hi > lo + margin,
            );
        }
        for (s, paper) in [
            (sc, "1.00 / 0.59"),
            (v1, "0.84 / 0.91"),
            (v2, "0.94 / 0.84"),
        ] {
            let statement = format!("{} mean frequency, interactive / batch", s.policy);
            rows.report(&statement, paper, freqs(s));
        }
    }

    fn fig8a(&self, rows: &mut Rows<'_>) {
        for d in DEADLINES_MIN {
            // SGCT is exempt: its blackout can cut off first completions.
            let [sc, v1, v2, sg] = [SprintCon, SgctV1, SgctV2, Sgct].map(|k| self.summary(d, k));
            rows.check(
                &format!("{d} min: SprintCon, V1 and V2 meet every deadline, time use <= 1"),
                "all meet",
                [sc, v1, v2]
                    .map(|s| format!("{}/{}", s.deadlines_met, s.deadlines_total))
                    .join(", "),
                [sc, v1, v2].iter().all(|s| {
                    s.deadlines_met == s.deadlines_total && s.normalized_time_use <= 1.0 + 1e-9
                }),
            );
            let [t, t1, t2, tg] = [sc, v1, v2, sg].map(|s| s.normalized_time_use);
            rows.check(
                &format!("{d} min: SprintCon's time use exceeds V1's, V2's and 0.75"),
                "closest to 1.0",
                format!("{t:.3} vs {t1:.3}, {t2:.3} (SGCT {tg:.3})"),
                t > t1 && t > t2 && t > 0.75,
            );
        }
        let t = self.summary(9.0, SprintCon).normalized_time_use;
        let measured = format!("{t:.3}");
        rows.check(
            "9 min: SprintCon's time use > 0.95",
            "very close",
            measured,
            t > 0.95,
        );
    }

    fn fig8b(&self, rows: &mut Rows<'_>) {
        let pct = |x: f64| format!("{:.1}%", x * 100.0);
        for d in DEADLINES_MIN {
            let [sc, v1, v2, sg] =
                [SprintCon, SgctV1, SgctV2, Sgct].map(|k| self.summary(d, k).dod);
            rows.check(
                &format!("{d} min: SprintCon's DoD is below 0.75x V1's and V2's"),
                if d == PAPER_DEADLINE_MIN {
                    "17% vs ~31%"
                } else {
                    "below V1/V2"
                },
                format!("{} vs {}, {}", pct(sc), pct(v1), pct(v2)),
                sc < v1 * 0.75 && sc < v2 * 0.75,
            );
            rows.check(
                &format!("{d} min: SGCT's DoD exceeds V1's and V2's"),
                "far more",
                format!("{} vs {}, {}", pct(sg), pct(v1), pct(v2)),
                sg > v1 && sg > v2,
            );
        }
        // §VII-D: LFP packs over 10 years at 10 sprints a day.
        let life = LfpCycleLife::paper_default();
        let dod = |k| self.summary(PAPER_DEADLINE_MIN, k).dod;
        let sc = life.replacements_over(dod(SprintCon).max(0.01), 10.0, 10.0);
        let v1 = life.replacements_over(dod(SgctV1), 10.0, 10.0);
        rows.check(
            "12 min: SprintCon needs fewer LFP packs in 10 years than V1",
            "0 vs 3-4 replacements",
            format!("{sc} vs {v1} replacements"),
            sc < v1,
        );
    }

    fn headline(&self, rows: &mut Rows<'_>) {
        let sc = self.summary(PAPER_DEADLINE_MIN, SprintCon);
        for kind in [Sgct, SgctV1, SgctV2] {
            let b = self.summary(PAPER_DEADLINE_MIN, kind);
            let gain = sc.interactive_capacity_gain_over(b) * 100.0;
            let storage = if b.ups_energy_wh > 0.0 {
                (1.0 - sc.ups_energy_wh / b.ups_energy_wh) * 100.0
            } else {
                0.0
            };
            rows.report(
                &format!("vs {}: computing capacity / stored energy", b.policy),
                "+6-56% / up to 87% less",
                format!("{gain:+.1}% / {storage:.1}% less"),
            );
        }
        let sg = self.summary(PAPER_DEADLINE_MIN, Sgct);
        let trips = format!("{} vs {}", sc.trips, sg.trips);
        rows.report("trips: SprintCon vs SGCT", "never vs trips", trips);
    }
}

/// Appends the claims of one figure to the table.
struct Rows<'a>(Figure, &'a mut Vec<Claim>);

impl Rows<'_> {
    fn check(&mut self, statement: &str, paper: &'static str, measured: String, holds: bool) {
        self.row(statement, paper, measured, Some(holds));
    }

    fn report(&mut self, statement: &str, paper: &'static str, measured: String) {
        self.row(statement, paper, measured, None);
    }

    fn row(&mut self, statement: &str, paper: &'static str, measured: String, holds: Option<bool>) {
        let (figure, statement) = (self.0, statement.into());
        self.1.push(Claim {
            figure,
            statement,
            paper,
            measured,
            holds,
        });
    }

    /// The figure's CSV table.
    fn table(&self, file: &'static str, header: impl Into<String>, rows: Vec<Vec<f64>>) -> Table {
        Table {
            figure: self.0,
            file,
            header: header.into(),
            rows,
        }
    }
}

fn freqs(s: &RunSummary) -> String {
    format!("{:.2} / {:.2}", s.avg_freq_interactive, s.avg_freq_batch)
}

/// Mean of `f` over `samples[range]`; NaN, which fails every check, when
/// the run is shorter than `range`.
fn mean_over(samples: &[Sample], range: Range<usize>, f: impl Fn(&Sample) -> f64) -> f64 {
    samples
        .get(range)
        .map_or(f64::NAN, |xs| mean(xs.iter().map(f)))
}

/// Arithmetic mean, summed in order; NaN when `xs` is empty.
fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(sum, n), x| (sum + x, n + 1));
    sum / n as f64
}
