//! E4–E9 — the paper's evaluation (§VII): Figs. 5–8 and the headline
//! numbers, from one run of the paper campaign ([`simkit::paper`]).
//!
//! Prints each figure's charts and tables, writes their series as CSV
//! under `target/figures/`, then prints the claims table (paper value,
//! measured value, check) and exits nonzero if any checked claim fails.

use powersim::battery_life::LfpCycleLife;
use simkit::ascii_plot::multi_chart;
use simkit::paper::{PaperCampaign, DEADLINES_MIN};
use simkit::{summary_table, PolicyKind, Recorder, Sample};
use sprintcon_bench::{banner, write_csv, EngineArgs};

/// A named per-sample series: a chart line or a CSV column.
type Series = (&'static str, fn(&Sample) -> f64);

const T: Series = ("t_s", |s| s.t.0);
const TOTAL: Series = ("Total", |s| s.p_total.0);
const CB: Series = ("CB actual", |s| s.cb_power.0);
const UPS: Series = ("UPS", |s| s.ups_power.0);
const BUDGET: Series = ("CB budget", |s| s.p_cb_target.map_or(0.0, |w| w.0));
const F_INT: Series = ("Interactive", |s| s.mean_freq_interactive);
const F_BATCH: Series = ("Batch", |s| s.mean_freq_batch);
/// The CSV columns of the Fig. 5 and 6 power series; an unset budget
/// is NaN there and 0 on the charts.
const POWER_CSV: [Series; 5] = [
    T,
    ("p_total_w", TOTAL.1),
    ("cb_w", CB.1),
    ("ups_w", UPS.1),
    ("cb_budget_w", |s| s.p_cb_target.map_or(f64::NAN, |w| w.0)),
];

/// The Fig. 6/7 panels: CSV tag and policy.
const PANELS: [(&str, PolicyKind); 3] = [
    ("a-sprintcon", PolicyKind::SprintCon),
    ("b-sgct-v1", PolicyKind::SgctV1),
    ("c-sgct-v2", PolicyKind::SgctV2),
];

fn main() {
    let args = EngineArgs::parse();
    let campaign = PaperCampaign::run(args.exec);

    banner("Fig. 5 — uncontrolled sprinting (SGCT): power and frequency curves");
    let rec = campaign.recorder(PolicyKind::Sgct);
    chart("Fig.5(a) power (W)", rec, &[CB, TOTAL, UPS, BUDGET], 12);
    chart("Fig.5(b) normalized frequency", rec, &[F_INT, F_BATCH], 10);
    let freq_csv = [("freq_interactive", F_INT.1), ("freq_batch", F_BATCH.1)];
    let soc: Series = ("ups_soc", |s| s.ups_soc);
    csv(
        "fig5_uncontrolled.csv",
        rec,
        &[&POWER_CSV[..], &freq_csv, &[soc]].concat(),
    );
    for (tag, kind) in PANELS {
        banner(&format!("Fig. 6({}) — {}", &tag[..1], kind.name()));
        let rec = campaign.recorder(kind);
        let title = format!("{} power (W)", kind.name());
        chart(&title, rec, &[CB, TOTAL, BUDGET], 12);
        csv(&format!("fig6{tag}.csv"), rec, &POWER_CSV);
    }
    let fig7_cols = [&[T][..], &freq_csv].concat();
    for (tag, kind) in PANELS {
        banner(&format!("Fig. 7({}) — {}", &tag[..1], kind.name()));
        let rec = campaign.recorder(kind);
        let title = format!(
            "{}: avg freq = {:.2} interactive / {:.2} batch",
            kind.name(),
            rec.avg_freq_interactive(),
            rec.avg_freq_batch()
        );
        chart(&title, rec, &[F_INT, F_BATCH], 10);
        csv(&format!("fig7{tag}.csv"), rec, &fig7_cols);
    }
    fig8(&campaign);
    banner("Headline: 15-minute sprint, 12-minute batch deadline");
    let summaries = PolicyKind::ALL.map(|k| campaign.summary(12.0, k).clone());
    println!("{}", summary_table(&summaries));

    banner("Claims: paper vs measured");
    let claims = campaign.claims();
    let line = |fig: &str, claim: &str, paper: &str, measured: &str, ok: &str| {
        println!("{fig:<9} | {claim:<70} | {paper:<30} | {measured:<36} | {ok}");
    };
    line("figure", "claim", "paper", "measured", "ok");
    for c in &claims {
        let ok = c.holds.map_or("-", |h| if h { "yes" } else { "FAIL" });
        let fig = format!("{:?}", c.figure);
        line(&fig, &c.statement, c.paper, &c.measured, ok);
    }
    let failed = claims.iter().filter(|c| c.failed()).count();
    if failed > 0 {
        eprintln!("{failed} paper claim(s) failed");
        std::process::exit(1);
    }
}

fn chart(title: &str, rec: &Recorder, series: &[Series], height: usize) {
    let values: Vec<Vec<f64>> = series
        .iter()
        .map(|(_, f)| rec.samples().iter().map(f).collect())
        .collect();
    let lines: Vec<(&str, &[f64])> = series
        .iter()
        .zip(&values)
        .map(|(s, v)| (s.0, &v[..]))
        .collect();
    println!("{}", multi_chart(title, &lines, 76, height));
}

fn csv(name: &str, rec: &Recorder, columns: &[Series]) {
    let header: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let rows: Vec<Vec<f64>> = rec
        .samples()
        .iter()
        .map(|s| columns.iter().map(|c| (c.1)(s)).collect())
        .collect();
    let path = write_csv(name, &header.join(","), &rows);
    println!("csv: {}", path.display());
}

fn fig8(campaign: &PaperCampaign) {
    banner("Fig. 8 — normalized time use and UPS depth of discharge vs batch deadline");
    println!(
        "{:>9} {:>10} {:>8} {:>10} {:>8} {:>10}",
        "deadline", "policy", "t_use", "deadlines", "DoD", "ups_Wh"
    );
    let (mut time_use, mut dod) = (Vec::new(), Vec::new());
    for d in DEADLINES_MIN {
        for (idx, kind) in PolicyKind::ALL.into_iter().enumerate() {
            let s = campaign.summary(d, kind);
            println!(
                "{:>8}m {:>10} {:>8.3} {:>7}/{} {:>7.1}% {:>10.1}",
                d,
                kind.name(),
                s.normalized_time_use,
                s.deadlines_met,
                s.deadlines_total,
                s.dod * 100.0,
                s.ups_energy_wh
            );
            let idx = idx as f64;
            time_use.push(vec![d, idx, s.normalized_time_use, s.deadlines_met as f64]);
            dod.push(vec![d, idx, s.dod, s.ups_energy_wh]);
        }
    }
    let header = "deadline_min,policy_idx,normalized_time_use,deadlines_met";
    let a = write_csv("fig8a_time_use.csv", header, &time_use);
    let header = "deadline_min,policy_idx,dod,ups_wh";
    let b = write_csv("fig8b_ups_dod.csv", header, &dod);
    println!(
        "csv: {} {}  (policy_idx: 0=SprintCon 1=SGCT 2=V1 3=V2)",
        a.display(),
        b.display()
    );

    banner("§VII-D battery-lifetime consequence (12-minute deadline)");
    let life = LfpCycleLife::paper_default();
    for (_, kind) in PANELS {
        let dod = campaign.summary(12.0, kind).dod.max(0.01);
        println!(
            "{:<10} DoD {:>5.1}% -> {:>9.0} cycles -> {:>4.1} years/pack, {} replacements in 10 y",
            kind.name(),
            dod * 100.0,
            life.cycles_at(dod),
            life.service_years(dod, 10.0),
            life.replacements_over(dod, 10.0, 10.0)
        );
    }
}
