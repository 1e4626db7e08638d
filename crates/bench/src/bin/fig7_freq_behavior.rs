//! E6 — Fig. 7: frequency behaviour of SprintCon vs SGCT-V1 vs SGCT-V2.
//!
//! Paper values (normalized mean frequency, interactive / batch):
//! SprintCon 1.00 / 0.59 — interactive pinned at peak, batch stepping
//! with the CB phase; SGCT-V1 0.84 / 0.91 — utilization ranking favours
//! batch; SGCT-V2 0.94 / 0.84 — interactive priority flips it. Exact
//! magnitudes depend on the (substituted) traces; the orderings are the
//! reproduced result.

use simkit::ascii_plot::multi_chart;
use simkit::{Campaign, PolicyKind, Scenario};
use sprintcon_bench::{banner, write_csv, EngineArgs};

fn main() {
    let args = EngineArgs::parse();
    let scenario = Scenario::paper_default(2019);
    let tags = [
        ("a-sprintcon", PolicyKind::SprintCon),
        ("b-sgct-v1", PolicyKind::SgctV1),
        ("c-sgct-v2", PolicyKind::SgctV2),
    ];
    let runs = Campaign::new()
        .add_grid([scenario], &tags.map(|(_, k)| k))
        .run_with(args.exec);
    let mut results = Vec::new();
    for ((tag, kind), run) in tags.iter().zip(&runs) {
        banner(&format!("Fig. 7({}) — {}", &tag[..1], kind.name()));
        let (rec, summary) = (&run.output.recorder, run.summary().clone());
        let fi: Vec<f64> = rec
            .samples()
            .iter()
            .map(|s| s.mean_freq_interactive)
            .collect();
        let fb: Vec<f64> = rec.samples().iter().map(|s| s.mean_freq_batch).collect();
        println!(
            "{}",
            multi_chart(
                &format!(
                    "{}: avg freq = {:.2} interactive / {:.2} batch",
                    kind.name(),
                    summary.avg_freq_interactive,
                    summary.avg_freq_batch
                ),
                &[("Interactive", &fi), ("Batch", &fb)],
                76,
                10,
            )
        );
        let rows: Vec<Vec<f64>> = rec
            .samples()
            .iter()
            .map(|s| vec![s.t.0, s.mean_freq_interactive, s.mean_freq_batch])
            .collect();
        let path = write_csv(
            &format!("fig7{tag}.csv"),
            "t_s,freq_interactive,freq_batch",
            &rows,
        );
        println!("csv: {}", path.display());
        results.push((*kind, summary, fb));
    }

    banner("Fig. 7 summary (paper values in parentheses)");
    println!(
        "SprintCon: {:.2}/{:.2}  (1.00/0.59)",
        results[0].1.avg_freq_interactive, results[0].1.avg_freq_batch
    );
    println!(
        "SGCT-V1  : {:.2}/{:.2}  (0.84/0.91)",
        results[1].1.avg_freq_interactive, results[1].1.avg_freq_batch
    );
    println!(
        "SGCT-V2  : {:.2}/{:.2}  (0.94/0.84)",
        results[2].1.avg_freq_interactive, results[2].1.avg_freq_batch
    );

    // The orderings the paper reports:
    let (sc, v1, v2) = (&results[0].1, &results[1].1, &results[2].1);
    // SprintCon pins interactive at peak.
    assert!((sc.avg_freq_interactive - 1.0).abs() < 1e-6);
    // ...and throttles batch below both baselines.
    assert!(sc.avg_freq_batch < v1.avg_freq_batch);
    assert!(sc.avg_freq_batch < v2.avg_freq_batch);
    // V1 favours batch over interactive; V2 flips that.
    assert!(v1.avg_freq_batch > v1.avg_freq_interactive);
    assert!(v2.avg_freq_interactive > v2.avg_freq_batch);
    // V2 serves interactive better than V1.
    assert!(v2.avg_freq_interactive > v1.avg_freq_interactive);
    // SprintCon's batch frequency steps with the CB phase (Fig. 7a): the
    // overload-window mean clearly exceeds the recovery-window mean.
    let fb = &results[0].2;
    let over: f64 = fb[20..145].iter().sum::<f64>() / 125.0;
    let rec_: f64 = fb[180..440].iter().sum::<f64>() / 260.0;
    println!(
        "\nSprintCon batch freq: overload-phase mean {over:.2} vs recovery-phase mean {rec_:.2}"
    );
    assert!(
        over > rec_ + 0.2,
        "batch frequency must step with the CB phase"
    );
}
