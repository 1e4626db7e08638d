//! A3 — ablation: the progress-based control-penalty weights `R_ij`
//! (§V-B) on vs off.
//!
//! Scenario: a tight power budget and one job per server that has fallen
//! far behind (it was starved earlier). With the paper's weights, the
//! lagging jobs get disproportionate frequency and catch up; with uniform
//! weights the optimizer spreads power evenly and the laggards miss.

use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use sprintcon::{ServerPowerController, SprintConConfig};
use sprintcon_bench::{banner, write_csv};
use workloads::batch::BatchJob;
use workloads::progress_model::ProgressModel;

fn setup(cfg: &SprintConConfig) -> (Rack, Vec<BatchJob>) {
    let mut rk = cfg.plant.rack().expect("paper config is a valid rack");
    for id in rk.cores_with_role(CoreRole::Interactive) {
        rk.set_util(id, Utilization(0.6));
    }
    for id in rk.cores_with_role(CoreRole::Batch) {
        rk.set_util(id, Utilization(0.95));
    }
    let m = cfg.plant.batch_cores_per_server();
    let mut jobs = Vec::new();
    for s in 0..cfg.plant.num_servers {
        for c in 0..m {
            let mut j = BatchJob::new(
                format!("job-{s}-{c}"),
                ProgressModel::new(0.25),
                540.0,
                Seconds(720.0),
            );
            // Core 0 of each server was starved for the first 300 s; the
            // others ran comfortably.
            let f0 = if c == 0 { 0.2 } else { 0.8 };
            for _ in 0..300 {
                j.step(f0, Seconds(1.0));
            }
            jobs.push(j);
        }
    }
    (rk, jobs)
}

fn interactive_utils(rk: &Rack) -> Vec<Utilization> {
    let mut utils = Vec::new();
    rk.interactive_utils_into(&mut utils);
    utils
}

fn run(cfg: &SprintConConfig, use_weights: bool) -> (usize, f64, f64) {
    let mut ctrl = ServerPowerController::new(cfg);
    let (mut rk, mut jobs) = setup(cfg);
    let utils = interactive_utils(&rk);
    let budget = Watts(1550.0); // tight: cannot run everyone fast
    let mut freqs: Vec<f64> = rk
        .cores_with_role(CoreRole::Batch)
        .iter()
        .map(|&id| rk.freq(id).0)
        .collect();
    for t in 300..720 {
        let now = Seconds(t as f64);
        if use_weights {
            ctrl.update_weights(now, &jobs);
        } // else: keep the uniform default weights
        let d = ctrl.control(rk.power(), &utils, budget, &freqs);
        let ids = rk.cores_with_role(CoreRole::Batch);
        for (id, &f) in ids.iter().zip(&d.freqs) {
            rk.set_freq(*id, NormFreq(f));
        }
        freqs = d.freqs;
        for (idx, id) in ids.iter().enumerate() {
            let f = rk.freq(*id).0;
            jobs[idx].step(f, Seconds(1.0));
        }
    }
    let met = jobs
        .iter()
        .filter(|j| matches!(j.first_completion, Some(t) if t.0 <= j.deadline.0))
        .count();
    let lag_progress: Vec<f64> = jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, j)| j.progress())
        .collect();
    let min_lag = lag_progress.iter().cloned().fold(1.0_f64, f64::min);
    let spread = jobs
        .iter()
        .map(|j| j.progress())
        .fold(f64::NEG_INFINITY, f64::max)
        - jobs
            .iter()
            .map(|j| j.progress())
            .fold(f64::INFINITY, f64::min);
    (met, min_lag, spread)
}

fn main() {
    banner("Ablation A3 — progress-balancing R weights on vs off");
    let cfg = SprintConConfig::paper_default();
    let (met_on, lag_on, spread_on) = run(&cfg, true);
    let (met_off, lag_off, spread_off) = run(&cfg, false);
    println!(
        "{:<10} {:>14} {:>22} {:>16}",
        "weights", "deadlines met", "laggard min progress", "progress spread"
    );
    println!(
        "{:<10} {:>11}/64 {:>22.3} {:>16.3}",
        "on", met_on, lag_on, spread_on
    );
    println!(
        "{:<10} {:>11}/64 {:>22.3} {:>16.3}",
        "off", met_off, lag_off, spread_off
    );
    let path = write_csv(
        "ablation_rweights.csv",
        "weights_on,deadlines_met,laggard_min_progress,progress_spread",
        &[
            vec![1.0, met_on as f64, lag_on, spread_on],
            vec![0.0, met_off as f64, lag_off, spread_off],
        ],
    );
    println!("csv: {}", path.display());

    // The paper's claim: weights let the behind/urgent jobs speed up.
    assert!(
        lag_on > lag_off + 0.02,
        "weights must speed up the laggards: {lag_on} vs {lag_off}"
    );
    assert!(met_on >= met_off, "weights must not cost deadlines");
    assert!(
        spread_on < spread_off,
        "weights must shrink the progress spread"
    );
}
