//! A2 — ablation: MPC tuning — reference time constant `τ_r`, horizons
//! `Lp`/`Lc` — plus the §V-C timing contract (allocator period vs
//! controller settling time) and the closed-loop gain margin.
//!
//! The MPC's O(n·Lc) per-solve cost is what makes the long-horizon rows
//! (`Lp` up to 64) affordable here. Whether its decisions are optimal
//! at the sampled horizons (4, 2), (8, 2) and (32, 8) is the unit test
//! `mpc::tests::every_decision_meets_the_dense_eq8_kkt_conditions`.

use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Utilization, Watts};
use sprint_control::reference::discrete_settling_periods;
use sprint_control::stability::{max_gain_ratio, scalar_pole, LoopParams};
use sprintcon::{ServerPowerController, SprintConConfig};
use sprintcon_bench::{banner, write_csv};

fn rack(cfg: &SprintConConfig) -> Rack {
    let mut rk = Rack::builder()
        .server(cfg.server.clone())
        .num_servers(cfg.num_servers)
        .interactive_cores_per_server(cfg.interactive_cores_per_server)
        .build()
        .expect("paper config is a valid rack");
    for id in rk.cores_with_role(CoreRole::Interactive) {
        rk.set_util(id, Utilization(0.6));
    }
    for id in rk.cores_with_role(CoreRole::Batch) {
        rk.set_util(id, Utilization(0.95));
    }
    rk
}

fn interactive_utils(rk: &Rack) -> Vec<Utilization> {
    let mut utils = Vec::new();
    rk.interactive_utils_into(&mut utils);
    utils
}

/// Run a 1.3→1.9 kW step and report (settling steps to 5%, overshoot W).
fn step_response(cfg: &SprintConConfig) -> (usize, f64) {
    let mut ctrl = ServerPowerController::new(cfg);
    let mut rk = rack(cfg);
    let utils = interactive_utils(&rk);
    let mut freqs: Vec<f64> = rk
        .cores_with_role(CoreRole::Batch)
        .iter()
        .map(|&id| rk.freq(id).0)
        .collect();
    // Settle at 1300 W first.
    for _ in 0..60 {
        let d = ctrl.control(rk.power(), &utils, Watts(1300.0), &freqs);
        let ids = rk.cores_with_role(CoreRole::Batch);
        for (id, &f) in ids.iter().zip(&d.freqs) {
            rk.set_freq(*id, NormFreq(f));
        }
        freqs = d.freqs;
    }
    let target = 1900.0;
    let mut settle = 60;
    let mut overshoot: f64 = 0.0;
    for t in 0..60 {
        let p_fb = ctrl.feedback_power(rk.power(), &utils);
        overshoot = overshoot.max(p_fb.0 - target);
        if (p_fb.0 - target).abs() < 0.05 * target && settle == 60 {
            settle = t;
        }
        let d = ctrl.control(rk.power(), &utils, Watts(target), &freqs);
        let ids = rk.cores_with_role(CoreRole::Batch);
        for (id, &f) in ids.iter().zip(&d.freqs) {
            rk.set_freq(*id, NormFreq(f));
        }
        freqs = d.freqs;
    }
    (settle, overshoot)
}

/// The τ_r / Lp / Lc grid. The long-horizon tail (Lp ≥ 24) is cheap
/// because the MPC solves each period in O(n·Lc).
const GRID: [(f64, usize, usize); 12] = [
    (1.0, 8, 2),
    (2.0, 8, 2),
    (4.0, 8, 2), // the paper-default row
    (8.0, 8, 2),
    (16.0, 8, 2),
    (4.0, 2, 1),
    (4.0, 4, 2),
    (4.0, 16, 4),
    (4.0, 24, 6),
    (4.0, 32, 8),
    (4.0, 48, 12),
    (4.0, 64, 16),
];

fn grid_config(tau: f64, lp: usize, lc: usize) -> SprintConConfig {
    let mut cfg = SprintConConfig::paper_default();
    cfg.mpc.tau_r = tau;
    cfg.mpc.lp = lp;
    cfg.mpc.lc = lc.min(lp);
    cfg
}

fn main() {
    banner("Ablation A2 — τ_r / Lp / Lc sensitivity");
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>4} {:>4} {:>12} {:>12}",
        "tau_r", "Lp", "Lc", "settle s", "overshoot W"
    );
    for (tau, lp, lc) in GRID {
        let cfg = grid_config(tau, lp, lc);
        let (settle, overshoot) = step_response(&cfg);
        println!("{tau:>6.1} {lp:>4} {lc:>4} {settle:>12} {overshoot:>12.1}");
        rows.push(vec![tau, lp as f64, lc as f64, settle as f64, overshoot]);
    }
    let path = write_csv(
        "ablation_horizons.csv",
        "tau_r,lp,lc,settle_s,overshoot_w",
        &rows,
    );
    println!("csv: {}", path.display());

    // Eq.(7) intuition: larger τ_r → smaller overshoot, slower settling.
    let fast = &rows[0]; // tau 1
    let slow = &rows[4]; // tau 16
    assert!(
        slow[4] <= fast[4] + 30.0,
        "larger tau must not overshoot more"
    );
    assert!(slow[3] >= fast[3], "larger tau must not settle faster");

    banner("§V-C analysis: closed-loop pole, gain margin, timing contract");
    let cfg = SprintConConfig::paper_default();
    let kappa = 60.0 * cfg.num_servers as f64; // aggregate model gain
    let params = LoopParams {
        lp: cfg.mpc.lp,
        q: cfg.mpc.q,
        r: cfg.mpc.r_scale,
        kappa,
        alpha: (-cfg.control_period.0 / cfg.mpc.tau_r).exp(),
    };
    let pole = scalar_pole(params, 1.0);
    let gmax = max_gain_ratio(params);
    let settle_periods = discrete_settling_periods(pole, 0.02).expect("stable loop");
    println!("nominal closed-loop pole: {pole:.3}");
    println!("allowed plant/model gain ratio: (0, {gmax:.2})");
    println!(
        "settling: {settle_periods} control periods ({}s) << allocator period {}s",
        settle_periods as f64 * cfg.control_period.0,
        cfg.allocator_period.0
    );
    assert!(pole.abs() < 1.0);
    assert!(gmax > 1.5, "must tolerate sizeable model error");
    assert!(
        (settle_periods as f64) * cfg.control_period.0 <= cfg.allocator_period.0 / 2.0,
        "the paper's timing contract: allocator much slower than settling"
    );
}
