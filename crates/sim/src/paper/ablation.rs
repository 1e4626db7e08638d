//! The design ablations A1–A5 of DESIGN.md §4: MPC against PID (A1),
//! the reference time constant, the horizons and the §V-C timing
//! contract (A2), the progress weights R (A3), hybrid storage (A4) and
//! the UPS measurement filter (A5).
//!
//! A1–A3 drive SprintCon's server power controller on one loaded paper
//! rack ([`LoadedRack`]) without the rest of a run; A4 replays the UPS
//! power of the campaign's 12-minute SprintCon run; A5 runs the UPS
//! controller against a synthetic noisy load.

use super::{Rows, Table};
use powersim::battery_life::LfpCycleLife;
use powersim::breaker::{BreakerSpec, CircuitBreaker};
use powersim::cpu::CoreRole;
use powersim::noise::NoiseSource;
use powersim::rack::Rack;
use powersim::supercap::{HybridStorage, Supercap, SupercapSpec};
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use powersim::ups::{UpsBattery, UpsSpec};
use sprint_control::pid::{Pid, PidConfig};
use sprint_control::reference::discrete_settling_periods;
use sprint_control::stability::{max_gain_ratio, scalar_pole, LoopParams};
use sprintcon::{ServerPowerController, SprintConConfig, UpsPowerController};
use workloads::batch::BatchJob;
use workloads::progress_model::ProgressModel;

/// The paper rack that A1–A3 control: interactive cores at 0.6
/// utilization and batch cores at 0.95, under SprintCon's server power
/// controller.
struct LoadedRack {
    ctrl: ServerPowerController,
    rack: Rack,
    /// Per-server interactive utilizations, which Eq. (6) reads.
    utils: Vec<Utilization>,
}

impl LoadedRack {
    fn new(cfg: &SprintConConfig) -> Self {
        let mut rack = cfg.plant.rack().expect("the paper plant is a valid rack");
        rack.role_mut(CoreRole::Interactive).utils.fill(0.6);
        rack.role_mut(CoreRole::Batch).utils.fill(0.95);
        let mut utils = Vec::new();
        rack.interactive_utils_into(&mut utils);
        LoadedRack {
            ctrl: ServerPowerController::new(cfg),
            rack,
            utils,
        }
    }

    /// The Eq. (6) feedback power the controller tracks, W.
    fn feedback(&self) -> f64 {
        self.ctrl.feedback_power(self.rack.power(), &self.utils).0
    }

    /// One control period toward `target`: control from the batch
    /// cores' frequencies, then actuate them.
    fn step(&mut self, target: Watts) {
        let current = self.rack.role(CoreRole::Batch).freqs.to_vec();
        let d = self
            .ctrl
            .control(self.rack.power(), &self.utils, target, &current);
        self.rack.role_mut(CoreRole::Batch).set_freqs(&d.freqs);
    }
}

/// Control periods of A1's run.
const A1_PERIODS: usize = 400;

/// A1: MPC against a classical PID, both tracking a budget that steps
/// every 100 s across the achievable feedback-power range of the
/// nonlinear plant. The PID can only scale every batch core uniformly;
/// the MPC commands each core, and its error-diffusion P-state mix lands
/// between ladder steps.
pub(super) fn mpc_vs_pid(rows: &mut Rows<'_>) -> Table {
    let cfg = SprintConConfig::paper_default();
    let mut mpc = LoadedRack::new(&cfg);
    let (lo, hi) = {
        let mut probe = LoadedRack::new(&cfg);
        probe.rack.set_role_freq(CoreRole::Batch, NormFreq(0.2));
        let lo = probe.feedback();
        probe.rack.set_role_freq(CoreRole::Batch, NormFreq(1.0));
        (lo, probe.feedback())
    };
    let budget = |t: usize| {
        let frac = match (t / 100) % 4 {
            0 => 0.35,
            1 => 0.80,
            2 => 0.20,
            _ => 0.60,
        };
        lo + frac * (hi - lo)
    };
    let mpc_fb: Vec<f64> = (0..A1_PERIODS)
        .map(|t| {
            let p_fb = mpc.feedback();
            mpc.step(Watts(budget(t)));
            p_fb
        })
        .collect();
    let mut uniform = LoadedRack::new(&cfg);
    let mut pid = Pid::new(PidConfig {
        kp: 0.0002,
        ki: 0.0006,
        kd: 0.0,
        out_min: 0.2,
        out_max: 1.0,
        period: 1.0,
    });
    let pid_fb: Vec<f64> = (0..A1_PERIODS)
        .map(|t| {
            let p_fb = uniform.feedback();
            let f = pid.step(budget(t), p_fb);
            uniform.rack.set_role_freq(CoreRole::Batch, NormFreq(f));
            p_fb
        })
        .collect();
    // RMS error from 20 s after each step on, and the worst number of
    // periods a step takes to come within 5% of its target.
    let settled_rms = |fb: &[f64]| {
        let settled = (0..A1_PERIODS).filter(|t| t % 100 >= 20);
        let n = settled.clone().count();
        let sum: f64 = settled
            .map(|t| {
                let e = fb[t] - budget(t);
                e * e
            })
            .sum();
        (sum / n as f64).sqrt()
    };
    let worst_settling = |fb: &[f64]| {
        (0..A1_PERIODS)
            .step_by(100)
            .map(|base| {
                let near = |k: &usize| (fb[base + k] - budget(base)).abs() < 0.05 * budget(base);
                (0..100).find(near).unwrap_or(100)
            })
            .max()
            .unwrap_or(0)
    };
    let (m_rms, p_rms) = (settled_rms(&mpc_fb), settled_rms(&pid_fb));
    let (m_set, p_set) = (worst_settling(&mpc_fb), worst_settling(&pid_fb));
    rows.check(
        "MPC's worst settling after a budget step exceeds PID's by at most 15 s",
        "MPC for the MIMO loop (§V-B)",
        format!("{:+} s", m_set as i64 - p_set as i64),
        m_set <= p_set + 15,
    );
    rows.check(
        "MPC's settled RMS tracking error is below 0.5x PID's",
        "MPC for the MIMO loop (§V-B)",
        format!("{:.2}x", m_rms / p_rms),
        m_rms < p_rms * 0.5,
    );
    rows.report(
        "settled RMS tracking error (from 20 s after each step), MPC vs PID",
        "-",
        format!("{m_rms:.1} vs {p_rms:.1} W"),
    );
    rows.report(
        "worst settling to within 5% after a budget step, MPC vs PID",
        "-",
        format!("{m_set} s vs {p_set} s"),
    );
    let data = (0..A1_PERIODS)
        .map(|t| vec![t as f64, budget(t), mpc_fb[t], pid_fb[t]])
        .collect();
    rows.table(
        "ablation_mpc_vs_pid.csv",
        "t_s,target_w,mpc_p_fb_w,pid_p_fb_w",
        data,
    )
}

/// A2's τ_r / Lp / Lc grid. The long-horizon tail (Lp ≥ 24) is cheap
/// because the MPC solves each period in O(n·Lc); whether its decisions
/// are optimal at (4, 2), (8, 2) and (32, 8) is the unit test
/// `mpc::tests::every_decision_meets_the_dense_eq8_kkt_conditions`.
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

/// A2: the step response over [`GRID`], then the §V-C analysis of the
/// paper loop (its pole, gain margin and timing contract), checked
/// against the paper-default row's measured settling.
pub(super) fn horizons(rows: &mut Rows<'_>) -> Table {
    let data: Vec<Vec<f64>> = GRID
        .iter()
        .map(|&(tau, lp, lc)| {
            let mut cfg = SprintConConfig::paper_default();
            cfg.mpc.tau_r = tau;
            cfg.mpc.lp = lp;
            cfg.mpc.lc = lc.min(lp);
            let (settle, overshoot) = step_response(&cfg);
            vec![tau, lp as f64, lc as f64, settle as f64, overshoot]
        })
        .collect();
    let (fast, slow) = (&data[0], &data[4]); // τ_r = 1 s and 16 s
    let vacuous = if data.iter().all(|r| r[4] == 0.0) {
        "; no row overshoots, so this holds vacuously"
    } else {
        ""
    };
    rows.check(
        "τ_r = 16 s overshoots no more than τ_r = 1 s + 30 W",
        "larger τ_r, less overshoot (Eq. 7)",
        format!("{:.1} vs {:.1} W{vacuous}", slow[4], fast[4]),
        slow[4] <= fast[4] + 30.0,
    );
    rows.check(
        "τ_r = 16 s settles no faster than τ_r = 1 s",
        "larger τ_r, slower settling (Eq. 7)",
        format!("{} s vs {} s", slow[3], fast[3]),
        slow[3] >= fast[3],
    );
    let sweep: Vec<String> = data[..5].iter().map(|r| r[3].to_string()).collect();
    rows.report(
        "5% settling at τ_r = 1 / 2 / 4 / 8 / 16 s",
        "-",
        format!("{} s", sweep.join(" / ")),
    );

    let cfg = SprintConConfig::paper_default();
    let kappa: f64 = ServerPowerController::new(&cfg)
        .batch_models()
        .iter()
        .map(|m| m.k)
        .sum();
    let params = LoopParams {
        lp: cfg.mpc.lp,
        q: cfg.mpc.q,
        r: cfg.mpc.r_scale,
        kappa,
        alpha: (-cfg.control_period.0 / cfg.mpc.tau_r).exp(),
    };
    let pole = scalar_pole(params, 1.0);
    rows.check(
        "the nominal closed-loop pole lies inside the unit circle",
        "stable (§V-C)",
        format!("{pole:.3} at the fitted κ = {kappa:.1}"),
        pole.abs() < 1.0,
    );
    let gmax = max_gain_ratio(params);
    rows.check(
        "the loop tolerates every plant/model gain ratio up to 1.5",
        "survives model error (§V-C)",
        format!("up to {gmax:.2}"),
        gmax > 1.5,
    );
    let half = cfg.allocator_period.0 / 2.0;
    let analytic = discrete_settling_periods(pole, 0.02).map(|n| n as f64 * cfg.control_period.0);
    rows.check(
        "its analytic 2% settling fits in half the allocator period",
        "allocator much slower (§V-C)",
        analytic.map_or("unstable".into(), |s| format!("{s} s <= {half} s")),
        analytic.is_some_and(|s| s <= half),
    );
    let measured = data[2][3]; // the paper-default row
    rows.check(
        "the paper-default row's measured 5% settling fits in it too",
        "allocator much slower (§V-C)",
        format!(
            "{measured} s (analytic {} s) <= {half} s",
            analytic.unwrap_or(f64::NAN)
        ),
        measured <= half,
    );
    rows.table(
        "ablation_horizons.csv",
        "tau_r,lp,lc,settle_s,overshoot_w",
        data,
    )
}

/// A budget step from 1.3 to 1.9 kW after 60 periods at 1.3 kW: the
/// periods until the feedback power is within 5% of the target (60 if it
/// never is), and its largest overshoot, W.
fn step_response(cfg: &SprintConConfig) -> (usize, f64) {
    let mut loaded = LoadedRack::new(cfg);
    for _ in 0..60 {
        loaded.step(Watts(1300.0));
    }
    let target = 1900.0;
    let (mut settle, mut overshoot) = (60, 0.0_f64);
    for t in 0..60 {
        let p_fb = loaded.feedback();
        overshoot = overshoot.max(p_fb - target);
        if (p_fb - target).abs() < 0.05 * target && settle == 60 {
            settle = t;
        }
        loaded.step(Watts(target));
    }
    (settle, overshoot)
}

/// A3: the progress-based penalty weights R (§V-B) on and off, under a
/// tight 1,550 W budget from t = 300 s to 720 s. The first batch core of
/// every server was starved for the first 300 s; with the weights the
/// optimizer gives those laggards more frequency.
pub(super) fn rweights(rows: &mut Rows<'_>) -> Table {
    let cfg = SprintConConfig::paper_default();
    let jobs = cfg.plant.num_servers * cfg.plant.batch_cores_per_server();
    let [on, off] = [true, false].map(|weights| weighted_run(&cfg, weights));
    rows.check(
        "weights raise the laggards' minimum progress by more than 0.02",
        "behind jobs speed up (§V-B)",
        format!("{:.3} vs {:.3}", on.laggard_min, off.laggard_min),
        on.laggard_min > off.laggard_min + 0.02,
    );
    let vacuous = if on.met + off.met == 0 {
        "; none is met, so this holds vacuously"
    } else {
        ""
    };
    rows.check(
        "weights cost no deadline",
        "behind jobs speed up (§V-B)",
        format!("{} vs {} of {jobs} met{vacuous}", on.met, off.met),
        on.met >= off.met,
    );
    rows.check(
        "weights shrink the progress spread",
        "progress balancing (§V-B)",
        format!("{:.3} vs {:.3}", on.spread, off.spread),
        on.spread < off.spread,
    );
    let data = [(1.0, on), (0.0, off)]
        .map(|(w, r)| vec![w, r.met as f64, r.laggard_min, r.spread])
        .to_vec();
    rows.table(
        "ablation_rweights.csv",
        "weights_on,deadlines_met,laggard_min_progress,progress_spread",
        data,
    )
}

/// The outcome of one A3 run.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// Jobs that completed by their deadline.
    met: usize,
    /// The smallest progress among the starved jobs.
    laggard_min: f64,
    /// Largest minus smallest progress over all jobs.
    spread: f64,
}

fn weighted_run(cfg: &SprintConConfig, use_weights: bool) -> Progress {
    let per_server = cfg.plant.batch_cores_per_server();
    let mut jobs = Vec::new();
    for s in 0..cfg.plant.num_servers {
        for c in 0..per_server {
            let mut job = BatchJob::new(
                format!("job-{s}-{c}"),
                ProgressModel::new(0.25),
                540.0,
                Seconds(720.0),
            );
            let f = if c == 0 { 0.2 } else { 0.8 };
            for _ in 0..300 {
                job.step(f, Seconds(1.0));
            }
            jobs.push(job);
        }
    }
    let mut loaded = LoadedRack::new(cfg);
    for t in 300..720 {
        if use_weights {
            loaded.ctrl.update_weights(Seconds(t as f64), &jobs);
        }
        loaded.step(Watts(1550.0));
        let freqs = loaded.rack.role(CoreRole::Batch).freqs;
        for (job, &f) in jobs.iter_mut().zip(freqs) {
            job.step(f, Seconds(1.0));
        }
    }
    let progress = || jobs.iter().map(BatchJob::progress);
    Progress {
        met: jobs
            .iter()
            .filter(|j| j.first_completion.is_some_and(|t| t.0 <= j.deadline.0))
            .count(),
        laggard_min: progress().step_by(per_server).fold(1.0, f64::min),
        spread: progress().fold(f64::NEG_INFINITY, f64::max)
            - progress().fold(f64::INFINITY, f64::min),
    }
}

/// A4: the UPS power SprintCon drew, replayed into a plain battery and
/// into the hybrid battery + supercap of \[24\], which takes the fast
/// component of the demand off the battery.
pub(super) fn hybrid_storage(ups_power: &[f64], rows: &mut Rows<'_>) -> Table {
    let mut plain = UpsBattery::full(UpsSpec::paper_default());
    let mut hybrid = HybridStorage::new(
        UpsBattery::full(UpsSpec::paper_default()),
        Supercap::full(SupercapSpec::paper_default()),
    );
    for &p in ups_power {
        plain.discharge(Watts(p), Seconds(1.0));
        hybrid.discharge(Watts(p), Seconds(1.0));
    }
    let battery = [&plain, &hybrid.battery];
    let [plain_wh, hybrid_wh] = battery.map(|b| b.total_cell_energy_out.0);
    let [plain_dod, hybrid_dod] = battery.map(|b| b.max_dod);
    let life = LfpCycleLife::paper_default();
    let [plain_cycles, hybrid_cycles] =
        [plain_dod, hybrid_dod].map(|d| life.cycles_at(d.max(0.01)));
    rows.check(
        "the supercap cuts the battery's energy throughput",
        "supercap takes the fast part [24]",
        format!("{hybrid_wh:.1} vs {plain_wh:.1} Wh"),
        hybrid_wh < plain_wh,
    );
    rows.check(
        "the hybrid's battery max DoD is no deeper, within 1e-9",
        "supercap takes the fast part [24]",
        format!("{:.1}% vs {:.1}%", hybrid_dod * 100.0, plain_dod * 100.0),
        hybrid_dod <= plain_dod + 1e-9,
    );
    rows.check(
        "its LFP cycle life at that DoD is no shorter",
        "fewer replacements (§VII-D)",
        format!("{:+.0} cycles", hybrid_cycles - plain_cycles),
        hybrid_cycles >= plain_cycles,
    );
    rows.report(
        "LFP cycle life at the max DoD, hybrid vs plain",
        "-",
        format!("{hybrid_cycles:.0} vs {plain_cycles:.0} cycles"),
    );
    rows.report(
        "energy through the supercap",
        "-",
        format!("{:.1} Wh", hybrid.cap.total_out.0),
    );
    rows.table(
        "ablation_hybrid_storage.csv",
        "config,battery_wh,max_dod,cycles",
        vec![
            vec![0.0, plain_wh, plain_dod, plain_cycles],
            vec![1.0, hybrid_wh, hybrid_dod, hybrid_cycles],
        ],
    )
}

/// A5: the paper's raw deadbeat UPS law against a Kalman filter on its
/// measurements. The duty-cycled discharge circuit of \[24\] switches on
/// every command change, so measurement noise becomes actuator wear; the
/// filter calms it at the cost of one filter lag of breaker exposure to
/// fast rises.
pub(super) fn ups_filter(rows: &mut Rows<'_>) -> Table {
    let raw = filter_run(UpsPowerController::new(0.0));
    let filtered = filter_run(UpsPowerController::new(0.0).with_filter(16.0, 625.0));
    rows.check(
        "neither variant trips the breaker",
        "-",
        format!("{} / {} trips", raw.trips, filtered.trips),
        raw.trips + filtered.trips == 0,
    );
    rows.check(
        "the filter's duty travel is below 0.5x the raw law's",
        "-",
        format!("{:.0} vs {:.0} W", filtered.duty_travel, raw.duty_travel),
        filtered.duty_travel < raw.duty_travel * 0.5,
    );
    rows.check(
        "its breaker overshoot heat stays below 10x the raw law's + 5",
        "-",
        format!(
            "{:.2} vs {:.2}",
            filtered.overshoot_heat, raw.overshoot_heat
        ),
        filtered.overshoot_heat < raw.overshoot_heat * 10.0 + 5.0,
    );
    rows.report(
        "duty travel, raw over filtered",
        "-",
        format!("{:.2}x", raw.duty_travel / filtered.duty_travel),
    );
    let data = [raw, filtered]
        .iter()
        .enumerate()
        .map(|(i, o)| vec![i as f64, o.duty_travel, o.overshoot_heat, o.trips as f64])
        .collect();
    rows.table(
        "ablation_ups_filter.csv",
        "variant,duty_travel,overshoot_heat,trips",
        data,
    )
}

/// The outcome of one A5 run.
#[derive(Debug, Clone, Copy)]
struct Actuation {
    /// Total |Δcommand|, W.
    duty_travel: f64,
    /// Summed (load / rating)² − 1 over the overloaded periods.
    overshoot_heat: f64,
    trips: usize,
}

/// 900 periods of a noisy rack load (a slow wander, a 250 W step every
/// 300 s and measurement noise, the same for every `ctrl`) behind the
/// paper breaker, with `ctrl` discharging the UPS one period late, as the
/// engine does.
fn filter_run(mut ctrl: UpsPowerController) -> Actuation {
    let mut noise = NoiseSource::new(42);
    let mut cb = CircuitBreaker::new(BreakerSpec::paper_default());
    let target = Watts(3200.0 * 0.99);
    let mut out = Actuation {
        duty_travel: 0.0,
        overshoot_heat: 0.0,
        trips: 0,
    };
    let (mut wobble, mut last_cmd, mut p_prev) = (0.0, 0.0, 3600.0);
    for k in 0..900 {
        wobble = 0.95 * wobble + 30.0 * noise.gaussian();
        let step_up = if k % 300 == 120 { 250.0 } else { 0.0 };
        let p_true =
            (3600.0 + 200.0 * ((k as f64) * 0.01).sin() + wobble + step_up).clamp(3000.0, 4400.0);
        let measured = p_true + 25.0 * noise.gaussian();
        let cmd = ctrl.control(Watts(p_prev), target);
        p_prev = measured;
        out.duty_travel += (cmd.0 - last_cmd).abs();
        last_cmd = cmd.0;
        let cb_load = (p_true - cmd.0).max(0.0);
        if cb_load > 3200.0 {
            out.overshoot_heat += (cb_load / 3200.0).powi(2) - 1.0;
        }
        if cb.step(Watts(cb_load), Seconds(1.0)).tripped {
            out.trips += 1;
        }
    }
    out
}
