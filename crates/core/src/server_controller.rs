//! The server power controller (§V): MPC over the batch cores' DVFS,
//! tracking the allocator's `P_batch` using the Eq. (6) feedback estimate.

use crate::config::SprintConConfig;
use powersim::cpu::SnapLadder;
use powersim::server::{InteractivePowerModel, LinearServerModel};
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use sprint_control::mpc::{MpcController, MpcDecision};
use sprint_control::pid::{Pid, PidConfig};
use workloads::batch::BatchJob;

/// MPC-based server power controller for one rack.
#[derive(Debug, Clone)]
pub struct ServerPowerController {
    mpc: MpcController,
    /// Per-server interactive power models (Eq. (5)): one fit per rack,
    /// copied to each server.
    inter_models: Vec<InteractivePowerModel>,
    /// Per-server linear batch models (Eq. (2)) — shared with the
    /// allocator for budget/floor computations. One fit per rack, copied
    /// to each server.
    batch_models: Vec<LinearServerModel>,
    batch_cores_per_server: usize,
    num_servers: usize,
    /// The DVFS ladder the commands are snapped to, tabulated once.
    /// Commands are snapped by error diffusion: each core's rounding
    /// error is carried to the next core, so the *aggregate* frequency
    /// (and hence the rack's batch power) stays within one P-state step
    /// of the optimum instead of limit-cycling in 64-core quantization
    /// jumps.
    ladder: SnapLadder,
    /// Classical fallback loop: takes over when the QP would see a
    /// non-finite input (degradation-ladder rung 3).
    fallback_pid: Pid,
    /// Last finite feedback power, fed to the PID when the live value
    /// is unusable.
    last_finite_p_fb: f64,
    /// Was the fallback active last period (reset-on-recovery edge)?
    fallback_was_active: bool,
    /// Scratch for the per-period `Rⱼ` refresh — reused so the steady
    /// state allocates nothing per control period.
    weight_scratch: Vec<f64>,
}

impl ServerPowerController {
    /// Calibrate the linear models against the server spec and build the
    /// per-core MPC (channel `s·m + j` = core `j` of server `s`). Every
    /// server of the rack shares one `ServerSpec` and each fit is a pure
    /// function of it, so each model is fitted once and copied.
    pub fn new(cfg: &SprintConConfig) -> Self {
        let m = cfg.batch_cores_per_server();
        assert!(m > 0, "controller needs batch cores to actuate");
        let batch_model =
            LinearServerModel::fit(&cfg.server, m, Utilization(cfg.assumed_batch_util));
        let inter_model = InteractivePowerModel::fit(&cfg.server, cfg.interactive_cores_per_server);
        let batch_models = vec![batch_model; cfg.num_servers];
        let inter_models = vec![inter_model; cfg.num_servers];
        let n = cfg.num_servers * m;
        // Per-core gain: the server's K spread across its batch cores.
        let gains: Vec<f64> = batch_models
            .iter()
            .flat_map(|bm| std::iter::repeat_n(bm.k / m as f64, m))
            .collect();
        let fmin = vec![cfg.server.freq_scale.min.0; n];
        let fmax = vec![cfg.server.freq_scale.max.0; n];
        // Fallback PID: a scalar loop on the aggregate batch power, with
        // the plant gain Σk divided out so a unit error nudges the uniform
        // frequency by ~0.5 steps per period (conservative, well inside
        // the stability margin of the first-order Eq. (2) plant).
        let k_total: f64 = batch_models.iter().map(|bm| bm.k).sum();
        let fallback_pid = Pid::new(PidConfig {
            kp: 0.5 / k_total,
            ki: 0.25 / k_total,
            kd: 0.0,
            out_min: cfg.server.freq_scale.min.0,
            out_max: cfg.server.freq_scale.max.0,
            period: cfg.control_period.0,
        });
        ServerPowerController {
            mpc: MpcController::new(cfg.mpc, cfg.control_period.0, gains, fmin, fmax),
            inter_models,
            batch_models,
            batch_cores_per_server: m,
            num_servers: cfg.num_servers,
            ladder: SnapLadder::new(cfg.server.freq_scale),
            fallback_pid,
            last_finite_p_fb: 0.0,
            fallback_was_active: false,
            weight_scratch: Vec::with_capacity(n),
        }
    }

    /// The fitted per-server batch models (the allocator shares them).
    pub fn batch_models(&self) -> &[LinearServerModel] {
        &self.batch_models
    }

    /// Eq. (5): model-predicted interactive power from the measured
    /// per-server interactive utilizations.
    pub fn interactive_power(&self, utils: &[Utilization]) -> Watts {
        assert_eq!(utils.len(), self.num_servers);
        Watts(
            self.inter_models
                .iter()
                .zip(utils)
                .map(|(m, &u)| m.predict(u).0)
                .sum(),
        )
    }

    /// Eq. (6): the feedback power the MPC tracks —
    /// `p_fb = p_total − p_inter` (batch power is not directly
    /// measurable under mixed placement, §IV-C).
    pub fn feedback_power(&self, p_total: Watts, utils: &[Utilization]) -> Watts {
        Watts((p_total.0 - self.interactive_power(utils).0).max(0.0))
    }

    /// Batch power the linear models (Eq. (2)/(3)) predict for the given
    /// per-core frequencies — the reference point for the allocator's
    /// feedback-bias estimate.
    pub fn model_predicted_batch_power(&self, batch_freqs: &[f64]) -> Watts {
        assert_eq!(batch_freqs.len(), self.num_channels());
        let m = self.batch_cores_per_server;
        Watts(
            self.batch_models
                .iter()
                .enumerate()
                .map(|(s, bm)| {
                    let slice = &batch_freqs[s * m..(s + 1) * m];
                    let mean = slice.iter().sum::<f64>() / m as f64;
                    bm.predict(NormFreq(mean)).0
                })
                .sum(),
        )
    }

    /// Refresh the per-core penalty weights `R_ij` from job progress
    /// (§V-B); `jobs` is ordered like the MPC channels.
    pub fn update_weights(&mut self, now: Seconds, jobs: &[BatchJob]) {
        assert_eq!(jobs.len(), self.mpc.num_channels());
        self.weight_scratch.clear();
        self.weight_scratch
            .extend(jobs.iter().map(|j| j.control_weight(now)));
        self.mpc.set_penalty_weights(&self.weight_scratch);
    }

    /// One control period (the 4-step loop of §IV-C): take the measured
    /// total power and utilizations, derive feedback, and return new
    /// frequency commands for every batch core.
    ///
    /// If any input the QP would consume is non-finite (sensor dropout
    /// that slipped past the supervisor, corrupted frequency readback),
    /// the MPC is bypassed for a scalar PID on the last finite feedback
    /// power — degradation-ladder rung 3. The transition is counted in
    /// the `server_ctrl_pid_fallback` telemetry counter.
    pub fn control(
        &mut self,
        p_total: Watts,
        utils: &[Utilization],
        p_batch_target: Watts,
        current_freqs: &[f64],
    ) -> MpcDecision {
        let _timer = telemetry::span("server_controller_control");
        // Check p_total itself: `feedback_power` floors at zero via
        // f64::max, which silently maps NaN to 0.0 and would hide the
        // fault from the QP.
        let inputs_finite = p_total.is_finite()
            && p_batch_target.0.is_finite()
            && utils.iter().all(|u| u.0.is_finite())
            && current_freqs.iter().all(|f| f.is_finite());
        if !inputs_finite {
            return self.control_pid_fallback(p_batch_target);
        }
        if self.fallback_was_active {
            // Recovered: the QP warm-starts from current_freqs on its
            // own, but the PID must not carry stale integral state into
            // the next outage.
            self.fallback_pid.reset();
            self.fallback_was_active = false;
        }
        let p_fb = self.feedback_power(p_total, utils);
        self.last_finite_p_fb = p_fb.0;
        let mut decision = self.mpc.compute(p_fb.0, p_batch_target.0, current_freqs);
        self.ladder.diffuse(&mut decision.freqs);
        decision
    }

    /// Rung-3 fallback: uniform-frequency PID on the aggregate batch
    /// power. Deliberately does NOT call `mpc.compute`, so QP telemetry
    /// (`qp_solve_total`) keeps counting real solves only. The decision
    /// reports no solve: 0 iterations, `converged: false` and a NaN KKT
    /// residual.
    fn control_pid_fallback(&mut self, p_batch_target: Watts) -> MpcDecision {
        telemetry::counter_add("server_ctrl_pid_fallback", 1);
        self.fallback_was_active = true;
        let target = if p_batch_target.0.is_finite() {
            p_batch_target.0.max(0.0)
        } else {
            0.0
        };
        let f = self.fallback_pid.step(target, self.last_finite_p_fb);
        let mut freqs = vec![f; self.num_channels()];
        self.ladder.diffuse(&mut freqs);
        // Open-loop estimate: assume the plant lands where the model
        // says, so consecutive blind periods don't integrate on a frozen
        // measurement.
        self.last_finite_p_fb = self.model_predicted_batch_power(&freqs).0;
        MpcDecision {
            freqs,
            iterations: 0,
            converged: false,
            kkt_residual: f64::NAN,
        }
    }

    pub fn num_channels(&self) -> usize {
        self.mpc.num_channels()
    }

    pub fn batch_cores_per_server(&self) -> usize {
        self.batch_cores_per_server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::cpu::CoreRole;
    use powersim::rack::Rack;
    use workloads::progress_model::ProgressModel;

    fn cfg() -> SprintConConfig {
        SprintConConfig::paper_default()
    }

    fn rack(c: &SprintConConfig) -> Rack {
        Rack::builder()
            .server(c.server.clone())
            .num_servers(c.num_servers)
            .interactive_cores_per_server(c.interactive_cores_per_server)
            .build()
            .expect("paper config is a valid rack")
    }

    fn interactive_utils(rack: &Rack) -> Vec<Utilization> {
        let mut v = Vec::new();
        rack.interactive_utils_into(&mut v);
        v
    }

    /// Apply the controller's per-core commands to the rack.
    fn apply(rack: &mut Rack, ctrl: &ServerPowerController, freqs: &[f64]) {
        let ids = rack.cores_with_role(CoreRole::Batch);
        assert_eq!(ids.len(), freqs.len());
        let _ = ctrl;
        for (id, &f) in ids.iter().zip(freqs) {
            rack.set_freq(*id, NormFreq(f));
        }
    }

    fn batch_freqs(rack: &Rack) -> Vec<f64> {
        rack.cores_with_role(CoreRole::Batch)
            .iter()
            .map(|&id| rack.freq(id).0)
            .collect()
    }

    #[test]
    fn closed_loop_tracks_p_batch_on_the_nonlinear_plant() {
        // The full loop of §V: MPC designed on the linear model, driving
        // the Horvath–Skadron plant with busy interactive cores.
        let c = cfg();
        let mut ctrl = ServerPowerController::new(&c);
        let mut rk = rack(&c);
        for id in rk.cores_with_role(CoreRole::Interactive) {
            rk.set_util(id, Utilization(0.65));
        }
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.95));
        }
        let utils = interactive_utils(&rk);
        let target = Watts(1700.0);
        for _ in 0..40 {
            let p_total = rk.power();
            let d = ctrl.control(p_total, &utils, target, &batch_freqs(&rk));
            apply(&mut rk, &ctrl, &d.freqs);
        }
        // Converged: feedback power within ~6% of target despite model
        // error (nonlinear plant + quantized DVFS).
        let p_fb = ctrl.feedback_power(rk.power(), &utils);
        assert!((p_fb.0 - 1700.0).abs() < 100.0, "p_fb={} target=1700", p_fb);
    }

    #[test]
    fn unreachable_budget_pins_batch_at_peak() {
        let c = cfg();
        let mut ctrl = ServerPowerController::new(&c);
        let mut rk = rack(&c);
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.95));
        }
        let utils = interactive_utils(&rk);
        for _ in 0..25 {
            let d = ctrl.control(rk.power(), &utils, Watts(10_000.0), &batch_freqs(&rk));
            apply(&mut rk, &ctrl, &d.freqs);
        }
        for f in batch_freqs(&rk) {
            assert!((f - 1.0).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn tiny_budget_pins_batch_at_floor() {
        let c = cfg();
        let mut ctrl = ServerPowerController::new(&c);
        let mut rk = rack(&c);
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.95));
        }
        let utils = interactive_utils(&rk);
        for _ in 0..25 {
            let d = ctrl.control(rk.power(), &utils, Watts(0.0), &batch_freqs(&rk));
            apply(&mut rk, &ctrl, &d.freqs);
        }
        for f in batch_freqs(&rk) {
            assert!((f - 0.2).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn feedback_subtracts_interactive_model() {
        let c = cfg();
        let ctrl = ServerPowerController::new(&c);
        let utils = vec![Utilization(0.5); c.num_servers];
        let p_inter = ctrl.interactive_power(&utils);
        assert!(p_inter.0 > 0.0);
        let p_fb = ctrl.feedback_power(Watts(4000.0), &utils);
        assert!((p_fb.0 - (4000.0 - p_inter.0)).abs() < 1e-9);
        // Floor at zero when interactive model over-predicts.
        assert_eq!(ctrl.feedback_power(Watts(0.0), &utils), Watts(0.0));
    }

    #[test]
    fn progress_weights_starve_the_job_that_can_afford_it() {
        let c = cfg();
        let mut ctrl = ServerPowerController::new(&c);
        let now = Seconds(300.0);
        // Core 0's job is way behind (urgent); all others nearly done.
        let jobs: Vec<BatchJob> = (0..ctrl.num_channels())
            .map(|i| {
                let mut j = BatchJob::new(
                    format!("j{i}"),
                    ProgressModel::new(0.2),
                    600.0,
                    Seconds(600.0),
                );
                let f = if i == 0 { 0.22 } else { 1.0 };
                for _ in 0..300 {
                    j.step(f, Seconds(1.0));
                }
                j
            })
            .collect();
        ctrl.update_weights(now, &jobs);
        let mut rk = rack(&c);
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.95));
        }
        let utils = interactive_utils(&rk);
        // Mid-range budget forces a choice.
        for _ in 0..30 {
            let d = ctrl.control(rk.power(), &utils, Watts(1600.0), &batch_freqs(&rk));
            apply(&mut rk, &ctrl, &d.freqs);
        }
        let fs = batch_freqs(&rk);
        let others_mean: f64 = fs[1..].iter().sum::<f64>() / (fs.len() - 1) as f64;
        assert!(
            fs[0] > others_mean + 0.1,
            "urgent core f={} vs others {}",
            fs[0],
            others_mean
        );
    }

    #[test]
    fn nan_measurement_falls_back_to_pid_and_stays_in_range() {
        let c = cfg();
        let mut ctrl = ServerPowerController::new(&c);
        let utils = vec![Utilization(0.5); c.num_servers];
        let n = ctrl.num_channels();
        // Prime the fallback state with one healthy period.
        let healthy = ctrl.control(Watts(4200.0), &utils, Watts(1700.0), &vec![0.6; n]);
        assert!(healthy.converged, "nominal path must run the QP");
        // Sensor dropout: NaN total power must never reach the QP.
        let mut freqs = healthy.freqs.clone();
        for _ in 0..20 {
            let d = ctrl.control(Watts(f64::NAN), &utils, Watts(1700.0), &freqs);
            assert!(!d.converged, "fallback must not fabricate a QP solve");
            assert!(d.iterations == 0 && d.kkt_residual.is_nan());
            assert!(d.freqs.iter().all(|f| f.is_finite()));
            for &f in &d.freqs {
                let (lo, hi) = (c.server.freq_scale.min.0, c.server.freq_scale.max.0);
                assert!((lo - 1e-9..=hi + 1e-9).contains(&f), "f={f}");
            }
            assert!(ctrl.last_finite_p_fb.is_finite());
            freqs = d.freqs;
        }
        // Blind tracking: the open-loop PID should settle near the target
        // according to its own model.
        let blind = ctrl.model_predicted_batch_power(&freqs).0;
        assert!(
            (blind - 1700.0).abs() < 250.0,
            "blind model power {blind} should approach 1700"
        );
        // Recovery: finite inputs go straight back through the MPC.
        let back = ctrl.control(Watts(4200.0), &utils, Watts(1700.0), &freqs);
        assert!(back.converged, "recovered path must use the QP again");
    }

    #[test]
    fn interactive_model_is_monotone_in_utilization() {
        let c = cfg();
        let ctrl = ServerPowerController::new(&c);
        let lo = ctrl.interactive_power(&vec![Utilization(0.2); c.num_servers]);
        let hi = ctrl.interactive_power(&vec![Utilization(0.9); c.num_servers]);
        assert!(hi.0 > lo.0 + 500.0, "lo={lo} hi={hi}");
    }
}
