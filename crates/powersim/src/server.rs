//! Server-level power models.
//!
//! Two distinct model classes coexist by design (§V-A, §VI-A of the paper):
//!
//! * [`ServerSpec`] with [`crate::rack::server_power`] — the *plant*: a nonlinear
//!   Horvath–Skadron-style measurement model (power as a function of both
//!   per-core frequency **and** utilization, with a cubic CPU component and
//!   throughput-coupled non-CPU power). This is what the simulated power
//!   monitor reports.
//! * [`LinearServerModel`] / [`InteractivePowerModel`] — the *controller's*
//!   linearized models (Eq. (1)–(5) of the paper), fitted against the plant.
//!   The controller never sees the plant equations; the gap between the two
//!   is the modeling error the feedback design must absorb.

use crate::cpu::{CorePowerLaw, CoreRole, FreqScale};
use crate::rack::server_power;
use crate::units::{NormFreq, Utilization, Watts};

/// Static description of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Total CPU cores (the paper's testbed: two 4-core CPUs → 8).
    pub num_cores: usize,
    /// Power with every core idle, W (paper: 150 W).
    pub idle_watts: f64,
    /// Power with every core at peak frequency and 100% utilization, W
    /// (paper: 300 W).
    pub full_watts: f64,
    /// Fraction of the idle→full dynamic range attributed to non-CPU
    /// hardware (memory, disk, NIC) whose power follows delivered
    /// throughput rather than frequency.
    pub noncpu_fraction: f64,
    /// Per-core active power law; `peak_active_watts` is derived from the
    /// other fields by [`ServerSpec::paper_default`]-style constructors.
    pub core_law: CorePowerLaw,
    /// DVFS ladder for every core on this server.
    pub freq_scale: FreqScale,
}

impl ServerSpec {
    /// The paper's evaluation server: 8 cores, 150 W idle, 300 W full,
    /// 400 MHz–2 GHz DVFS.
    pub fn paper_default() -> Self {
        Self::calibrated(8, 150.0, 300.0, 0.35, 0.7, FreqScale::paper_default())
    }

    /// Build a spec whose plant model hits `idle_watts` exactly when idle
    /// and `full_watts` exactly at peak-frequency full load.
    ///
    /// `noncpu_fraction` of the dynamic range goes to throughput-coupled
    /// non-CPU power; the rest is split across cores with `cubic_fraction`
    /// of it following the cubic DVFS law.
    pub fn calibrated(
        num_cores: usize,
        idle_watts: f64,
        full_watts: f64,
        noncpu_fraction: f64,
        cubic_fraction: f64,
        freq_scale: FreqScale,
    ) -> Self {
        assert!(num_cores > 0, "server must have at least one core");
        assert!(full_watts > idle_watts, "full power must exceed idle power");
        assert!((0.0..1.0).contains(&noncpu_fraction));
        let dynamic = full_watts - idle_watts;
        let cpu_dynamic = dynamic * (1.0 - noncpu_fraction);
        ServerSpec {
            num_cores,
            idle_watts,
            full_watts,
            noncpu_fraction,
            core_law: CorePowerLaw {
                peak_active_watts: cpu_dynamic / num_cores as f64,
                cubic_fraction,
                // Core leakage is folded into `idle_watts`; the law's own
                // idle term stays zero so calibration is exact.
                idle_watts: 0.0,
            },
            freq_scale,
        }
    }

    /// Non-CPU dynamic power at a given normalized throughput (mean core
    /// throughput in `[0,1]`). Mildly concave: storage/memory power rises
    /// quickly once any work flows, then saturates.
    pub fn noncpu_power(&self, mean_throughput: f64) -> f64 {
        let x = mean_throughput.clamp(0.0, 1.0);
        let dynamic = self.full_watts - self.idle_watts;
        dynamic * self.noncpu_fraction * x.powf(0.8)
    }
}

/// One server's `(freq, util)` lanes for calibrating the controller's
/// models against the plant: the first `interactive` lanes are the
/// interactive cores, and every lane starts at peak frequency, idle.
struct Probe<'a> {
    spec: &'a ServerSpec,
    interactive: usize,
    freqs: Vec<f64>,
    utils: Vec<f64>,
}

impl<'a> Probe<'a> {
    fn new(spec: &'a ServerSpec, interactive: usize) -> Self {
        assert!(interactive <= spec.num_cores);
        let n = spec.num_cores;
        Probe {
            spec,
            interactive,
            freqs: vec![NormFreq::PEAK.0; n],
            utils: vec![Utilization::IDLE.0; n],
        }
    }

    /// Run every core of `role` at frequency `f` and utilization `u`.
    fn set(&mut self, role: CoreRole, f: f64, u: f64) {
        let lanes = match role {
            CoreRole::Interactive => 0..self.interactive,
            CoreRole::Batch => self.interactive..self.freqs.len(),
        };
        self.freqs[lanes.clone()].fill(f);
        self.utils[lanes].fill(u);
    }

    /// Plant power, W ([`server_power`]).
    fn power(&self) -> f64 {
        let (fi, fb) = self.freqs.split_at(self.interactive);
        let (ui, ub) = self.utils.split_at(self.interactive);
        server_power(self.spec, [(fi, ui), (fb, ub)])
    }
}

/// The controller's linear batch-power model, Eq. (2): `p_i = K_i·f_i + C_i`.
///
/// `f_i` is the mean frequency of the batch cores of server *i*. Fitted by
/// least squares against the plant at an assumed operating utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearServerModel {
    /// Watts per unit normalized frequency (the `K_i` of Eq. (2)).
    pub k: f64,
    /// Frequency-independent batch-attributed power, W (the `C_i`).
    pub c: f64,
}

impl LinearServerModel {
    /// Fit `p = k·f + c` to the plant's *batch-attributable* power at the
    /// assumed utilization, sampling the DVFS range.
    ///
    /// Batch-attributable power is the increase of server power over the
    /// same server with batch cores idle, plus the batch cores' share of
    /// static power — mirroring how an operator would calibrate Eq. (2)
    /// from wall-power measurements.
    pub fn fit(spec: &ServerSpec, batch_cores: usize, assumed_util: Utilization) -> Self {
        assert!(batch_cores <= spec.num_cores);
        // Interactive cores silent during calibration.
        let mut probe = Probe::new(spec, spec.num_cores - batch_cores);
        let baseline = probe.power();
        let static_share = spec.idle_watts * batch_cores as f64 / spec.num_cores as f64;
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for f in sample_freqs(&spec.freq_scale) {
            probe.set(CoreRole::Batch, f.0, assumed_util.0);
            pts.push((f.0, probe.power() - baseline + static_share));
        }
        let (k, c) = least_squares_line(&pts);
        LinearServerModel { k, c }
    }

    pub fn predict(&self, f: NormFreq) -> Watts {
        Watts(self.k * f.0 + self.c)
    }

    /// Invert the model: frequency that would draw `p` watts, unclamped.
    pub fn freq_for_power(&self, p: Watts) -> NormFreq {
        NormFreq((p.0 - self.c) / self.k)
    }
}

/// The controller's interactive-power model, Eq. (5): `p = K'·u + C'`,
/// valid while interactive cores run at peak frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractivePowerModel {
    pub k: f64,
    pub c: f64,
}

impl InteractivePowerModel {
    /// Fit `p = k·u + c` for the whole server with batch cores held at a
    /// nominal operating point, sweeping interactive utilization at peak
    /// frequency.
    ///
    /// The fitted model predicts the *interactive-attributable* component
    /// used in Eq. (6): `p_fb = p_total − p_inter`.
    pub fn fit(spec: &ServerSpec, interactive_cores: usize) -> Self {
        // Batch cores idle during calibration; their power is accounted by
        // the batch model.
        let mut probe = Probe::new(spec, interactive_cores);
        let baseline = probe.power();
        let static_share = spec.idle_watts * interactive_cores as f64 / spec.num_cores as f64;
        let mut pts = Vec::new();
        for step in 0..=10 {
            let u = step as f64 / 10.0;
            probe.set(CoreRole::Interactive, NormFreq::PEAK.0, u);
            pts.push((u, probe.power() - baseline + static_share));
        }
        let (k, c) = least_squares_line(&pts);
        InteractivePowerModel { k, c }
    }

    pub fn predict(&self, u: Utilization) -> Watts {
        Watts(self.k * u.0 + self.c)
    }
}

fn sample_freqs(scale: &FreqScale) -> Vec<NormFreq> {
    let n = 16;
    (0..=n)
        .map(|i| NormFreq(scale.min.0 + (scale.max.0 - scale.min.0) * i as f64 / n as f64))
        .collect()
}

/// Ordinary least squares for `y = k·x + c` over `(x, y)` points.
fn least_squares_line(pts: &[(f64, f64)]) -> (f64, f64) {
    let n = pts.len() as f64;
    assert!(n >= 2.0, "need at least two points to fit a line");
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate x values in line fit");
    let k = (n * sxy - sx * sy) / denom;
    let c = (sy - k * sx) / n;
    (k, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::paper_default()
    }

    #[test]
    fn calibration_hits_paper_endpoints() {
        let sp = spec();
        let mut s = Probe::new(&sp, 4);
        // All idle → exactly 150 W.
        assert!((s.power() - 150.0).abs() < 1e-9);
        // All cores peak frequency, fully utilized → exactly 300 W.
        for role in [CoreRole::Interactive, CoreRole::Batch] {
            s.set(role, NormFreq::PEAK.0, Utilization::FULL.0);
        }
        assert!((s.power() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn power_monotone_in_batch_freq() {
        let sp = spec();
        let mut s = Probe::new(&sp, 4);
        s.set(CoreRole::Interactive, NormFreq::PEAK.0, 0.9);
        let mut prev = 0.0;
        for i in 0..=8 {
            let f = sp.freq_scale.quantize(NormFreq(0.2 + 0.1 * i as f64));
            s.set(CoreRole::Batch, f.0, 0.9);
            let p = s.power();
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn linear_fit_is_a_reasonable_approximation() {
        let sp = spec();
        let m = LinearServerModel::fit(&sp, 4, Utilization(0.9));
        assert!(m.k > 0.0, "power must increase with frequency");
        // Prediction error vs the plant stays within ~12% of the batch
        // dynamic range across the DVFS span — the modeling error MPC must
        // tolerate, not a perfect fit.
        let mut probe = Probe::new(&sp, 4);
        let baseline = probe.power();
        let static_share = sp.idle_watts * 0.5;
        for i in 0..=8 {
            let f = NormFreq(0.2 + 0.1 * i as f64);
            probe.set(CoreRole::Batch, f.0, 0.9);
            let actual = probe.power() - baseline + static_share;
            let pred = m.predict(f).0;
            assert!(
                (actual - pred).abs() < 12.0,
                "fit error too large at f={f:?}: actual={actual:.1} pred={pred:.1}"
            );
        }
    }

    #[test]
    fn linear_model_inversion_round_trips() {
        let m = LinearServerModel { k: 80.0, c: 20.0 };
        let f = m.freq_for_power(Watts(60.0));
        assert!((m.predict(f).0 - 60.0).abs() < 1e-9);
    }

    #[test]
    fn interactive_fit_monotone() {
        let m = InteractivePowerModel::fit(&spec(), 4);
        assert!(m.k > 0.0);
        assert!(m.predict(Utilization::FULL).0 > m.predict(Utilization::IDLE).0);
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let (k, c) = least_squares_line(&pts);
        assert!((k - 3.0).abs() < 1e-9);
        assert!((c - 7.0).abs() < 1e-9);
    }
}
