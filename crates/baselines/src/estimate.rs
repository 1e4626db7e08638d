//! Open-loop rack power estimation — the model knowledge the
//! *uncontrolled* SGCT baseline is allowed.
//!
//! SGCT plans sprint assignments against a static model calibrated from
//! the datasheet ([`CalibratedRackEstimator`]), with no feedback
//! correction. The model systematically *underestimates* the real
//! plant: it knows nothing about the cooling fans, and the plant's
//! non-CPU power is concave in throughput (partial loads draw
//! disproportionately much).
//! That gap is exactly why Fig. 5 shows SGCT's actual CB power riding
//! slightly above its budget and tripping the breaker — no artificial
//! error is injected anywhere.

use powersim::cpu::CoreRole;
use powersim::rack::{server_power, Rack};
use powersim::server::ServerSpec;
use powersim::units::{NormFreq, Watts};

/// DVFS-aware open-loop estimator — what a careful operator calibrates
/// from the CPU's published P-state power table.
///
/// Models the per-core cubic DVFS law exactly (that part *is* in the
/// datasheet) and a linear throughput term for non-CPU power, but knows
/// nothing about (a) the concavity of real non-CPU power in throughput
/// and (b) the cooling fans. Both gaps bias it *low* at sprint operating
/// points, which is the Fig. 5 trip mechanism: SGCT plans to the budget
/// and the breaker carries more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedRackEstimator {
    pub idle_per_server: f64,
    /// Peak active CPU power per core, W.
    pub cpu_peak_per_core: f64,
    /// Fraction of CPU active power following `f³`.
    pub cubic_fraction: f64,
    /// Non-CPU dynamic power per server at full throughput, W (modelled
    /// as linear in mean `f·u`).
    pub noncpu_span: f64,
}

impl CalibratedRackEstimator {
    pub fn from_spec(spec: &powersim::server::ServerSpec) -> Self {
        let dynamic = spec.full_watts - spec.idle_watts;
        CalibratedRackEstimator {
            idle_per_server: spec.idle_watts,
            cpu_peak_per_core: spec.core_law.peak_active_watts,
            cubic_fraction: spec.core_law.cubic_fraction,
            noncpu_span: dynamic * spec.noncpu_fraction,
        }
    }

    /// Estimate rack power for a candidate frequency vector using the
    /// rack's measured utilizations.
    pub fn estimate(&self, rack: &Rack, freqs: &[NormFreq]) -> Watts {
        EstimateProbe::new(*self, rack, &mut ProbeBuffers::default()).reset(freqs)
    }
}

/// The oracle the *idealized* SGCT-V1/V2 variants are granted (§VI-B:
/// "ideally manage the processor frequency ... though this is not
/// feasible in practice without closed-loop control"): exact plant power
/// for a candidate frequency vector.
pub fn oracle_power(rack: &Rack, freqs: &[NormFreq]) -> Watts {
    OracleProbe::new(rack, &mut ProbeBuffers::default()).reset(freqs)
}

/// Incremental rack power evaluation for the greedy sprint walk.
///
/// A probe holds one candidate frequency vector (rack order,
/// server-major) over the utilizations of the rack it was built on.
/// [`PowerProbe::reset`] evaluates a whole vector; [`PowerProbe::set`]
/// moves one core, re-evaluates only that core's server, and resumes the
/// rack total at that server in the whole-vector association order.
/// Both models are separable per server, so `set(i, f)` returns exactly
/// the bits `reset` would for the updated vector. `set` requires a prior
/// `reset`.
pub trait PowerProbe {
    /// Make `freqs` (one per core, rack order) the candidate; its power.
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts;
    /// Move core `core` (rack order) to `f`; the candidate's new power.
    fn set(&mut self, core: usize, f: NormFreq) -> Watts;
}

/// Storage the probes evaluate in. Callers that probe a rack every
/// control period keep one so a warm probe allocates nothing; building a
/// probe overwrites whatever a previous probe left.
#[derive(Debug, Clone, Default)]
pub struct ProbeBuffers {
    /// Per core, rack order: the utilization the probe was built on.
    util: Vec<f64>,
    /// Per core, rack order: the oracle's clamped frequency, the
    /// estimate's active CPU term.
    core: Vec<f64>,
    /// Per core, rack order: the estimate's `f·u` throughput term.
    throughput: Vec<f64>,
    /// Per server: the oracle's plant power, the estimate's non-CPU term.
    server: Vec<f64>,
    /// The running rack total before each server (`n + 1` slots).
    prefix: Vec<f64>,
}

impl ProbeBuffers {
    /// Copy `rack`'s utilizations in rack order (each server's
    /// interactive row, then its batch row) and size every buffer to it.
    fn load(&mut self, rack: &Rack) {
        let iv = rack.role(CoreRole::Interactive);
        let bv = rack.role(CoreRole::Batch);
        self.util.clear();
        for s in 0..rack.num_servers() {
            self.util.extend_from_slice(iv.server_utils(s));
            self.util.extend_from_slice(bv.server_utils(s));
        }
        self.core.resize(self.util.len(), 0.0);
        self.throughput.resize(self.util.len(), 0.0);
        self.server.resize(rack.num_servers(), 0.0);
        self.prefix.resize(rack.num_servers() + 1, 0.0);
        self.prefix[0] = 0.0;
    }
}

/// [`PowerProbe`] over the exact plant ([`oracle_power`]): caches each
/// core's clamped frequency and each server's power. A `set` recomputes
/// only the touched server through [`powersim::rack::server_power`] (the
/// plant law [`Rack::power`] uses), then resumes the fold of the server
/// powers from `0.0` in server order at the stored total before it.
#[derive(Debug)]
pub struct OracleProbe<'a> {
    spec: &'a ServerSpec,
    ipc: usize,
    buf: &'a mut ProbeBuffers,
}

impl<'a> OracleProbe<'a> {
    pub fn new(rack: &'a Rack, buf: &'a mut ProbeBuffers) -> Self {
        buf.load(rack);
        OracleProbe {
            spec: rack.spec(),
            ipc: rack.interactive_cores_per_server(),
            buf,
        }
    }

    fn refresh_server(&mut self, s: usize) {
        let lanes = s * self.spec.num_cores..(s + 1) * self.spec.num_cores;
        let (fi, fb) = self.buf.core[lanes.clone()].split_at(self.ipc);
        let (ui, ub) = self.buf.util[lanes].split_at(self.ipc);
        self.buf.server[s] = server_power(self.spec, [(fi, ui), (fb, ub)]);
    }

    /// Resume the running total at server `from` and fold every later
    /// server's power on top.
    fn refold(&mut self, from: usize) -> Watts {
        let buf = &mut *self.buf;
        let mut total = buf.prefix[from];
        for (s, &p) in buf.server.iter().enumerate().skip(from) {
            total += p;
            buf.prefix[s + 1] = total;
        }
        Watts(total)
    }
}

impl PowerProbe for OracleProbe<'_> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        assert_eq!(freqs.len(), self.buf.util.len(), "one frequency per core");
        // Ideal actuation: continuous frequencies, no ladder snap.
        for (c, f) in self.buf.core.iter_mut().zip(freqs) {
            *c = f.0.clamp(0.0, 1.0);
        }
        for s in 0..self.buf.server.len() {
            self.refresh_server(s);
        }
        self.refold(0)
    }

    fn set(&mut self, core: usize, f: NormFreq) -> Watts {
        self.buf.core[core] = f.0.clamp(0.0, 1.0);
        let s = core / self.spec.num_cores;
        self.refresh_server(s);
        self.refold(s)
    }
}

/// [`PowerProbe`] over [`CalibratedRackEstimator`]: caches each core's
/// active term and `f·u`, and each server's non-CPU term. A `set`
/// recomputes the touched core and its server's non-CPU term, then
/// resumes the single running sum of the whole-vector estimate from the
/// stored total before the touched server.
#[derive(Debug)]
pub struct EstimateProbe<'a> {
    est: CalibratedRackEstimator,
    cps: usize,
    buf: &'a mut ProbeBuffers,
}

impl<'a> EstimateProbe<'a> {
    pub fn new(est: CalibratedRackEstimator, rack: &Rack, buf: &'a mut ProbeBuffers) -> Self {
        buf.load(rack);
        EstimateProbe {
            est,
            cps: rack.cores_per_server(),
            buf,
        }
    }

    fn refresh_core(&mut self, core: usize, f: NormFreq) {
        let est = &self.est;
        let f = f.0.clamp(0.0, 1.0);
        let u = self.buf.util[core].clamp(0.0, 1.0);
        let shape = est.cubic_fraction * f.powi(3) + (1.0 - est.cubic_fraction) * f;
        self.buf.core[core] = est.cpu_peak_per_core * shape * u;
        self.buf.throughput[core] = f * u;
    }

    fn refresh_server(&mut self, s: usize) {
        let cps = self.cps;
        let mut tp = 0.0;
        for &t in &self.buf.throughput[s * cps..(s + 1) * cps] {
            tp += t;
        }
        // Linear (not concave) non-CPU model: the calibration error.
        self.buf.server[s] = self.est.noncpu_span * (tp / cps as f64);
    }

    /// Resume the running total at server `from` and fold every later
    /// server on top: idle, each core's active term, the non-CPU term.
    fn refold(&mut self, from: usize) -> Watts {
        let cps = self.cps;
        let buf = &mut *self.buf;
        let mut total = buf.prefix[from];
        for s in from..buf.server.len() {
            total += self.est.idle_per_server;
            for &a in &buf.core[s * cps..(s + 1) * cps] {
                total += a;
            }
            total += buf.server[s];
            buf.prefix[s + 1] = total;
        }
        Watts(total)
    }
}

impl PowerProbe for EstimateProbe<'_> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        assert_eq!(freqs.len(), self.buf.util.len(), "one frequency per core");
        for (core, &f) in freqs.iter().enumerate() {
            self.refresh_core(core, f);
        }
        for s in 0..self.buf.server.len() {
            self.refresh_server(s);
        }
        self.refold(0)
    }

    fn set(&mut self, core: usize, f: NormFreq) -> Watts {
        let s = core / self.cps;
        self.refresh_core(core, f);
        self.refresh_server(s);
        self.refold(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::rack::CoreId;
    use powersim::units::Utilization;

    fn rack() -> Rack {
        Rack::new(ServerSpec::paper_default(), 4, 4).expect("valid rack")
    }

    fn est() -> CalibratedRackEstimator {
        CalibratedRackEstimator::from_spec(&ServerSpec::paper_default())
    }

    #[test]
    fn endpoints_match_the_datasheet() {
        let mut rk = rack();
        let n = rk.num_servers() * 8;
        // Idle: exact.
        let idle = est().estimate(&rk, &vec![NormFreq(0.2); n]);
        assert!((idle.0 - 4.0 * 150.0).abs() < 1e-9);
        // Full: exact.
        for id in rk
            .cores_with_role(CoreRole::Interactive)
            .into_iter()
            .chain(rk.cores_with_role(CoreRole::Batch))
        {
            rk.set_util(id, Utilization::FULL);
        }
        let full = est().estimate(&rk, &vec![NormFreq(1.0); n]);
        assert!((full.0 - 4.0 * 300.0).abs() < 1e-9);
    }

    #[test]
    fn underestimates_partial_utilization_at_peak_frequency() {
        // Part of the Fig. 5 mechanism: the plant's non-CPU power is
        // concave in throughput, so at partial utilization the estimate's
        // linear non-CPU term sits below the true plant power. (The other, larger
        // part of SGCT's blind spot — cooling-fan power — is added by the
        // simulation on top of the rack.)
        let mut rk = rack();
        for role in [CoreRole::Interactive, CoreRole::Batch] {
            for id in rk.cores_with_role(role) {
                rk.set_util(id, Utilization(0.3));
            }
        }
        let freqs = vec![NormFreq(1.0); 32];
        let estimate = est().estimate(&rk, &freqs);
        let truth = oracle_power(&rk, &freqs);
        assert!(
            truth.0 > estimate.0 * 1.01,
            "truth={truth} estimate={estimate}"
        );
    }

    #[test]
    fn oracle_matches_the_plant_exactly() {
        let mut rk = rack();
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.9));
        }
        let mut freqs = vec![NormFreq(0.5); 32];
        freqs[7] = NormFreq(0.85);
        let p = oracle_power(&rk, &freqs);
        // Apply the same frequencies for real (continuous scale needed
        // to dodge ladder quantization in the comparison).
        let mut applied = rk.clone();
        applied.set_freq_scale(powersim::cpu::FreqScale::continuous());
        for (idx, &f) in freqs.iter().enumerate() {
            let id = CoreId {
                server: idx / 8,
                core: idx % 8,
            };
            applied.set_freq(id, f);
        }
        assert!((applied.power().0 - p.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_monotone_in_frequency() {
        let mut rk = rack();
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(1.0));
        }
        let lo = est().estimate(&rk, &vec![NormFreq(0.3); 32]);
        let hi = est().estimate(&rk, &vec![NormFreq(0.9); 32]);
        assert!(hi.0 > lo.0);
    }
}
