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
use powersim::rack::{server_power, Rack, RoleView};
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
/// moves one core, re-evaluates only that core's server, and refolds the
/// rack total in the whole-vector association order. Both models are
/// separable per server, so `set(i, f)` returns exactly the bits `reset`
/// would for the updated vector. `set` requires a prior `reset`.
pub trait PowerProbe {
    /// Make `freqs` (one per core, rack order) the candidate; its power.
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts;
    /// Move core `core` (rack order) to `f`; the candidate's new power.
    fn set(&mut self, core: usize, f: NormFreq) -> Watts;
}

/// Storage the probes evaluate in. Callers that probe a rack every
/// control period keep one so a warm probe allocates nothing; `reset`
/// overwrites whatever a previous probe left.
#[derive(Debug, Clone, Default)]
pub struct ProbeBuffers {
    /// Per core, rack order: the oracle's clamped frequency, the
    /// estimate's active CPU term.
    core: Vec<f64>,
    /// Per core, rack order: the estimate's `f·u` throughput term.
    throughput: Vec<f64>,
    /// Per server: the oracle's plant power, the estimate's non-CPU term.
    server: Vec<f64>,
    /// The estimate's running total before each server (`n + 1` slots).
    prefix: Vec<f64>,
}

/// Rack geometry and utilization rows the probes read.
#[derive(Debug, Clone, Copy)]
struct Rows<'a> {
    servers: usize,
    cps: usize,
    ipc: usize,
    iv: RoleView<'a>,
    bv: RoleView<'a>,
}

impl<'a> Rows<'a> {
    fn of(rack: &'a Rack) -> Self {
        Rows {
            servers: rack.num_servers(),
            cps: rack.cores_per_server(),
            ipc: rack.interactive_cores_per_server(),
            iv: rack.role(CoreRole::Interactive),
            bv: rack.role(CoreRole::Batch),
        }
    }

    /// Server `s`'s interactive and batch utilization rows.
    fn server(&self, s: usize) -> (&'a [f64], &'a [f64]) {
        (self.iv.server_utils(s), self.bv.server_utils(s))
    }

    /// Utilization of core `core` (rack order).
    fn util(&self, core: usize) -> f64 {
        let (s, k) = (core / self.cps, core % self.cps);
        if k < self.ipc {
            self.iv.server_utils(s)[k]
        } else {
            self.bv.server_utils(s)[k - self.ipc]
        }
    }
}

/// [`PowerProbe`] over the exact plant ([`oracle_power`]): caches each
/// server's power and recomputes only the touched server through
/// [`powersim::rack::server_power`], then refolds the server powers from
/// `0.0` in server order — the association [`Rack::power`] uses.
#[derive(Debug)]
pub struct OracleProbe<'a> {
    spec: &'a ServerSpec,
    rows: Rows<'a>,
    buf: &'a mut ProbeBuffers,
}

impl<'a> OracleProbe<'a> {
    pub fn new(rack: &'a Rack, buf: &'a mut ProbeBuffers) -> Self {
        OracleProbe {
            spec: rack.spec(),
            rows: Rows::of(rack),
            buf,
        }
    }

    fn refresh_server(&mut self, s: usize) {
        let (cps, ipc) = (self.rows.cps, self.rows.ipc);
        let (fi, fb) = self.buf.core[s * cps..(s + 1) * cps].split_at(ipc);
        let (ui, ub) = self.rows.server(s);
        self.buf.server[s] = server_power(self.spec, [(fi, ui), (fb, ub)]);
    }

    fn total(&self) -> Watts {
        let mut total = 0.0;
        for &p in &self.buf.server {
            total += p;
        }
        Watts(total)
    }
}

impl PowerProbe for OracleProbe<'_> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        let rows = self.rows;
        assert_eq!(
            freqs.len(),
            rows.servers * rows.cps,
            "one frequency per core"
        );
        // Ideal actuation: continuous frequencies, no ladder snap.
        self.buf.core.clear();
        self.buf
            .core
            .extend(freqs.iter().map(|f| f.0.clamp(0.0, 1.0)));
        self.buf.server.resize(rows.servers, 0.0);
        for s in 0..rows.servers {
            self.refresh_server(s);
        }
        self.total()
    }

    fn set(&mut self, core: usize, f: NormFreq) -> Watts {
        self.buf.core[core] = f.0.clamp(0.0, 1.0);
        self.refresh_server(core / self.rows.cps);
        self.total()
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
    rows: Rows<'a>,
    buf: &'a mut ProbeBuffers,
}

impl<'a> EstimateProbe<'a> {
    pub fn new(est: CalibratedRackEstimator, rack: &'a Rack, buf: &'a mut ProbeBuffers) -> Self {
        EstimateProbe {
            est,
            rows: Rows::of(rack),
            buf,
        }
    }

    fn refresh_core(&mut self, core: usize, f: NormFreq) {
        let est = &self.est;
        let f = f.0.clamp(0.0, 1.0);
        let u = self.rows.util(core).clamp(0.0, 1.0);
        let shape = est.cubic_fraction * f.powi(3) + (1.0 - est.cubic_fraction) * f;
        self.buf.core[core] = est.cpu_peak_per_core * shape * u;
        self.buf.throughput[core] = f * u;
    }

    fn refresh_server(&mut self, s: usize) {
        let cps = self.rows.cps;
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
        let cps = self.rows.cps;
        let buf = &mut *self.buf;
        let mut total = buf.prefix[from];
        for s in from..self.rows.servers {
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
        let rows = self.rows;
        let n = rows.servers * rows.cps;
        assert_eq!(freqs.len(), n, "one frequency per core");
        self.buf.core.resize(n, 0.0);
        self.buf.throughput.resize(n, 0.0);
        self.buf.server.resize(rows.servers, 0.0);
        self.buf.prefix.resize(rows.servers + 1, 0.0);
        self.buf.prefix[0] = 0.0;
        for (core, &f) in freqs.iter().enumerate() {
            self.refresh_core(core, f);
        }
        for s in 0..rows.servers {
            self.refresh_server(s);
        }
        self.refold(0)
    }

    fn set(&mut self, core: usize, f: NormFreq) -> Watts {
        let s = core / self.rows.cps;
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
        Rack::builder()
            .server(ServerSpec::paper_default())
            .num_servers(4)
            .interactive_cores_per_server(4)
            .build()
            .expect("valid rack")
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
