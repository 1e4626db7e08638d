//! A rack of servers and its power monitor — structure-of-arrays substrate.
//!
//! The rack is the unit SprintCon controls: the paper's evaluation runs
//! 16 servers behind one 3.2 kW circuit breaker with one shared UPS.
//!
//! # Substrate layout
//!
//! Per-core state lives in [`RackState`]: flat `Vec<f64>` slabs (one lane
//! per core) partitioned by role. The interactive block comes first, then
//! the batch block, each server-major:
//!
//! ```text
//! lane:   0 .. nI                    nI .. nI+nB
//!         [srv0 ints][srv1 ints]...  [srv0 batch][srv1 batch]...
//! ```
//!
//! where `nI = num_servers × interactive_per_server` and
//! `nB = num_servers × batch_per_server`. Controllers read and write whole
//! roles through contiguous [`RoleView`]/[`RoleViewMut`] slices; the
//! batched [`Rack::power`] pass walks the slabs with `chunks_exact` (the
//! vectorization idiom of `control::linalg`) instead of dispatching
//! through per-server objects.
//!
//! Bit-compatibility invariant: within one server the old
//! array-of-structs substrate ordered cores interactive-first, so summing
//! each server's interactive lanes then its batch lanes reproduces the
//! exact floating-point summation order of the pre-rework
//! `Server::power`. [`Rack::power_reference`] keeps the scalar per-core
//! loop alive as the executable spec of that ordering; property tests
//! assert the batched pass is bit-identical to it.

use crate::cpu::{CorePowerLaw, CoreRole, FreqScale};
use crate::noise::NoiseSource;
use crate::server::ServerSpec;
use crate::thermal::ThermalModel;
use crate::units::{NormFreq, Seconds, Utilization, Watts};
use std::ops::Range;

/// Addresses one core in the rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId {
    pub server: usize,
    pub core: usize,
}

/// The mutable per-core/per-server state of a rack, as contiguous slabs.
///
/// `freq`/`util` have one lane per core in the role-partitioned order
/// described in the module docs; `power`/`temp_c` have one lane per
/// server. Kept public for zero-cost inspection; mutate through the
/// [`Rack`] API so quantization and role ranges stay consistent.
#[derive(Debug, Clone, PartialEq)]
pub struct RackState {
    /// Normalized per-core frequency, role-partitioned lanes.
    pub freq: Vec<f64>,
    /// Per-core utilization, role-partitioned lanes.
    pub util: Vec<f64>,
    /// Last computed per-server power, W (refreshed by
    /// [`Rack::update_server_powers`]; zero for unpowered servers).
    pub power: Vec<f64>,
    /// Per-server die temperature, °C (stepped by [`Rack::step_thermal`]).
    pub temp_c: Vec<f64>,
}

/// Why [`Rack::new`] rejected a rack shape.
#[derive(Debug, Clone, PartialEq)]
pub enum RackConfigError {
    /// At least one server is required.
    NoServers,
    /// The server spec declares zero cores.
    NoCores,
    /// More interactive cores requested than the server has.
    InteractiveExceedsCores {
        cores_per_server: usize,
        interactive: usize,
    },
}

impl std::fmt::Display for RackConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RackConfigError::NoServers => write!(f, "rack must contain at least one server"),
            RackConfigError::NoCores => write!(f, "server spec must have at least one core"),
            RackConfigError::InteractiveExceedsCores {
                cores_per_server,
                interactive,
            } => write!(
                f,
                "{interactive} interactive cores do not fit on a \
                 {cores_per_server}-core server"
            ),
        }
    }
}

impl std::error::Error for RackConfigError {}

/// Read-only view of one role's lanes: contiguous frequency/utilization
/// slices, server-major (`per_server` lanes per server).
#[derive(Debug, Clone, Copy)]
pub struct RoleView<'a> {
    pub freqs: &'a [f64],
    pub utils: &'a [f64],
    per_server: usize,
}

impl<'a> RoleView<'a> {
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Lanes per server in this role block.
    pub fn per_server(&self) -> usize {
        self.per_server
    }

    /// This server's lane range within the role block.
    pub fn server_range(&self, server: usize) -> Range<usize> {
        server * self.per_server..(server + 1) * self.per_server
    }

    pub fn server_utils(&self, server: usize) -> &'a [f64] {
        &self.utils[self.server_range(server)]
    }

    /// Mean frequency over the role, `None` if the role is empty.
    pub fn mean_freq(&self) -> Option<NormFreq> {
        mean(self.freqs).map(NormFreq)
    }

    /// Mean utilization over the role, `None` if the role is empty.
    pub fn mean_util(&self) -> Option<Utilization> {
        mean(self.utils).map(Utilization)
    }
}

/// Mutable view of one role's lanes. Raw slab access is public (the
/// engine's batched passes write whole servers at a time); `set`/`fill`
/// go through the DVFS ladder like the per-core setters.
#[derive(Debug)]
pub struct RoleViewMut<'a> {
    pub freqs: &'a mut [f64],
    pub utils: &'a mut [f64],
    scale: FreqScale,
    per_server: usize,
}

impl RoleViewMut<'_> {
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    pub fn per_server(&self) -> usize {
        self.per_server
    }

    /// The DVFS ladder frequencies snap to.
    pub fn scale(&self) -> FreqScale {
        self.scale
    }

    /// Quantize `f` onto the ladder without writing it anywhere.
    pub fn quantize(&self, f: NormFreq) -> NormFreq {
        self.scale.quantize(f)
    }

    /// Set one lane's frequency through the DVFS ladder. A non-finite
    /// request holds the lane, as in [`RoleViewMut::set_freqs`].
    pub fn set_freq(&mut self, lane: usize, f: NormFreq) {
        let dst = &mut self.freqs[lane];
        if f.0.is_finite() {
            *dst = self.scale.quantize(f).0;
        }
    }

    /// Pin every lane of the role to `f` (quantized once). A non-finite
    /// request holds every lane, as in [`RoleViewMut::set_freqs`].
    pub fn fill_freq(&mut self, f: NormFreq) {
        if f.0.is_finite() {
            let q = self.scale.quantize(f).0;
            self.freqs.fill(q);
        }
    }

    /// Write one frequency per lane through the DVFS ladder in a single
    /// vectorizable pass. A non-finite request holds that lane's current
    /// frequency (real firmware rejects garbage rather than programming
    /// it); each written lane lands on exactly the value
    /// [`RoleViewMut::set_freq`] would produce.
    #[inline]
    pub fn set_freqs(&mut self, want: &[f64]) {
        assert_eq!(want.len(), self.freqs.len(), "one frequency per lane");
        let scale = self.scale;
        // Non-finite lanes keep their old value via a select rather than
        // a skipped store — the unconditional store lets the loop
        // vectorize.
        if scale.step <= 0.0 {
            for (dst, &f) in self.freqs.iter_mut().zip(want) {
                let c = f.clamp(scale.min.0, scale.max.0);
                *dst = if f.is_finite() { c } else { *dst };
            }
        } else {
            for (dst, &f) in self.freqs.iter_mut().zip(want) {
                let c = f.clamp(scale.min.0, scale.max.0);
                let steps = ((c - scale.min.0) / scale.step).round();
                let q = (scale.min.0 + steps * scale.step).min(scale.max.0);
                *dst = if f.is_finite() { q } else { *dst };
            }
        }
    }

    /// Set one lane's utilization, saturating into `[0, 1]`.
    pub fn set_util(&mut self, lane: usize, u: Utilization) {
        self.utils[lane] = u.saturate().0;
    }
}

/// Reusable buffers for the batched passes ([`Rack::update_server_powers`],
/// [`Rack::set_all_freqs`]). Not semantic state: contents are transient
/// by-products of the last pass, so equality ignores them.
#[derive(Debug, Clone, Default)]
struct Scratch {
    at: Vec<f64>,
    tt: Vec<f64>,
    act: Vec<f64>,
    tpv: Vec<f64>,
    /// One role block's share of a rack-order frequency command.
    want: Vec<f64>,
}

impl PartialEq for Scratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A rack of identical servers, stored as SoA slabs.
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    spec: ServerSpec,
    num_servers: usize,
    interactive_per_server: usize,
    thermal: ThermalModel,
    state: RackState,
    scratch: Scratch,
}

impl Rack {
    /// `num_servers` identical `spec` servers whose first
    /// `interactive_cores_per_server` cores are interactive, every core
    /// idle at peak frequency. [`crate::plant::PlantSpec::rack`] builds a
    /// plant's rack.
    pub fn new(
        spec: ServerSpec,
        num_servers: usize,
        interactive_cores_per_server: usize,
    ) -> Result<Self, RackConfigError> {
        if num_servers == 0 {
            return Err(RackConfigError::NoServers);
        }
        if spec.num_cores == 0 {
            return Err(RackConfigError::NoCores);
        }
        if interactive_cores_per_server > spec.num_cores {
            return Err(RackConfigError::InteractiveExceedsCores {
                cores_per_server: spec.num_cores,
                interactive: interactive_cores_per_server,
            });
        }
        let thermal = ThermalModel::server_class();
        let lanes = num_servers * spec.num_cores;
        let state = RackState {
            freq: vec![NormFreq::PEAK.0; lanes],
            util: vec![Utilization::IDLE.0; lanes],
            power: vec![spec.idle_watts; num_servers],
            temp_c: vec![thermal.ambient_c; num_servers],
        };
        Ok(Rack {
            spec,
            num_servers,
            interactive_per_server: interactive_cores_per_server,
            thermal,
            state,
            scratch: Scratch::default(),
        })
    }

    // -- geometry ------------------------------------------------------

    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The shared server description (rack is homogeneous).
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    pub fn cores_per_server(&self) -> usize {
        self.spec.num_cores
    }

    pub fn interactive_cores_per_server(&self) -> usize {
        self.interactive_per_server
    }

    pub fn batch_cores_per_server(&self) -> usize {
        self.spec.num_cores - self.interactive_per_server
    }

    pub fn num_cores(&self) -> usize {
        self.num_servers * self.spec.num_cores
    }

    /// The raw SoA state.
    pub fn state(&self) -> &RackState {
        &self.state
    }

    fn per_server(&self, role: CoreRole) -> usize {
        match role {
            CoreRole::Interactive => self.interactive_per_server,
            CoreRole::Batch => self.batch_cores_per_server(),
        }
    }

    /// Lane range of `role`'s block in the `freq`/`util` slabs.
    pub fn role_range(&self, role: CoreRole) -> Range<usize> {
        let ni = self.num_servers * self.interactive_per_server;
        match role {
            CoreRole::Interactive => 0..ni,
            CoreRole::Batch => ni..self.num_cores(),
        }
    }

    /// Role of a core (cores `0..interactive_per_server` are interactive).
    pub fn role_of(&self, id: CoreId) -> CoreRole {
        if id.core < self.interactive_per_server {
            CoreRole::Interactive
        } else {
            CoreRole::Batch
        }
    }

    /// SoA lane of a core.
    pub fn lane(&self, id: CoreId) -> usize {
        debug_assert!(id.server < self.num_servers && id.core < self.spec.num_cores);
        let ipc = self.interactive_per_server;
        if id.core < ipc {
            id.server * ipc + id.core
        } else {
            self.num_servers * ipc + id.server * self.batch_cores_per_server() + (id.core - ipc)
        }
    }

    /// All cores of a role across the rack, in deterministic (server-major)
    /// order. Allocates; hot paths should use [`Rack::role`] instead.
    pub fn cores_with_role(&self, role: CoreRole) -> Vec<CoreId> {
        let per = self.per_server(role);
        let base = match role {
            CoreRole::Interactive => 0,
            CoreRole::Batch => self.interactive_per_server,
        };
        let mut out = Vec::with_capacity(self.num_servers * per);
        for s in 0..self.num_servers {
            for c in 0..per {
                out.push(CoreId {
                    server: s,
                    core: base + c,
                });
            }
        }
        out
    }

    pub fn count_role(&self, role: CoreRole) -> usize {
        self.num_servers * self.per_server(role)
    }

    // -- per-core accessors (lane math; hot paths use the views) -------

    /// Set one core's frequency through the DVFS ladder. A non-finite
    /// request holds the core's current frequency, as every other DVFS
    /// setter does (real firmware rejects garbage rather than
    /// programming it).
    pub fn set_freq(&mut self, id: CoreId, f: NormFreq) {
        let lane = self.lane(id);
        if f.0.is_finite() {
            self.state.freq[lane] = self.spec.freq_scale.quantize(f).0;
        }
    }

    /// Set every core's frequency from one command in rack order
    /// (server-major, core order within a server), through the DVFS
    /// ladder: each role block's share is gathered once and written by
    /// one vectorized [`RoleViewMut::set_freqs`] pass. Every lane lands on
    /// the bits [`Rack::set_freq`] would write, a non-finite request
    /// included (it holds the lane).
    pub fn set_all_freqs(&mut self, freqs: &[NormFreq]) {
        assert_eq!(freqs.len(), self.num_cores(), "one frequency per core");
        let (cps, ipc) = (self.spec.num_cores, self.interactive_per_server);
        let mut want = std::mem::take(&mut self.scratch.want);
        for (role, cols) in [(CoreRole::Interactive, 0..ipc), (CoreRole::Batch, ipc..cps)] {
            want.clear();
            for row in freqs.chunks_exact(cps) {
                want.extend(row[cols.clone()].iter().map(|f| f.0));
            }
            self.role_mut(role).set_freqs(&want);
        }
        self.scratch.want = want;
    }

    /// Write a frequency lane without the DVFS ladder snap — ideal
    /// actuation, used by the oracle baselines and tests.
    pub fn set_freq_unquantized(&mut self, id: CoreId, f: NormFreq) {
        let lane = self.lane(id);
        self.state.freq[lane] = f.0;
    }

    pub fn set_util(&mut self, id: CoreId, u: Utilization) {
        let lane = self.lane(id);
        self.state.util[lane] = u.saturate().0;
    }

    pub fn freq(&self, id: CoreId) -> NormFreq {
        NormFreq(self.state.freq[self.lane(id)])
    }

    pub fn util(&self, id: CoreId) -> Utilization {
        Utilization(self.state.util[self.lane(id)])
    }

    /// Replace the DVFS ladder rack-wide (e.g. `FreqScale::continuous()`
    /// for ideal-actuation probes).
    pub fn set_freq_scale(&mut self, scale: FreqScale) {
        self.spec.freq_scale = scale;
    }

    // -- role views ----------------------------------------------------

    /// Contiguous read view of one role's lanes.
    #[inline]
    pub fn role(&self, role: CoreRole) -> RoleView<'_> {
        let r = self.role_range(role);
        RoleView {
            freqs: &self.state.freq[r.clone()],
            utils: &self.state.util[r],
            per_server: self.per_server(role),
        }
    }

    /// Contiguous write view of one role's lanes.
    #[inline]
    pub fn role_mut(&mut self, role: CoreRole) -> RoleViewMut<'_> {
        let r = self.role_range(role);
        let per_server = self.per_server(role);
        RoleViewMut {
            freqs: &mut self.state.freq[r.clone()],
            utils: &mut self.state.util[r],
            scale: self.spec.freq_scale,
            per_server,
        }
    }

    /// Pin every core of `role` to frequency `f` rack-wide.
    #[inline]
    pub fn set_role_freq(&mut self, role: CoreRole, f: NormFreq) {
        self.role_mut(role).fill_freq(f);
    }

    /// Rack-wide mean utilization over cores of `role`.
    pub fn mean_role_util(&self, role: CoreRole) -> Option<Utilization> {
        self.role(role).mean_util()
    }

    /// Per-server mean utilization of interactive cores — the `U` vector
    /// of Eq. (5) — written into `out` (cleared first; no per-call
    /// allocation once `out` has capacity).
    #[inline]
    pub fn interactive_utils_into(&self, out: &mut Vec<Utilization>) {
        let ipc = self.interactive_per_server;
        if ipc == 0 {
            out.clear();
            out.resize(self.num_servers, Utilization::IDLE);
            return;
        }
        // Every slot is overwritten below, so stale contents of a reused
        // buffer never leak and the resize's default-fill memset is
        // skipped on the steady-state (len already correct) path.
        out.resize(self.num_servers, Utilization::IDLE);
        let v = self.role(CoreRole::Interactive);
        // Same per-server summation order as the pre-rework
        // `Server::mean_util`. When the row width is a power of two its
        // reciprocal is exact, so the multiply returns bit-identical
        // quotients while pipelining better than the divide.
        if ipc.is_power_of_two() {
            let inv = 1.0 / ipc as f64;
            for (dst, server) in out.iter_mut().zip(v.utils.chunks_exact(ipc)) {
                let sum: f64 = server.iter().sum();
                *dst = Utilization(sum * inv);
            }
        } else {
            for (dst, server) in out.iter_mut().zip(v.utils.chunks_exact(ipc)) {
                let sum: f64 = server.iter().sum();
                *dst = Utilization(sum / ipc as f64);
            }
        }
    }

    /// Per-server mean interactive frequency (the `f_i` driving the
    /// interactive tier), `NormFreq::PEAK` where a server has no
    /// interactive cores. Written into `out` (cleared first).
    #[inline]
    pub fn interactive_freqs_into(&self, out: &mut Vec<NormFreq>) {
        let ipc = self.interactive_per_server;
        if ipc == 0 {
            out.clear();
            out.resize(self.num_servers, NormFreq::PEAK);
            return;
        }
        // Every slot is overwritten below (see `interactive_utils_into`).
        out.resize(self.num_servers, NormFreq::PEAK);
        let v = self.role(CoreRole::Interactive);
        // Power-of-two row widths take the exact-reciprocal multiply
        // (bit-identical to the divide, see `interactive_utils_into`).
        if ipc.is_power_of_two() {
            let inv = 1.0 / ipc as f64;
            for (dst, server) in out.iter_mut().zip(v.freqs.chunks_exact(ipc)) {
                let sum: f64 = server.iter().sum();
                *dst = NormFreq(sum * inv);
            }
        } else {
            for (dst, server) in out.iter_mut().zip(v.freqs.chunks_exact(ipc)) {
                let sum: f64 = server.iter().sum();
                *dst = NormFreq(sum / ipc as f64);
            }
        }
    }

    // -- batched power pass --------------------------------------------

    /// True (plant-model) total power of the rack, before fan/noise.
    ///
    /// One batched pass over the SoA slabs: walks both role blocks in
    /// per-server rows, preserving the exact per-server
    /// interactive-then-batch FP summation order of the AoS substrate,
    /// so it is bit-identical to the scalar per-core reference
    /// ([`Rack::power_reference`]).
    pub fn power(&self) -> Watts {
        let ipc = self.interactive_per_server;
        let bpc = self.batch_cores_per_server();
        let ni = self.num_servers * ipc;
        let (fi, fb) = self.state.freq.split_at(ni);
        let (ui, ub) = self.state.util.split_at(ni);
        let mut total = 0.0;
        for s in 0..self.num_servers {
            let (rfi, rui) = (&fi[s * ipc..(s + 1) * ipc], &ui[s * ipc..(s + 1) * ipc]);
            let (rfb, rub) = (&fb[s * bpc..(s + 1) * bpc], &ub[s * bpc..(s + 1) * bpc]);
            total += server_power(&self.spec, [(rfi, rui), (rfb, rub)]);
        }
        Watts(total)
    }

    /// Batched power pass that also refreshes the per-server `power`
    /// slab (zero for unpowered servers). Returns the rack total.
    ///
    /// This is the engine's per-tick path. It runs in three passes over
    /// persistent scratch buffers:
    ///   A. per-lane active-power and throughput terms over the
    ///      contiguous role blocks — branch-free, no cross-lane
    ///      dependency, so LLVM vectorizes it;
    ///   B. per-server folds of those terms, strictly in lane order
    ///      (interactive row then batch row) — pure adds with no calls,
    ///      so the chains of different servers overlap in the
    ///      out-of-order core;
    ///   C. the `powf`-bearing non-CPU term and the rack total,
    ///      strictly in server order.
    /// Every term performs the identical operations of
    /// `CorePowerLaw::active_power`, and every sum folds in the
    /// identical order as the pre-rework per-server walk — the
    /// bit-identity contract behind the committed golden digests (FP
    /// addition is never reassociated). Property tests pin this path,
    /// [`Rack::power`], and [`Rack::power_reference`] to the same bits.
    #[inline]
    pub fn update_server_powers(&mut self, powered: Option<&[bool]>) -> Watts {
        let ipc = self.interactive_per_server;
        let bpc = self.batch_cores_per_server();
        let ni = self.num_servers * ipc;
        let law = self.spec.core_law;
        let cores = self.spec.num_cores as f64;
        let scr = &mut self.scratch;
        let nlanes = self.state.freq.len();
        scr.at.resize(nlanes, 0.0);
        scr.tt.resize(nlanes, 0.0);
        // Pass A: one sweep over the full lane slab (both role blocks are
        // contiguous in it).
        for ((a, t), (&f, &u)) in scr
            .at
            .iter_mut()
            .zip(scr.tt.iter_mut())
            .zip(self.state.freq.iter().zip(&self.state.util))
        {
            (*a, *t) = lane_power(&law, f, u);
        }
        // Pass B, as two role sweeps over the per-server slots: the
        // first sweep folds each interactive row in registers and
        // stores, the second resumes each chain from the stored value
        // and folds the batch row on top. The resulting per-server sum
        // is the single interactive-then-batch serial chain of the
        // per-server walk, while `chunks_exact` keeps the inner loops
        // free of bounds checks and degenerate role sizes (ipc or bpc
        // of 0) simply skip a sweep.
        scr.act.resize(self.num_servers, 0.0);
        scr.tpv.resize(self.num_servers, 0.0);
        if ipc == 0 || bpc == 0 {
            scr.act.fill(0.0);
            scr.tpv.fill(0.0);
        }
        let (ai, ab) = scr.at.split_at(ni);
        let (ti, tb) = scr.tt.split_at(ni);
        if ipc > 0 {
            for ((act, tpv), (ra, rt)) in scr
                .act
                .iter_mut()
                .zip(scr.tpv.iter_mut())
                .zip(ai.chunks_exact(ipc).zip(ti.chunks_exact(ipc)))
            {
                let (mut a0, mut t0) = (0.0, 0.0);
                for (&a, &t) in ra.iter().zip(rt) {
                    a0 += a;
                    t0 += t;
                }
                *act = a0;
                *tpv = t0;
            }
        }
        if bpc > 0 {
            for ((act, tpv), (ra, rt)) in scr
                .act
                .iter_mut()
                .zip(scr.tpv.iter_mut())
                .zip(ab.chunks_exact(bpc).zip(tb.chunks_exact(bpc)))
            {
                let (mut a0, mut t0) = (*act, *tpv);
                for (&a, &t) in ra.iter().zip(rt) {
                    a0 += a;
                    t0 += t;
                }
                *act = a0;
                *tpv = t0;
            }
        }
        // Pass C. The powered mask is matched once outside the loop and
        // zipped in, so the hot loop carries no per-server Option
        // dispatch or bounds checks.
        let slab = &mut self.state.power;
        slab.resize(self.num_servers, 0.0);
        let spec = &self.spec;
        let mut total = 0.0;
        match powered {
            Some(pw) => {
                assert_eq!(pw.len(), self.num_servers, "one powered flag per server");
                for ((slot, (&a, &t)), &on) in
                    slab.iter_mut().zip(scr.act.iter().zip(&scr.tpv)).zip(pw)
                {
                    if !on {
                        *slot = 0.0;
                        continue;
                    }
                    let p = spec.idle_watts + a + spec.noncpu_power(t / cores);
                    *slot = p;
                    total += p;
                }
            }
            None => {
                for (slot, (&a, &t)) in slab.iter_mut().zip(scr.act.iter().zip(&scr.tpv)) {
                    let p = spec.idle_watts + a + spec.noncpu_power(t / cores);
                    *slot = p;
                    total += p;
                }
            }
        }
        Watts(total)
    }

    /// Last computed per-server powers, W (see
    /// [`Rack::update_server_powers`]).
    pub fn server_powers(&self) -> &[f64] {
        &self.state.power
    }

    /// Scalar per-core reference power — the executable spec of the
    /// pre-rework AoS summation order. Property tests assert
    /// [`Rack::power`] is bit-identical to this; it is not a hot path.
    pub fn power_reference(&self) -> Watts {
        self.power_reference_masked(&vec![true; self.num_servers])
    }

    /// [`Rack::power_reference`] with unpowered servers skipped — the
    /// scalar mirror of [`Rack::update_server_powers`] under a mask.
    pub fn power_reference_masked(&self, powered: &[bool]) -> Watts {
        let mut total = Watts::ZERO;
        for (s, &on) in powered.iter().enumerate().take(self.num_servers) {
            if !on {
                continue;
            }
            let mut active = 0.0;
            for c in 0..self.spec.num_cores {
                let id = CoreId { server: s, core: c };
                active += self
                    .spec
                    .core_law
                    .active_power(self.freq(id), self.util(id));
            }
            let mut tp = 0.0;
            for c in 0..self.spec.num_cores {
                let id = CoreId { server: s, core: c };
                tp += self.freq(id).0 * self.util(id).0;
            }
            let mean_tp = tp / self.spec.num_cores as f64;
            total += Watts(self.spec.idle_watts + active + self.spec.noncpu_power(mean_tp));
        }
        total
    }

    /// Maximum possible rack power (all cores peak, fully utilized).
    pub fn max_power(&self) -> Watts {
        let mut probe = self.clone();
        probe.state.freq.fill(NormFreq::PEAK.0);
        probe.state.util.fill(Utilization::FULL.0);
        probe.power()
    }

    /// Minimum rack power (all idle).
    pub fn idle_power(&self) -> Watts {
        // Fold rather than multiply: bit-identical to the pre-rework
        // per-server summation.
        let mut total = 0.0;
        for _ in 0..self.num_servers {
            total += self.spec.idle_watts;
        }
        Watts(total)
    }

    // -- thermal slab --------------------------------------------------

    /// The per-server processor thermal model (shared parameters; state
    /// lives in the `temp_c` slab).
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Advance every server's die temperature by `dt` at the last
    /// computed per-server power (exact exponential integration of the
    /// lumped RC dynamics — stable for any `dt`).
    #[inline]
    pub fn step_thermal(&mut self, dt: Seconds) {
        let a = (-dt.0 / self.thermal.tau().0).exp();
        let r = self.thermal.resistance;
        let amb = self.thermal.ambient_c;
        for (t, &p) in self.state.temp_c.iter_mut().zip(&self.state.power) {
            let target = amb + r * p;
            *t = target + (*t - target) * a;
        }
    }

    /// Hottest die in the rack, °C.
    pub fn max_die_temp(&self) -> f64 {
        self.state
            .temp_c
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Plant power of one server, W, from its `(freqs, utils)` rows in core
/// order: the interactive row, then the batch row.
///
/// Each lane's active power and throughput (`lane_power`) fold over both
/// rows strictly in lane order, then the idle floor, the active sum and
/// the non-CPU term are added. This is the single implementation of the
/// per-server law behind [`Rack::power`]; callers that evaluate
/// candidate frequencies one server at a time (the oracle baselines) use
/// it directly.
#[inline]
pub fn server_power(spec: &ServerSpec, rows: [(&[f64], &[f64]); 2]) -> f64 {
    let mut active = 0.0;
    let mut tp = 0.0;
    for (rf, ru) in rows {
        for (&f, &u) in rf.iter().zip(ru) {
            let (a, t) = lane_power(&spec.core_law, f, u);
            active += a;
            tp += t;
        }
    }
    let mean_tp = tp / spec.num_cores as f64;
    spec.idle_watts + active + spec.noncpu_power(mean_tp)
}

/// One lane's plant terms: its active CPU power, W, and its throughput
/// `f·u` (raw `f` and `u`), shared by [`server_power`] and
/// [`Rack::update_server_powers`].
///
/// The active term performs the identical operations, in the identical
/// order, as `CorePowerLaw::active_power` — the bit-identity contract
/// behind the committed golden digests. `fh * fh * fh` is the exact
/// expansion `powi(3)` lowers to, written out so the batched pass
/// vectorizes (the `powi` intrinsic defeats the auto-vectorizer).
#[inline]
fn lane_power(law: &CorePowerLaw, f: f64, u: f64) -> (f64, f64) {
    let fh = f.clamp(0.0, 1.0);
    let shape = law.cubic_fraction * (fh * fh * fh) + (1.0 - law.cubic_fraction) * fh;
    (law.peak_active_watts * shape * u.clamp(0.0, 1.0), f * u)
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Power monitor with multiplicative + additive measurement noise.
///
/// §V-A argues that un-modellable factors (fans, sensor error) are exactly
/// why feedback control is needed; the monitor is where that error enters
/// the loop.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    noise: NoiseSource,
    /// Standard deviation of multiplicative error (e.g. 0.01 ≙ 1%).
    pub rel_sigma: f64,
    /// Standard deviation of additive error in watts.
    pub abs_sigma: f64,
}

impl PowerMonitor {
    pub fn new(seed: u64, rel_sigma: f64, abs_sigma: f64) -> Self {
        PowerMonitor {
            noise: NoiseSource::new(seed),
            rel_sigma,
            abs_sigma,
        }
    }

    /// An ideal monitor (tests, idealized baselines).
    pub fn ideal() -> Self {
        Self::new(0, 0.0, 0.0)
    }

    /// Sample a measurement of the true power.
    pub fn measure(&mut self, truth: Watts) -> Watts {
        let rel = 1.0 + self.noise.gaussian() * self.rel_sigma;
        let abs = self.noise.gaussian() * self.abs_sigma;
        Watts((truth.0 * rel + abs).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_rack() -> Rack {
        Rack::new(ServerSpec::paper_default(), 16, 4).expect("paper rack is valid")
    }

    #[test]
    fn paper_rack_power_envelope() {
        let rack = paper_rack();
        // 16 × 150 W idle = 2.4 kW; 16 × 300 W full = 4.8 kW (§VI-A).
        assert!((rack.idle_power().0 - 2400.0).abs() < 1e-9);
        assert!((rack.max_power().0 - 4800.0).abs() < 1e-6);
        // Fresh rack is idle.
        assert!((rack.power().0 - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn role_census() {
        let rack = paper_rack();
        assert_eq!(rack.count_role(CoreRole::Interactive), 64);
        assert_eq!(rack.count_role(CoreRole::Batch), 64);
        assert_eq!(rack.cores_with_role(CoreRole::Batch).len(), 64);
        assert_eq!(rack.role(CoreRole::Batch).len(), 64);
        assert_eq!(rack.role_range(CoreRole::Interactive), 0..64);
        assert_eq!(rack.role_range(CoreRole::Batch), 64..128);
    }

    #[test]
    fn lane_mapping_round_trips() {
        let rack = paper_rack();
        let mut seen = vec![false; rack.num_cores()];
        for s in 0..16 {
            for c in 0..8 {
                let id = CoreId { server: s, core: c };
                let lane = rack.lane(id);
                assert!(!seen[lane], "lane {lane} mapped twice");
                seen[lane] = true;
                let role = rack.role_of(id);
                let range = rack.role_range(role);
                assert!(range.contains(&lane));
            }
        }
        assert!(seen.iter().all(|&s| s), "every lane addressed");
    }

    #[test]
    fn core_addressing_round_trip() {
        let mut rack = paper_rack();
        let id = CoreId { server: 7, core: 5 };
        rack.set_freq(id, NormFreq(0.5));
        rack.set_util(id, Utilization(0.7));
        assert!((rack.freq(id).0 - 0.5).abs() < 1e-12);
        assert!((rack.util(id).0 - 0.7).abs() < 1e-12);
        // Saturation on write.
        rack.set_util(id, Utilization(1.4));
        assert_eq!(rack.util(id), Utilization::FULL);
        // Quantization on write, bypassed by the raw setter.
        rack.set_freq(id, NormFreq(0.63));
        assert!((rack.freq(id).0 - 0.65).abs() < 1e-12);
        rack.set_freq_unquantized(id, NormFreq(0.63));
        assert!((rack.freq(id).0 - 0.63).abs() < 1e-12);
    }

    #[test]
    fn rack_means() {
        let mut rack = paper_rack();
        rack.set_role_freq(CoreRole::Batch, NormFreq(0.4));
        assert!((rack.role(CoreRole::Batch).mean_freq().unwrap().0 - 0.4).abs() < 1e-12);
        for id in rack.cores_with_role(CoreRole::Interactive) {
            rack.set_util(id, Utilization(0.55));
        }
        assert!((rack.mean_role_util(CoreRole::Interactive).unwrap().0 - 0.55).abs() < 1e-12);
        let mut v = Vec::new();
        rack.interactive_utils_into(&mut v);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|u| (u.0 - 0.55).abs() < 1e-12));
    }

    #[test]
    fn role_views_expose_contiguous_slices() {
        let mut rack = paper_rack();
        rack.set_role_freq(CoreRole::Batch, NormFreq(0.4));
        let bv = rack.role(CoreRole::Batch);
        assert_eq!(bv.per_server(), 4);
        assert!(bv.freqs.iter().all(|&f| (f - 0.4).abs() < 1e-12));
        assert_eq!(bv.freqs[bv.server_range(3)].len(), 4);
        // Mutable view writes land in the right lanes.
        {
            let mut iv = rack.role_mut(CoreRole::Interactive);
            iv.set_freq(5, NormFreq(0.52)); // snaps to 0.50
            iv.set_util(5, Utilization(0.9));
        }
        let id = CoreId { server: 1, core: 1 }; // lane 5 = 1*4 + 1
        assert!((rack.freq(id).0 - 0.50).abs() < 1e-12);
        assert!((rack.util(id).0 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn dvfs_setters_hold_lanes_on_non_finite_requests() {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rack = paper_rack();
        rack.set_role_freq(CoreRole::Batch, NormFreq(0.4));
        let id = rack.cores_with_role(CoreRole::Batch)[3];
        for f in bad {
            rack.set_freq(id, NormFreq(f));
            rack.set_role_freq(CoreRole::Batch, NormFreq(f));
            let mut bv = rack.role_mut(CoreRole::Batch);
            bv.set_freq(0, NormFreq(f));
            bv.fill_freq(NormFreq(f));
            let n = bv.len();
            bv.set_freqs(&vec![f; n]);
            let held = rack.role(CoreRole::Batch).freqs.iter().all(|&v| v == 0.4);
            assert!(held, "a request of {f} moved a batch lane");
        }
        // Finite requests still snap through the ladder.
        rack.set_freq(id, NormFreq(0.93));
        assert_eq!(rack.freq(id), NormFreq(0.95));
    }

    #[test]
    fn batched_power_is_bit_identical_to_the_scalar_reference() {
        let mut rack = paper_rack();
        // Asymmetric state so any ordering mistake shows up.
        for s in 0..16 {
            for c in 0..8 {
                let id = CoreId { server: s, core: c };
                rack.set_freq_unquantized(id, NormFreq(0.2 + 0.017 * ((s * 8 + c) % 47) as f64));
                rack.set_util(id, Utilization(0.013 * ((s * 5 + c * 3) % 77) as f64));
            }
        }
        let batched = rack.power();
        let reference = rack.power_reference();
        assert_eq!(batched.0.to_bits(), reference.0.to_bits());
    }

    #[test]
    fn masked_power_skips_servers_and_updates_the_slab() {
        let mut rack = paper_rack();
        rack.set_role_freq(CoreRole::Batch, NormFreq(1.0));
        for id in rack.cores_with_role(CoreRole::Batch) {
            rack.set_util(id, Utilization(1.0));
        }
        let full = rack.power();
        let mut powered = vec![true; 16];
        powered[3] = false;
        powered[9] = false;
        let masked = rack.update_server_powers(Some(&powered));
        assert!(masked.0 < full.0);
        assert_eq!(rack.server_powers()[3], 0.0);
        assert!(rack.server_powers()[0] > 150.0);
        // Slab total matches the returned total.
        let slab_sum: f64 = rack.server_powers().iter().sum();
        assert!((slab_sum - masked.0).abs() < 1e-9);
    }

    #[test]
    fn new_rejects_impossible_rack_shapes() {
        let paper = ServerSpec::paper_default;
        assert_eq!(
            Rack::new(paper(), 0, 4).unwrap_err(),
            RackConfigError::NoServers
        );
        let err = Rack::new(paper(), 16, 9).unwrap_err();
        assert!(matches!(
            err,
            RackConfigError::InteractiveExceedsCores { .. }
        ));
        assert!(err.to_string().contains("9 interactive cores"));
        let mut spec = paper();
        spec.num_cores = 0;
        assert_eq!(
            Rack::new(spec, 16, 0).unwrap_err(),
            RackConfigError::NoCores
        );
    }

    #[test]
    fn write_into_reuses_the_buffer_without_stale_tails() {
        let c = paper_rack();
        let mut v = vec![Utilization(0.123); 64];
        c.interactive_utils_into(&mut v);
        assert_eq!(v.len(), c.num_servers());
        // Reference semantics: per-server mean over the interactive row.
        let ipc = c.interactive_cores_per_server();
        for (s, got) in v.iter().enumerate() {
            let mean: f64 = (0..ipc)
                .map(|core| c.util(CoreId { server: s, core }).0)
                .sum::<f64>()
                / ipc as f64;
            assert_eq!(got.0.to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn thermal_slab_tracks_power() {
        let mut rack = paper_rack();
        assert_eq!(rack.max_die_temp(), rack.thermal().ambient_c);
        rack.state.freq.fill(1.0);
        rack.state.util.fill(1.0);
        rack.update_server_powers(None);
        for _ in 0..600 {
            rack.step_thermal(Seconds(1.0));
        }
        // 300 W through 0.45 °C/W ≈ 135 °C above 25 °C ambient at
        // steady state; after 600 s (τ = 27 s) we are essentially there.
        let t = rack.max_die_temp();
        assert!((t - (25.0 + 0.45 * 300.0)).abs() < 1.0, "t={t}");
        assert!(rack.state.temp_c.iter().all(|&x| (x - t).abs() < 1e-9));
    }

    #[test]
    fn ideal_monitor_is_exact() {
        let mut m = PowerMonitor::ideal();
        assert_eq!(m.measure(Watts(1234.5)), Watts(1234.5));
    }

    #[test]
    fn noisy_monitor_statistics() {
        let mut m = PowerMonitor::new(42, 0.01, 5.0);
        let truth = Watts(3000.0);
        let n = 4000;
        let samples: Vec<f64> = (0..n).map(|_| m.measure(truth).0).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Unbiased within half a percent.
        assert!((mean - truth.0).abs() < truth.0 * 0.005, "mean={mean}");
        // And actually noisy.
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(var.sqrt() > 5.0);
    }

    #[test]
    fn monitor_never_reports_negative() {
        let mut m = PowerMonitor::new(7, 2.0, 100.0); // absurd noise
        for _ in 0..1000 {
            assert!(m.measure(Watts(10.0)).0 >= 0.0);
        }
    }
}
