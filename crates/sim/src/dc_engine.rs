//! The datacenter engine: one SprintCon stack per rack under a shared
//! feeder → PDU → rack power tree, coupled only through the two-level
//! headroom market of `sprintcon::bidding`.
//!
//! ## Structure
//!
//! A [`DcScenario`] is a rack template ([`Scenario`]) plus a
//! [`DatacenterTopology`]. Rack `r` runs the template with seed
//! `base.seed + r` — rack 0 *is* the template, which is what makes the
//! single-rack equivalence gate possible (see below). Each rack is a
//! full [`RackSim`](crate::engine::RackSim) + [`SprintConPolicy`] +
//! [`Recorder`] shard, so a shard's [`RunOutput`] digests identically
//! to a standalone run. A traced run ([`ExecConfig::with_telemetry`])
//! also gives every shard its own telemetry collector, as
//! `experiment::run_instrumented` does for a standalone run; an
//! untraced one steps its racks with none.
//!
//! ## Determinism contract
//!
//! Time is chopped into *epochs* of one allocator period
//! (`SprintConConfig::allocator_period`, 30 s in the paper). The loop
//! alternates:
//!
//! 1. a **sequential market round** on the driving thread: every rack
//!    bids its overload headroom ([`sprintcon::SprintCon::headroom_request`]),
//!    the two-level auction clears the feeder budget through the PDU
//!    caps over a reusable [`MarketWorkspace`] (allocation-free once
//!    warm), and the grants are installed as breaker-target ceilings
//!    ([`sprintcon::SprintCon::apply_feeder_grant`]);
//! 2. **parallel epoch stepping**: shards advance one epoch with no
//!    shared state — cross-rack information flows *only* through the
//!    market round at the boundary — through one [`par_map`] fork-join
//!    per epoch (each worker steps a contiguous slice of racks). On a
//!    traced run every shard installs its own collector for the
//!    duration of its step, so metrics cannot bleed between racks
//!    whichever thread steps them;
//! 3. a **sequential tree replay**: the per-rack breaker powers of the
//!    epoch are folded rack-ascending into contiguous per-PDU tick
//!    lanes, then the [`Datacenter`] PDU/feeder thermal breakers are
//!    stepped tick by tick from the precomputed sums
//!    ([`Datacenter::step_pdu_loads`], allocation-free).
//!
//! Because market rounds and the tree replay are sequential and the
//! epoch stepping is embarrassingly parallel, the run is a pure function
//! of the scenario: [`DatacenterSim::run`] is bit-identical across
//! worker counts, which [`DcRunOutput::digest`] (an FNV fold of the
//! per-rack [`run_digest`]s, the market grants, and the aggregate
//! breaker outcomes) makes checkable in one comparison.
//! `tests/datacenter.rs` enforces both that contract and equivalence to
//! standalone runs: under an ample tree, where every edge can carry
//! every rack's full overload swing, every grant is bit-transparent
//! (`min(p_cb, rated + grant)` returns `p_cb` exactly), so every rack's
//! digest equals the plain `run_policy(.., PolicyKind::SprintCon)`
//! digest of its own scenario bit for bit.
//!
//! ## Memory model (DESIGN.md §5i)
//!
//! Every rack records into a streaming [`Recorder`]: one epoch of
//! contiguous `cb_power` lane, the folded summary aggregates and a
//! running sample digest, O(racks) resident in all. The replay consumes
//! each epoch lane and clears it; `samples()` stays empty, and
//! [`run_digest`] of a rack's output starts from its recorder's fold.

use crate::exec::{par_map, run_digest, DigestBuilder, ExecConfig};
use crate::experiment::RunOutput;
use crate::metrics::RunSummary;
use crate::policy::SprintConPolicy;
use crate::recorder::Recorder;
use crate::scenario::{Scenario, ScenarioError};
use powersim::datacenter::{Datacenter, DatacenterTopology, TopologyError};
use powersim::grid::GridInjector;
use powersim::units::{Seconds, Watts};
use sprintcon::{allocate_headroom_two_level_with, HeadroomBid, MarketWorkspace};
use std::sync::Arc;
use telemetry::{Collector, MetricsSnapshot};

/// A datacenter experiment: one rack template fanned across a power
/// tree. Rack `r` runs `base` with seed `base.seed + r` (wrapping), so
/// racks see independent workload/noise/fault streams while rack 0
/// reproduces the template run exactly.
#[derive(Debug, Clone)]
pub struct DcScenario {
    /// Per-rack scenario template (defines the rack edge: servers,
    /// breaker, UPS, workloads, faults, duration, `dt`).
    pub base: Scenario,
    /// The shared feeder → PDU → rack tree above the rack edges.
    pub topo: DatacenterTopology,
}

impl DcScenario {
    /// Validate both layers and assemble.
    pub fn new(base: Scenario, topo: DatacenterTopology) -> Result<Self, DcError> {
        base.validate().map_err(DcError::Scenario)?;
        topo.validate().map_err(DcError::Topology)?;
        Ok(DcScenario { base, topo })
    }

    /// The scenario rack `r` runs: the template reseeded with
    /// `base.seed + r`. `rack_scenario(0) == base`.
    pub fn rack_scenario(&self, rack: usize) -> Scenario {
        let mut sc = self.base.clone();
        sc.seed = self.base.seed.wrapping_add(rack as u64);
        sc
    }
}

/// Recording retention for a datacenter run. Streaming is the only
/// mode (see the module docs); the type and
/// [`DatacenterSim::from_scenario_with`] remain because the benchmark's
/// floor workload names them, and go with that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcRecordMode {
    /// Every rack keeps one epoch of `cb_power` lane plus folded
    /// aggregates and a running digest: O(racks) resident, empty
    /// `samples()`.
    Streaming,
}

/// Why a datacenter scenario failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum DcError {
    Scenario(ScenarioError),
    Topology(TopologyError),
    /// A PDU's rating cannot even carry its member racks at rated draw.
    PduBelowRated {
        pdu: usize,
        rating: Watts,
        rated_sum: Watts,
    },
    /// The feeder's rating cannot carry every rack at rated draw.
    FeederBelowRated {
        rating: Watts,
        rated_sum: Watts,
    },
}

impl std::fmt::Display for DcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcError::Scenario(e) => write!(f, "rack scenario: {e}"),
            DcError::Topology(e) => write!(f, "power tree: {e}"),
            DcError::PduBelowRated {
                pdu,
                rating,
                rated_sum,
            } => write!(
                f,
                "PDU {pdu} rated at {rating} cannot carry its racks' rated draw of {rated_sum}"
            ),
            DcError::FeederBelowRated { rating, rated_sum } => write!(
                f,
                "feeder rated at {rating} cannot carry the racks' rated draw of {rated_sum}"
            ),
        }
    }
}

impl std::error::Error for DcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DcError::Scenario(e) => Some(e),
            DcError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

/// One cleared headroom auction at an epoch boundary.
#[derive(Debug, Clone)]
pub struct MarketRound {
    /// Epoch index (rounds fire at `t = epoch · allocator_period`).
    pub epoch: usize,
    /// Granted headroom watts per rack, rack order.
    pub grants: Vec<Watts>,
    /// Total watts handed out this round (`≤ budget`).
    pub spent: Watts,
    /// The feeder headroom budget the round cleared against. Nominally
    /// the topology's feeder headroom; an active grid curtailment
    /// shrinks it to what the per-rack cap leaves above rated draw.
    pub budget: Watts,
}

/// Everything a datacenter run produces.
#[derive(Debug)]
pub struct DcRunOutput {
    /// Per-rack results, rack order — each shaped like a standalone
    /// run's output (recording, §VII summary, telemetry snapshot, empty
    /// unless the run was traced), except that the streaming recorders
    /// keep no `samples()` (aggregates and events remain).
    pub racks: Vec<RunOutput>,
    /// `run_digest(&racks[r])`, rack order: what a standalone run of
    /// the same trajectory digests to.
    pub rack_digests: Vec<u64>,
    /// The cleared market rounds, epoch order.
    pub rounds: Vec<MarketRound>,
    /// `pdu_of[r]` — which PDU rack `r` hangs off (conservation tests).
    pub pdu_of: Vec<usize>,
    /// Per-PDU headroom caps the auctions cleared against.
    pub pdu_caps: Vec<Watts>,
    /// The feeder headroom budget.
    pub feeder_budget: Watts,
    /// Control periods during which each PDU breaker tripped.
    pub pdu_trip_periods: Vec<u64>,
    /// Control periods during which the feeder breaker tripped.
    pub feeder_trip_periods: u64,
    /// Peak instantaneous feeder load over the run.
    pub peak_feeder_load: Watts,
    /// Determinism digest of the whole run: per-rack [`run_digest`]s in
    /// rack order, the market rounds, and the aggregate tree outcomes.
    /// Bit-identical across worker counts.
    pub digest: u64,
}

/// One rack's full stack: plant, controller, recording, and on a traced
/// run the thread-scoped collector its telemetry lands in.
struct RackShard {
    sim: crate::engine::RackSim,
    policy: SprintConPolicy,
    rec: Recorder,
    collector: Option<Arc<Collector>>,
}

/// What the drive loop aggregates; [`DatacenterSim::finalize`] folds it
/// with the per-rack outputs into the [`DcRunOutput`].
struct DriveAgg {
    rounds: Vec<MarketRound>,
    pdu_trip_periods: Vec<u64>,
    feeder_trip_periods: u64,
    peak_feeder_load: Watts,
}

/// The assembled datacenter: rack shards plus the shared power tree.
pub struct DatacenterSim {
    scenario: DcScenario,
    shards: Vec<RackShard>,
    dc: Datacenter,
    /// Rack → PDU map (topology order, cached for the market rounds).
    pdu_of: Vec<usize>,
    /// Per-PDU headroom above the members' combined rated draw.
    pdu_caps: Vec<Watts>,
    /// Feeder headroom above the whole floor's rated draw.
    feeder_budget: Watts,
    /// The floor's combined rated draw (curtailment budget arithmetic).
    rated_total: Watts,
    /// Floor-level grid-event replay, sampled once per market round
    /// (seed `base.seed + 5`; racks use `rack_seed + 4` individually).
    grid: GridInjector,
    /// Control periods per market epoch (`allocator_period / dt`).
    epoch_ticks: usize,
}

impl DatacenterSim {
    /// Build every rack shard and the shared tree from the scenario.
    pub fn from_scenario(scenario: &DcScenario) -> Result<Self, DcError> {
        scenario.base.validate().map_err(DcError::Scenario)?;
        scenario.topo.validate().map_err(DcError::Topology)?;
        let num_racks = scenario.topo.num_racks();
        let mut shards = Vec::with_capacity(num_racks);
        for r in 0..num_racks {
            shards.push(RackShard {
                sim: scenario.rack_scenario(r).build(),
                policy: SprintConPolicy::paper_default(),
                rec: Recorder::streaming(),
                collector: None,
            });
        }

        // Headroom budgets: what each tree edge can carry beyond its
        // subtree's combined rated draw. The market clears *headroom*,
        // so a non-negative budget at every edge is a hard requirement.
        let mut pdu_caps = Vec::with_capacity(scenario.topo.num_pdus());
        let mut rated_total = 0.0;
        for (p, pdu) in scenario.topo.pdus.iter().enumerate() {
            let rated_sum: f64 = scenario
                .topo
                .racks_of_pdu(p)
                .map(|r| shards[r].policy.inner().cfg.rated().0)
                .sum();
            rated_total += rated_sum;
            if pdu.rating.0 < rated_sum {
                return Err(DcError::PduBelowRated {
                    pdu: p,
                    rating: pdu.rating,
                    rated_sum: Watts(rated_sum),
                });
            }
            pdu_caps.push(Watts(pdu.rating.0 - rated_sum));
        }
        if scenario.topo.feeder_rating.0 < rated_total {
            return Err(DcError::FeederBelowRated {
                rating: scenario.topo.feeder_rating,
                rated_sum: Watts(rated_total),
            });
        }
        let feeder_budget = Watts(scenario.topo.feeder_rating.0 - rated_total);

        let pdu_of: Vec<usize> = (0..num_racks)
            .map(|r| scenario.topo.pdu_of_rack(r))
            .collect();
        let period = shards[0].policy.inner().cfg.allocator_period;
        let epoch_ticks = ((period.0 / scenario.base.dt.0).round() as usize).max(1);
        let dc = Datacenter::paper_calibrated(scenario.topo.clone()).map_err(DcError::Topology)?;
        let grid = GridInjector::new(
            scenario.base.grid.clone(),
            scenario.base.seed.wrapping_add(5),
        );
        Ok(DatacenterSim {
            scenario: scenario.clone(),
            shards,
            dc,
            pdu_of,
            pdu_caps,
            feeder_budget,
            rated_total: Watts(rated_total),
            grid,
            epoch_ticks,
        })
    }

    /// [`DatacenterSim::from_scenario`]; `Streaming` is the only mode.
    pub fn from_scenario_with(scenario: &DcScenario, _: DcRecordMode) -> Result<Self, DcError> {
        Self::from_scenario(scenario)
    }

    pub fn num_racks(&self) -> usize {
        self.shards.len()
    }

    /// The feeder headroom budget the market clears each epoch.
    pub fn feeder_budget(&self) -> Watts {
        self.feeder_budget
    }

    /// Control periods per market epoch.
    pub fn epoch_ticks(&self) -> usize {
        self.epoch_ticks
    }

    /// The feeder headroom budget in effect at `now`: the topology's
    /// nominal budget, shrunk while a grid curtailment is active to the
    /// headroom the per-rack cap leaves above the floor's rated draw
    /// (`max(0, n_racks · cap − rated_total)`). Inactive plans return
    /// the nominal budget bit-identically.
    fn effective_budget(&mut self, now: Seconds, epoch_dt: Seconds) -> Watts {
        let ag = self.grid.advance(now, epoch_dt);
        match ag.curtail_cap {
            Some(cap) => {
                let curtailed = (self.shards.len() as f64 * cap.0 - self.rated_total.0).max(0.0);
                Watts(self.feeder_budget.0.min(curtailed))
            }
            None => self.feeder_budget,
        }
    }

    /// One sequential market round: gather bids, clear the two-level
    /// auction over the reusable workspace, install the grants as
    /// breaker-target ceilings. Only the `MarketRound::grants` copy for
    /// the output allocates once the workspace is warm.
    fn market_round(
        &mut self,
        bids: &mut Vec<HeadroomBid>,
        ws: &mut MarketWorkspace,
        epoch: usize,
        budget: Watts,
    ) -> MarketRound {
        bids.clear();
        for (r, shard) in self.shards.iter().enumerate() {
            bids.push(HeadroomBid {
                id: r,
                request: shard.policy.inner().headroom_request(),
                priority: shard.policy.inner().headroom_priority(),
            });
        }
        let outcome =
            allocate_headroom_two_level_with(ws, bids, &self.pdu_of, &self.pdu_caps, budget);
        // Conservation is the market's contract; a violation here is a
        // bug in the auction, not a recoverable condition.
        assert!(
            outcome.spent.0 <= budget.0 * (1.0 + 1e-12) + 1e-9,
            "market overspent the feeder budget: {} > {budget}",
            outcome.spent,
        );
        for (shard, &grant) in self.shards.iter_mut().zip(ws.grants()) {
            shard.policy.inner_mut().apply_feeder_grant(Some(grant));
        }
        MarketRound {
            epoch,
            grants: ws.grants().to_vec(),
            spent: outcome.spent,
            budget,
        }
    }

    /// Advance one shard `ticks` control periods, under its collector on
    /// a traced run.
    ///
    /// The collector is (re-)installed around every epoch step — a
    /// worker steps several racks, so per-rack telemetry isolation comes
    /// from the install, not thread identity.
    fn step_shard(shard: &mut RackShard, ticks: usize) {
        let RackShard {
            sim,
            policy,
            rec,
            collector,
        } = shard;
        let mut step = || {
            for _ in 0..ticks {
                sim.step(policy, rec);
            }
        };
        match collector {
            Some(c) => telemetry::with_collector(Arc::clone(c), step),
            None => step(),
        }
    }

    /// Vectorized tree replay of one epoch: fold every rack's recorded
    /// breaker powers rack-ascending into contiguous per-PDU tick lanes
    /// (`lanes[p · ticks + k]`), then step the shared breakers tick by
    /// tick from the precomputed sums. Addition order per (PDU, tick)
    /// is racks ascending, so the replay is bit-identical to the
    /// historical per-tick gather.
    #[allow(clippy::too_many_arguments)]
    fn replay_epoch(
        &mut self,
        ticks: usize,
        dt: Seconds,
        lanes: &mut [f64],
        tick_loads: &mut [f64],
        pdu_delivered: &mut [f64],
        pdu_tripped: &mut [bool],
        agg: &mut DriveAgg,
    ) {
        let num_pdus = self.scenario.topo.num_pdus();
        let lanes = &mut lanes[..num_pdus * ticks];
        lanes.fill(0.0);
        let mut rack = 0;
        for (p, pdu) in self.scenario.topo.pdus.iter().enumerate() {
            let lane = &mut lanes[p * ticks..(p + 1) * ticks];
            for shard in &mut self.shards[rack..rack + pdu.num_racks] {
                let src = shard.rec.epoch_lane().unwrap_or_default();
                assert_eq!(
                    src.len(),
                    ticks,
                    "epoch lane must hold exactly one epoch of samples"
                );
                for (slot, &w) in lane.iter_mut().zip(src) {
                    assert!(w >= 0.0 && w.is_finite(), "invalid rack power");
                    *slot += w;
                }
                shard.rec.clear_epoch_lane();
            }
            rack += pdu.num_racks;
        }
        for k in 0..ticks {
            for (p, load) in tick_loads.iter_mut().enumerate() {
                *load = lanes[p * ticks + k];
            }
            let feeder = self
                .dc
                .step_pdu_loads(tick_loads, dt, pdu_delivered, pdu_tripped);
            for (count, &tripped) in agg.pdu_trip_periods.iter_mut().zip(&*pdu_tripped) {
                *count += tripped as u64;
            }
            agg.feeder_trip_periods += feeder.feeder_tripped as u64;
            if feeder.feeder_load.0 > agg.peak_feeder_load.0 {
                agg.peak_feeder_load = feeder.feeder_load;
            }
        }
    }

    /// The drive loop: sequential market round → parallel epoch step →
    /// sequential tree replay, per epoch.
    fn drive(&mut self, width: usize) -> DriveAgg {
        let dt = self.scenario.base.dt;
        let total = (self.scenario.base.duration.0 / dt.0).round() as usize;
        let num_pdus = self.scenario.topo.num_pdus();
        let mut agg = DriveAgg {
            rounds: Vec::with_capacity(total / self.epoch_ticks + 1),
            pdu_trip_periods: vec![0u64; num_pdus],
            feeder_trip_periods: 0,
            peak_feeder_load: Watts::ZERO,
        };
        let mut bids: Vec<HeadroomBid> = Vec::with_capacity(self.shards.len());
        let mut market_ws = MarketWorkspace::new();
        let mut lanes = vec![0.0f64; num_pdus * self.epoch_ticks];
        let mut tick_loads = vec![0.0f64; num_pdus];
        let mut pdu_delivered = vec![0.0f64; num_pdus];
        let mut pdu_tripped = vec![false; num_pdus];

        let mut done = 0;
        let mut epoch = 0;
        while done < total {
            let ticks = self.epoch_ticks.min(total - done);
            let budget = self.effective_budget(
                Seconds(done as f64 * dt.0),
                Seconds(self.epoch_ticks as f64 * dt.0),
            );
            let round = self.market_round(&mut bids, &mut market_ws, epoch, budget);
            agg.rounds.push(round);
            par_map(&mut self.shards, width, |shard| {
                Self::step_shard(shard, ticks)
            });
            self.replay_epoch(
                ticks,
                dt,
                &mut lanes,
                &mut tick_loads,
                &mut pdu_delivered,
                &mut pdu_tripped,
                &mut agg,
            );
            done += ticks;
            epoch += 1;
        }
        agg
    }

    /// Finalize each shard like `run_instrumented`: summary, then the
    /// collector's snapshot on a traced run, then its [`run_digest`].
    fn finalize(self, agg: DriveAgg) -> DcRunOutput {
        let mut racks = Vec::with_capacity(self.shards.len());
        let mut rack_digests = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            let summary = RunSummary::from_run("SprintCon", &shard.sim, &shard.rec);
            let metrics = shard.collector.map_or_else(MetricsSnapshot::default, |c| {
                c.flush();
                c.snapshot()
            });
            let out = RunOutput {
                recorder: shard.rec,
                summary,
                metrics,
            };
            rack_digests.push(run_digest(&out));
            racks.push(out);
        }

        let mut h = DigestBuilder::new();
        for &d in &rack_digests {
            h.u64(d);
        }
        for round in &agg.rounds {
            h.u64(round.epoch as u64);
            h.f64(round.spent.0);
            h.f64(round.budget.0);
            for g in &round.grants {
                h.f64(g.0);
            }
        }
        for &t in &agg.pdu_trip_periods {
            h.u64(t);
        }
        h.u64(agg.feeder_trip_periods);
        h.f64(agg.peak_feeder_load.0);
        let digest = h.finish();

        DcRunOutput {
            racks,
            rack_digests,
            rounds: agg.rounds,
            pdu_of: self.pdu_of,
            pdu_caps: self.pdu_caps,
            feeder_budget: self.feeder_budget,
            pdu_trip_periods: agg.pdu_trip_periods,
            feeder_trip_periods: agg.feeder_trip_periods,
            peak_feeder_load: agg.peak_feeder_load,
            digest,
        }
    }

    /// Run the whole campaign: market rounds at every allocator
    /// boundary, epoch stepping between them on `exec`'s workers (one
    /// [`par_map`] fork-join per epoch), and the vectorized tree replay
    /// behind each epoch; per-rack collectors only if `exec` asks for
    /// telemetry. Consumes the sim (a run is one-shot).
    pub fn run(mut self, exec: ExecConfig) -> DcRunOutput {
        if exec.telemetry() {
            for shard in &mut self.shards {
                shard.collector = Some(Arc::new(Collector::null()));
            }
        }
        let agg = self.drive(exec.resolved_jobs());
        self.finalize(agg)
    }
}

/// Build and run a datacenter campaign in one call.
pub fn run_datacenter(scenario: &DcScenario, exec: ExecConfig) -> Result<DcRunOutput, DcError> {
    Ok(DatacenterSim::from_scenario(scenario)?.run(exec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::units::Seconds;

    fn quick_base(seed: u64) -> Scenario {
        let mut sc = Scenario::paper_default(seed);
        sc.duration = Seconds(90.0); // three market epochs
        sc
    }

    fn small_topo(racks: usize) -> DatacenterTopology {
        // Two PDUs where possible; per-PDU headroom for one overload
        // swing, feeder headroom for half the racks' swings.
        let per_pdu = racks.div_ceil(2).max(1);
        let pdus = racks.div_ceil(per_pdu);
        let mut topo = DatacenterTopology::uniform(
            pdus,
            per_pdu,
            Watts(per_pdu as f64 * 3200.0 + 800.0),
            Watts((pdus * per_pdu) as f64 * 3200.0 + 800.0 * racks as f64 / 2.0),
        )
        .expect("uniform topology is valid");
        // Trim the last PDU if the grid over-provisioned racks.
        let extra = pdus * per_pdu - racks;
        if extra > 0 {
            let last = topo.pdus.len() - 1;
            topo.pdus[last].num_racks -= extra;
        }
        topo
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let dc = DcScenario::new(quick_base(7), small_topo(5)).unwrap();
        let seq = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
        assert_eq!(seq.rounds.len(), 3, "90 s / 30 s epochs");
        for jobs in [2, 4] {
            let par = run_datacenter(&dc, ExecConfig::jobs(jobs)).unwrap();
            assert_eq!(seq.digest, par.digest, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn scarce_feeder_headroom_is_rationed_not_overspent() {
        // Feeder headroom for only one overload swing across 4 racks.
        let topo = DatacenterTopology::uniform(
            2,
            2,
            Watts(2.0 * 3200.0 + 800.0),
            Watts(4.0 * 3200.0 + 800.0),
        )
        .unwrap();
        let dc = DcScenario::new(quick_base(5), topo).unwrap();
        let out = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
        for round in &out.rounds {
            let total: f64 = round.grants.iter().map(|g| g.0).sum();
            assert!(total <= 800.0 + 1e-9, "overspent: {total}");
        }
        // Someone got something while sprints were live.
        assert!(out.rounds[0].spent.0 > 0.0);
    }

    #[test]
    fn feeder_curtailment_shrinks_the_market_budget() {
        use powersim::grid::GridPlan;
        // Per-rack cap 3300 W across 4 racks rated 3200 W: the floor may
        // carry 4·3300 − 4·3200 = 400 W of headroom, under the nominal
        // 1600 W feeder budget.
        let mut base = quick_base(9);
        base.grid =
            GridPlan::curtailment(Seconds(0.0), Seconds(600.0), Watts(3300.0), Seconds(30.0));
        let dc = DcScenario::new(base, small_topo(4)).unwrap();
        let out = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
        for round in &out.rounds {
            assert_eq!(round.budget, Watts(400.0), "epoch {}", round.epoch);
            assert!(round.spent.0 <= 400.0 + 1e-9, "overspent: {}", round.spent);
        }
        // The uncurtailed topology budget is still reported alongside.
        assert_eq!(out.feeder_budget, Watts(1600.0));
        // A binding curtailment shards bit-identically.
        for jobs in [2, 4] {
            let par = run_datacenter(&dc, ExecConfig::jobs(jobs)).unwrap();
            assert_eq!(out.digest, par.digest, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn inactive_grid_plans_leave_the_dc_digest_unchanged() {
        use powersim::grid::GridPlan;
        let plain = DcScenario::new(quick_base(11), small_topo(3)).unwrap();
        let mut with_plan = quick_base(11);
        // An explicit empty plan must be bit-transparent.
        with_plan.grid = GridPlan::none();
        let wired = DcScenario::new(with_plan, small_topo(3)).unwrap();
        let a = run_datacenter(&plain, ExecConfig::sequential()).unwrap();
        let b = run_datacenter(&wired, ExecConfig::jobs(2)).unwrap();
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn rack_scenarios_offset_the_seed() {
        let dc = DcScenario::new(quick_base(10), small_topo(3)).unwrap();
        assert_eq!(dc.rack_scenario(0).seed, 10);
        assert_eq!(dc.rack_scenario(2).seed, 12);
    }

    #[test]
    fn undersized_edges_are_rejected() {
        // PDU rating below the members' rated draw.
        let topo = DatacenterTopology::uniform(1, 2, Watts(6000.0), Watts(8000.0)).unwrap();
        let err = DatacenterSim::from_scenario(&DcScenario::new(quick_base(1), topo).unwrap())
            .err()
            .expect("6 kW PDU cannot carry 2 racks rated 3.2 kW each");
        assert!(
            matches!(err, DcError::PduBelowRated { pdu: 0, .. }),
            "{err}"
        );
        // Feeder rating below the floor's rated draw.
        let topo = DatacenterTopology::uniform(2, 1, Watts(4000.0), Watts(6000.0)).unwrap();
        let err = DatacenterSim::from_scenario(&DcScenario::new(quick_base(1), topo).unwrap())
            .err()
            .expect("6 kW feeder cannot carry 2 racks rated 3.2 kW each");
        assert!(matches!(err, DcError::FeederBelowRated { .. }), "{err}");
    }
}
