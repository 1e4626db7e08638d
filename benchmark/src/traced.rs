//! The traced run: the workload's inputs once more, on one thread, with
//! every layer timed from outside. Spans come from two places only:
//!
//! * `Instant` timings around the public calls into each layer
//!   (`RackSim::step`, `Policy::control`, the market, the tree replay,
//!   build and finalize);
//! * the `<span>.ns` histograms the program already records
//!   (`server_controller_control`, `mpc_compute`, `qp_solve_time`), read
//!   from each run's own telemetry snapshot.
//!
//! Everything stays in memory. Each traced run recomputes the run digests
//! the untraced reps produced, which proves the harness drove the same
//! program through the same states.

use crate::stats::{mean, percentile_sorted};
use powersim::datacenter::Datacenter;
use powersim::grid::GridInjector;
use powersim::units::{Seconds, Watts};
use simkit::exec::digest_run_tail;
use simkit::{
    run_digest, CampaignEntry, Collector, DcScenario, DigestBuilder, MetricsSnapshot, NullSink,
    Policy, PolicyCommand, PolicyKind, RackSim, Recorder, RunOutput, RunSummary, SimView,
    SprintConPolicy,
};
use sprintcon::{allocate_headroom_two_level_with, HeadroomBid, MarketWorkspace};
use std::sync::Arc;
use std::time::Instant;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Times every `Policy::control` call of the policy it wraps.
struct Timed<'a> {
    inner: &'a mut dyn Policy,
    last_ns: f64,
}

impl Policy for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
        let t = Instant::now();
        let cmd = self.inner.control(view);
        self.last_ns = ns_since(t);
        cmd
    }
}

/// A `(sum, count)` pair read from a span histogram.
#[derive(Debug, Default, Clone, Copy)]
struct Total {
    sum: f64,
    n: f64,
}

impl Total {
    fn mean(self) -> f64 {
        if self.n > 0.0 {
            self.sum / self.n
        } else {
            0.0
        }
    }
}

/// Everything the traced run measures, across all of its runs.
#[derive(Debug, Default)]
pub struct LayerAcc {
    tick_ns: Vec<f64>,
    policy_ns: Vec<f64>,
    plant_ns: Vec<f64>,
    /// Policy time per control call of SGCT, SGCT-V1 and SGCT-V2.
    sgct_ns: [Vec<f64>; 3],
    sprintcon_policy: Total,
    server_ctrl: Total,
    mpc: Total,
    qp: Total,
    qp_iters: Total,
    mode_changes: f64,
    build_ns: Vec<f64>,
    finalize_ns: Vec<f64>,
    /// Build + stepping + finalize of each run (of each rack on the floor).
    run_ns: Vec<f64>,
    market_ns: Vec<f64>,
    auction_ns: Vec<f64>,
    replay_ns: Vec<f64>,
    epoch_ns: Vec<f64>,
    requested_w: f64,
    granted_w: f64,
    starved: f64,
    floor_finalize_ns: f64,
    /// Sum of the layers' self times; compared with `wall_ns`.
    covered_ns: f64,
    wall_ns: f64,
    /// Runs (floor racks) whose raw UPS state of charge left [0, 1] on
    /// some tick.
    pub soc_violation_runs: u64,
}

impl LayerAcc {
    fn absorb(&mut self, m: &MetricsSnapshot) {
        let total = |name: &str| {
            m.histogram(name).map_or(Total::default(), |h| Total {
                sum: h.sum,
                n: h.count as f64,
            })
        };
        let add = |a: &mut Total, b: Total| {
            a.sum += b.sum;
            a.n += b.n;
        };
        add(&mut self.server_ctrl, total("server_controller_control.ns"));
        add(&mut self.mpc, total("mpc_compute.ns"));
        add(&mut self.qp, total("qp_solve_time.ns"));
        add(&mut self.qp_iters, total("mpc_solve_iters"));
        self.mode_changes += m.counter("supervisor_mode_transitions") as f64;
    }

    fn record_policy(&mut self, kind: PolicyKind, ns: f64) {
        match kind {
            PolicyKind::SprintCon => {
                self.sprintcon_policy.sum += ns;
                self.sprintcon_policy.n += 1.0;
            }
            PolicyKind::Sgct => self.sgct_ns[0].push(ns),
            PolicyKind::SgctV1 => self.sgct_ns[1].push(ns),
            PolicyKind::SgctV2 => self.sgct_ns[2].push(ns),
        }
    }

    fn record_tick(&mut self, tick_ns: f64, policy_ns: f64) {
        self.tick_ns.push(tick_ns);
        self.policy_ns.push(policy_ns);
        self.plant_ns.push(tick_ns - policy_ns);
    }

    /// Close the trace: `wall_ns` is the traced run's whole duration.
    pub fn finish(&mut self, wall_ns: f64) {
        self.wall_ns = wall_ns;
    }

    /// The per-layer metrics this trace yields (the `sim.*`, `exec.*`
    /// and `trace.overhead_frac` entries come from the caller).
    pub fn metrics(&mut self) -> Vec<(&'static str, f64)> {
        let [sgct, v1, v2] = &mut self.sgct_ns;
        for v in [
            &mut self.tick_ns,
            &mut self.policy_ns,
            &mut self.plant_ns,
            sgct,
            v1,
            v2,
            &mut self.run_ns,
            &mut self.epoch_ns,
        ] {
            v.sort_by(f64::total_cmp);
        }
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let tick_sum = sum(&self.tick_ns);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let rounds = self.market_ns.len() as f64;
        vec![
            ("control.mpc_ns", self.mpc.mean()),
            ("control.qp_ns", self.qp.mean()),
            ("control.qp_iters", self.qp_iters.mean()),
            ("control.qp_solves", self.qp.n),
            (
                "core.server_ctrl_self_ns",
                ratio(self.server_ctrl.sum - self.mpc.sum, self.server_ctrl.n),
            ),
            (
                "core.supervisor_self_ns",
                ratio(
                    self.sprintcon_policy.sum - self.server_ctrl.sum,
                    self.sprintcon_policy.n,
                ),
            ),
            ("core.mode_changes", self.mode_changes),
            (
                "baselines.sgct_ns.p50",
                percentile_sorted(&self.sgct_ns[0], 500),
            ),
            (
                "baselines.sgct_v1_ns.p50",
                percentile_sorted(&self.sgct_ns[1], 500),
            ),
            (
                "baselines.sgct_v2_ns.p50",
                percentile_sorted(&self.sgct_ns[2], 500),
            ),
            ("engine.tick_ns.p50", percentile_sorted(&self.tick_ns, 500)),
            ("engine.tick_ns.p99", percentile_sorted(&self.tick_ns, 990)),
            ("engine.ticks", self.tick_ns.len() as f64),
            (
                "engine.policy_ns.p50",
                percentile_sorted(&self.policy_ns, 500),
            ),
            (
                "engine.plant_ns.p50",
                percentile_sorted(&self.plant_ns, 500),
            ),
            ("engine.policy_share", ratio(sum(&self.policy_ns), tick_sum)),
            ("engine.build_us", mean(&self.build_ns) * 1e-3),
            ("engine.finalize_us", mean(&self.finalize_ns) * 1e-3),
            ("dc.market_us", mean(&self.market_ns) * 1e-3),
            ("dc.auction_us", mean(&self.auction_ns) * 1e-3),
            ("dc.granted_frac", ratio(self.granted_w, self.requested_w)),
            ("dc.starved_racks", ratio(self.starved, rounds)),
            ("dc.rounds", rounds),
            (
                "dc.epoch_ms.p50",
                percentile_sorted(&self.epoch_ns, 500) * 1e-6,
            ),
            (
                "dc.epoch_ms.p99",
                percentile_sorted(&self.epoch_ns, 990) * 1e-6,
            ),
            ("dc.replay_us", mean(&self.replay_ns) * 1e-3),
            ("dc.finalize_ms", self.floor_finalize_ns * 1e-6),
            (
                "exec.run_ms.p50",
                percentile_sorted(&self.run_ns, 500) * 1e-6,
            ),
            (
                "exec.run_ms.p90",
                percentile_sorted(&self.run_ns, 900) * 1e-6,
            ),
            ("trace.cover_frac", ratio(self.covered_ns, self.wall_ns)),
        ]
    }

    /// Sorted tick durations, for the tail report.
    pub fn tick_ns_sorted(&self) -> &[f64] {
        &self.tick_ns
    }
}

/// Run one campaign entry exactly as `Campaign` does (same build, same
/// collector scope, same finalize), timing each layer; returns the run
/// digest.
pub fn rack_run(e: &CampaignEntry, acc: &mut LayerAcc) -> u64 {
    let t_run = Instant::now();
    let collector = Arc::new(Collector::null());
    let digest = telemetry::with_collector(Arc::clone(&collector), || {
        let t = Instant::now();
        let mut sim = e.scenario.build();
        let mut policy = e.kind.build_with(&e.overrides);
        let build = ns_since(t);
        let steps = (e.scenario.duration.0 / e.scenario.dt.0).round() as usize;
        let mut rec = Recorder::with_capacity(steps);
        let mut timed = Timed {
            inner: policy.as_mut(),
            last_ns: 0.0,
        };
        let mut ticks = 0.0;
        let mut soc_bad = false;
        for _ in 0..steps {
            let t = Instant::now();
            sim.step(&mut timed, &mut rec);
            let tick = ns_since(t);
            ticks += tick;
            acc.record_tick(tick, timed.last_ns);
            acc.record_policy(e.kind, timed.last_ns);
            soc_bad |= soc_out_of_range(&sim);
        }
        acc.soc_violation_runs += soc_bad as u64;
        let t = Instant::now();
        let summary = RunSummary::from_run(e.kind.name(), &sim, &rec);
        collector.flush();
        let out = RunOutput {
            recorder: rec,
            summary,
            metrics: collector.snapshot(),
        };
        let digest = run_digest(&out);
        let finalize = ns_since(t);
        acc.absorb(&out.metrics);
        acc.build_ns.push(build);
        acc.finalize_ns.push(finalize);
        acc.covered_ns += build + ticks + finalize;
        digest
    });
    acc.run_ns.push(ns_since(t_run));
    digest
}

fn soc_out_of_range(sim: &RackSim) -> bool {
    let soc = sim.feed.ups.soc().0 / sim.feed.ups.spec.capacity.0;
    !(0.0..=1.0).contains(&soc)
}

/// One rack of the traced floor: plant, controller, recording, collector.
struct Shard {
    sim: RackSim,
    policy: SprintConPolicy,
    rec: Recorder,
    collector: Arc<Collector>,
    run_ns: f64,
    soc_bad: bool,
}

/// What the traced floor reproduces, for comparison with the untraced run.
pub struct FloorDigests {
    pub floor: u64,
    pub racks: Vec<u64>,
    /// Market rounds that overspent the feeder or a PDU cap.
    pub overspent_rounds: Vec<String>,
}

/// Replay `DatacenterSim::run` from public calls on one thread: shards
/// built under per-rack collectors; per epoch a market round
/// (`headroom_request` → `allocate_headroom_two_level_with` →
/// `apply_feeder_grant`), the epoch's rack steps, and the tree replay
/// folding the streaming recorders' lanes into `step_pdu_loads`; then the
/// per-rack finalize (`finish_stream`, `digest_run_tail`) and the floor
/// digest fold. Operation order matches the engine's, so the digests must
/// match bit for bit.
pub fn floor_run(dc: &DcScenario, acc: &mut LayerAcc) -> Result<FloorDigests, String> {
    let t_build = Instant::now();
    let n = dc.topo.num_racks();
    let mut shards = Vec::with_capacity(n);
    for r in 0..n {
        let t = Instant::now();
        let sc = dc.rack_scenario(r);
        let collector = Arc::new(Collector::new(Box::new(NullSink)));
        let (sim, policy) = telemetry::with_collector(Arc::clone(&collector), || {
            (sc.build(), SprintConPolicy::paper_default())
        });
        let build = ns_since(t);
        acc.build_ns.push(build);
        shards.push(Shard {
            sim,
            policy,
            rec: Recorder::streaming(),
            collector,
            run_ns: build,
            soc_bad: false,
        });
    }
    let mut pdu_caps = Vec::with_capacity(dc.topo.num_pdus());
    let mut rated_total = 0.0;
    for (p, pdu) in dc.topo.pdus.iter().enumerate() {
        let rated: f64 = dc
            .topo
            .racks_of_pdu(p)
            .map(|r| shards[r].policy.inner().cfg.rated().0)
            .sum();
        rated_total += rated;
        pdu_caps.push(Watts(pdu.rating.0 - rated));
    }
    let feeder_budget = Watts(dc.topo.feeder_rating.0 - rated_total);
    let pdu_of: Vec<usize> = (0..n).map(|r| dc.topo.pdu_of_rack(r)).collect();
    let dt = dc.base.dt;
    let period = shards[0].policy.inner().cfg.allocator_period;
    let epoch_ticks = ((period.0 / dt.0).round() as usize).max(1);
    let mut tree = Datacenter::paper_calibrated(dc.topo.clone()).map_err(|e| e.to_string())?;
    let mut grid = GridInjector::new(dc.base.grid.clone(), dc.base.seed.wrapping_add(5));
    acc.covered_ns += ns_since(t_build);

    let total = (dc.base.duration.0 / dt.0).round() as usize;
    let num_pdus = dc.topo.num_pdus();
    let mut bids: Vec<HeadroomBid> = Vec::with_capacity(n);
    let mut ws = MarketWorkspace::new();
    let mut lanes = vec![0.0f64; num_pdus * epoch_ticks];
    let mut tick_loads = vec![0.0f64; num_pdus];
    let mut delivered = vec![0.0f64; num_pdus];
    let mut tripped = vec![false; num_pdus];
    let mut pdu_trip_periods = vec![0u64; num_pdus];
    let mut feeder_trip_periods = 0u64;
    let mut peak_feeder = Watts::ZERO;
    let mut rounds: Vec<(usize, Watts, Watts, Vec<Watts>)> = Vec::new();
    let mut overspent_rounds = Vec::new();
    let (mut done, mut epoch) = (0, 0);
    while done < total {
        let t_epoch = Instant::now();
        let ticks = epoch_ticks.min(total - done);
        let ag = grid.advance(
            Seconds(done as f64 * dt.0),
            Seconds(epoch_ticks as f64 * dt.0),
        );
        let budget = match ag.curtail_cap {
            Some(cap) => Watts(
                feeder_budget
                    .0
                    .min((n as f64 * cap.0 - rated_total).max(0.0)),
            ),
            None => feeder_budget,
        };

        let t_market = Instant::now();
        bids.clear();
        for (r, s) in shards.iter().enumerate() {
            bids.push(HeadroomBid {
                id: r,
                request: s.policy.inner().headroom_request(),
                priority: s.policy.inner().headroom_priority(),
            });
        }
        let t_auction = Instant::now();
        let outcome = allocate_headroom_two_level_with(&mut ws, &bids, &pdu_of, &pdu_caps, budget);
        acc.auction_ns.push(ns_since(t_auction));
        for (s, &g) in shards.iter_mut().zip(ws.grants()) {
            s.policy.inner_mut().apply_feeder_grant(Some(g));
        }
        let market = ns_since(t_market);
        acc.market_ns.push(market);
        acc.covered_ns += market;
        overspent_rounds.extend(overspend(
            epoch,
            ws.grants(),
            &pdu_of,
            &pdu_caps,
            outcome.spent,
            budget,
        ));
        for (b, g) in bids.iter().zip(ws.grants()) {
            acc.requested_w += b.request.0;
            acc.granted_w += g.0;
            acc.starved += (b.request.0 > 0.0 && g.0 == 0.0) as u64 as f64;
        }
        rounds.push((epoch, outcome.spent, budget, ws.grants().to_vec()));

        for s in &mut shards {
            let Shard {
                sim,
                policy,
                rec,
                collector,
                run_ns,
                soc_bad,
            } = s;
            let mut timed = Timed {
                inner: policy,
                last_ns: 0.0,
            };
            telemetry::with_collector(Arc::clone(collector), || {
                for _ in 0..ticks {
                    let t = Instant::now();
                    sim.step(&mut timed, rec);
                    let tick = ns_since(t);
                    *run_ns += tick;
                    acc.covered_ns += tick;
                    acc.record_tick(tick, timed.last_ns);
                    acc.record_policy(PolicyKind::SprintCon, timed.last_ns);
                    *soc_bad |= soc_out_of_range(sim);
                }
            });
        }

        let t_replay = Instant::now();
        let lanes = &mut lanes[..num_pdus * ticks];
        lanes.fill(0.0);
        let mut rack = 0;
        for (p, pdu) in dc.topo.pdus.iter().enumerate() {
            let lane = &mut lanes[p * ticks..(p + 1) * ticks];
            for s in &mut shards[rack..rack + pdu.num_racks] {
                let src = s.rec.epoch_lane().ok_or("floor recorders must stream")?;
                if src.len() != ticks {
                    return Err(format!("epoch lane holds {} of {ticks} ticks", src.len()));
                }
                for (slot, &w) in lane.iter_mut().zip(src) {
                    *slot += w;
                }
                s.rec.clear_epoch_lane();
            }
            rack += pdu.num_racks;
        }
        for k in 0..ticks {
            for (p, load) in tick_loads.iter_mut().enumerate() {
                *load = lanes[p * ticks + k];
            }
            let feeder = tree.step_pdu_loads(&tick_loads, dt, &mut delivered, &mut tripped);
            for (count, &t) in pdu_trip_periods.iter_mut().zip(&tripped) {
                *count += t as u64;
            }
            feeder_trip_periods += feeder.feeder_tripped as u64;
            if feeder.feeder_load.0 > peak_feeder.0 {
                peak_feeder = feeder.feeder_load;
            }
        }
        let replay = ns_since(t_replay);
        acc.replay_ns.push(replay);
        acc.covered_ns += replay;
        acc.epoch_ns.push(ns_since(t_epoch));
        done += ticks;
        epoch += 1;
    }

    let t_finalize = Instant::now();
    let mut racks = Vec::with_capacity(n);
    for mut s in shards {
        let t = Instant::now();
        s.rec.finish_stream();
        let summary = telemetry::with_collector(Arc::clone(&s.collector), || {
            RunSummary::from_run("SprintCon", &s.sim, &s.rec)
        });
        s.collector.flush();
        let metrics = s.collector.snapshot();
        let mut h = s.rec.stream_digest().ok_or("floor recorders must stream")?;
        digest_run_tail(&mut h, s.rec.events(), &summary, &metrics);
        racks.push(h.finish());
        acc.absorb(&metrics);
        acc.soc_violation_runs += s.soc_bad as u64;
        let finalize = ns_since(t);
        acc.finalize_ns.push(finalize);
        acc.run_ns.push(s.run_ns + finalize);
    }
    let mut h = DigestBuilder::new();
    for &d in &racks {
        h.u64(d);
    }
    for (epoch, spent, budget, grants) in &rounds {
        h.u64(*epoch as u64);
        h.f64(spent.0);
        h.f64(budget.0);
        for g in grants {
            h.f64(g.0);
        }
    }
    for &t in &pdu_trip_periods {
        h.u64(t);
    }
    h.u64(feeder_trip_periods);
    h.f64(peak_feeder.0);
    let floor = h.finish();
    acc.floor_finalize_ns = ns_since(t_finalize);
    acc.covered_ns += acc.floor_finalize_ns;
    Ok(FloorDigests {
        floor,
        racks,
        overspent_rounds,
    })
}

/// The market's conservation contract for one cleared round: the feeder
/// budget and every PDU cap hold. Returns one message per broken edge.
pub fn overspend(
    epoch: usize,
    grants: &[Watts],
    pdu_of: &[usize],
    pdu_caps: &[Watts],
    spent: Watts,
    budget: Watts,
) -> Vec<String> {
    let mut broken = Vec::new();
    if spent.0 > budget.0 * (1.0 + 1e-12) + 1e-9 {
        broken.push(format!(
            "epoch {epoch}: spent {spent} > feeder budget {budget}"
        ));
    }
    let mut per_pdu = vec![0.0; pdu_caps.len()];
    for (g, &p) in grants.iter().zip(pdu_of) {
        per_pdu[p] += g.0;
    }
    for (p, (sum, cap)) in per_pdu.iter().zip(pdu_caps).enumerate() {
        if *sum > cap.0 + 1e-9 {
            broken.push(format!(
                "epoch {epoch}: PDU {p} granted {sum} W > cap {cap}"
            ));
        }
    }
    broken
}
