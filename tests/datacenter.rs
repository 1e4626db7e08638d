//! Datacenter-engine contract tests: sharded multi-rack execution must
//! be bit-identical to sequential execution (including under active
//! fault injection), the headroom market must conserve every tree
//! edge's budget at every supervisor boundary, and under an ample tree
//! every rack must reproduce the standalone engine's digest exactly.
//! CI runs this suite, and `bench_datacenter --check` times the floor at
//! scale.

mod golden;

use powersim::datacenter::DatacenterTopology;
use powersim::faults::FaultPlan;
use powersim::grid::{GridEventKind, GridPlan};
use powersim::units::{Seconds, Watts};
use proptest::prelude::*;
use simkit::{
    qos_report, run_datacenter, run_digest, run_policy, CsvError, DcRunOutput, DcScenario,
    ExecConfig, PolicyKind, SamplesNotKept, Scenario,
};
use sprintcon::{
    allocate_headroom_two_level, allocate_headroom_two_level_with, HeadroomBid, MarketWorkspace,
};

/// A rack template with an *active* stochastic fault plan: monitor
/// dropouts force the degraded-mode supervisor paths, which must be just
/// as deterministic under sharded execution as the happy path.
fn faulty_base(seed: u64, secs: f64) -> Scenario {
    let mut sc = Scenario::builder(seed)
        .faults(FaultPlan::monitor_dropout(0.3, Seconds(8.0)))
        .build()
        .expect("fault scenario is valid");
    sc.duration = Seconds(secs);
    sc
}

/// 2 PDUs × 3 racks with headroom for one overload swing per PDU and
/// three floor-wide — scarce enough that the market actually rations.
fn two_pdu_topo() -> DatacenterTopology {
    DatacenterTopology::uniform(
        2,
        3,
        Watts(3.0 * 3200.0 + 800.0),
        Watts(6.0 * 3200.0 + 3.0 * 800.0),
    )
    .expect("topology is valid")
}

/// One PDU of 24 racks with headroom for a fifth of their overload
/// swings, under a feeder rated like the PDU: one wide level-2 auction.
fn one_pdu_topo() -> DatacenterTopology {
    let rating = Watts(24.0 * 3200.0 + 24.0 * 800.0 / 5.0);
    DatacenterTopology::uniform(1, 24, rating, rating).expect("topology is valid")
}

/// Every PDU and the feeder can carry every rack's full 800 W overload
/// swing, so every grant is bit-transparent.
fn ample_topo() -> DatacenterTopology {
    DatacenterTopology::uniform(2, 3, Watts(3.0 * 4000.0), Watts(6.0 * 4000.0))
        .expect("topology is valid")
}

/// The first tree edge a market round overspent, if any: Σ grants
/// against the feeder budget and each PDU's member grants against its
/// cap, plus grants that are negative or not finite.
fn overspent_edge(out: &DcRunOutput) -> Option<String> {
    for round in &out.rounds {
        let e = round.epoch;
        if let Some(g) = round
            .grants
            .iter()
            .find(|g| !(g.0.is_finite() && g.0 >= 0.0))
        {
            return Some(format!("epoch {e}: bad grant {g}"));
        }
        let total: f64 = round.grants.iter().map(|g| g.0).sum();
        if total > out.feeder_budget.0 + 1e-9 {
            return Some(format!("epoch {e}: Σ grants {total} > feeder budget"));
        }
        for (p, cap) in out.pdu_caps.iter().enumerate() {
            let pdu_sum: f64 = round
                .grants
                .iter()
                .zip(&out.pdu_of)
                .filter(|(_, &q)| q == p)
                .map(|(g, _)| g.0)
                .sum();
            if pdu_sum > cap.0 + 1e-9 {
                return Some(format!("epoch {e}: PDU {p} granted {pdu_sum} > cap {cap}"));
            }
        }
    }
    None
}

#[test]
fn sharded_run_is_bit_identical_to_sequential_including_faults() {
    for topo in [two_pdu_topo(), one_pdu_topo()] {
        let dc = DcScenario::new(faulty_base(7, 90.0), topo).unwrap();
        let racks = dc.topo.num_racks();
        let seq = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
        assert_eq!(overspent_edge(&seq), None, "{racks} racks");
        // 8 workers over 6 racks: more workers than shards; 0: one per core.
        for jobs in [2usize, 4, 8, 0] {
            let par = run_datacenter(&dc, ExecConfig::jobs(jobs)).unwrap();
            assert_eq!(
                par.digest, seq.digest,
                "{racks} racks, jobs={jobs}: datacenter digest diverged from sequential"
            );
            golden::assert_same_floor(&par, &seq, &format!("{racks} racks, jobs={jobs}"));
        }
    }
}

/// Floor racks keep no samples, yet `run_digest` of each rack's output
/// is the digest the engine folded for it: it starts from the streaming
/// recorder's own sample fold.
#[test]
fn floor_rack_run_digests_match_the_engine_rack_digests() {
    let dc = DcScenario::new(faulty_base(3, 60.0), two_pdu_topo()).unwrap();
    let out = run_datacenter(&dc, ExecConfig::jobs(2)).unwrap();
    for (r, rack) in out.racks.iter().enumerate() {
        assert!(rack.recorder.samples().is_empty(), "rack {r} kept samples");
        assert_eq!(rack.recorder.len(), 60, "rack {r} sample count");
        assert_eq!(run_digest(rack), out.rack_digests[r], "rack {r}");
    }
}

/// The 1000-rack floor `bench_datacenter` runs by default reproduces its
/// pinned digest: every rack's run, every market round and the tree's
/// trip and peak-load outcomes.
#[test]
fn the_default_floor_reproduces_the_golden_digest() {
    let out = run_datacenter(&golden::floor(), ExecConfig::jobs(2))
        .expect("the golden floor carries its rated draw");
    assert_eq!(
        out.digest,
        golden::FLOOR_DIGEST,
        "floor digest 0x{:016x} != golden 0x{:016x}",
        out.digest,
        golden::FLOOR_DIGEST
    );
}

#[test]
fn single_rack_datacenter_matches_the_standalone_engine() {
    let mut base = Scenario::paper_default(42);
    base.duration = Seconds(90.0);
    // Edge rating = the overloaded draw: the feeder budget covers the
    // full overload swing, so every grant is bit-transparent.
    let topo = DatacenterTopology::single_rack(Watts(4000.0)).unwrap();
    let dc = DcScenario::new(base.clone(), topo).unwrap();
    let out = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
    let standalone = run_policy(&base, PolicyKind::SprintCon);
    assert_eq!(
        run_digest(&out.racks[0]),
        run_digest(&standalone),
        "single-rack datacenter must reproduce the standalone digest"
    );
    // And the digest is itself reproducible across worker counts (one
    // rack: the map runs it on the calling thread).
    let par = run_datacenter(&dc, ExecConfig::jobs(2)).unwrap();
    assert_eq!(out.digest, par.digest);
}

/// A floor rack streams its samples, so the readers of a whole series
/// refuse it with a typed error instead of answering as if the run had
/// no ticks (a header-only CSV, and a QoS report of perfect attainment
/// whatever backlog the rack had). The same rack run standalone keeps
/// its samples and reports.
#[test]
fn floor_racks_refuse_whole_series_reports() {
    let mut base = Scenario::paper_default(42);
    base.duration = Seconds(90.0);
    let topo = DatacenterTopology::single_rack(Watts(4000.0)).unwrap();
    let dc = DcScenario::new(base.clone(), topo).unwrap();
    let out = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
    let rec = &out.racks[0].recorder;
    assert!(!rec.is_empty());
    let refused = SamplesNotKept { pushed: rec.len() };
    assert_eq!(qos_report(rec, &[0.25]), Err(refused));
    let path =
        std::env::temp_dir().join(format!("sprintcon_floor_rack_{}.csv", std::process::id()));
    match rec.write_csv(&path) {
        Err(CsvError::SamplesNotKept(e)) => assert_eq!(e, refused),
        other => panic!("a streaming recorder wrote its CSV: {other:?}"),
    }
    assert!(!path.exists(), "a refused CSV must not be created");
    let standalone = run_policy(&base, PolicyKind::SprintCon);
    assert!(qos_report(&standalone.recorder, &[0.25]).is_ok());
}

#[test]
fn rack_zero_matches_standalone_even_in_a_multi_rack_floor() {
    // Rack 0 runs the template seed verbatim; with ample headroom at
    // every edge, its grants stay bit-transparent even while five other
    // racks bid in the same market.
    let mut base = Scenario::paper_default(21);
    base.duration = Seconds(60.0);
    let dc = DcScenario::new(base.clone(), ample_topo()).unwrap();
    let out = run_datacenter(&dc, ExecConfig::jobs(3)).unwrap();
    let standalone = run_policy(&base, PolicyKind::SprintCon);
    assert_eq!(run_digest(&out.racks[0]), run_digest(&standalone));
    // Sibling racks run different seeds, hence different trajectories.
    assert_ne!(run_digest(&out.racks[1]), run_digest(&out.racks[0]));
}

/// Workspace reuse across differently shaped auctions is a pure
/// optimization: a warm [`MarketWorkspace`] (scratch sized by earlier,
/// larger markets) must clear every auction bit-identically to a fresh
/// one and to the allocating Vec API. This is the integration-level
/// twin of the engine's internal per-epoch reuse — `market_conserves`
/// and the digest tests above only see the engine's own workspace, so
/// this drives the API shape directly.
#[test]
fn market_workspace_reuse_is_deterministic_across_shapes() {
    let auction = |n: usize, pdus: usize, salt: u64| {
        let bids: Vec<HeadroomBid> = (0..n)
            .map(|i| HeadroomBid {
                id: i,
                request: Watts(200.0 + ((i as u64 * 37 + salt * 11) % 700) as f64),
                priority: 0.1 + ((i as u64 * 13 + salt * 7) % 10) as f64 / 10.0,
            })
            .collect();
        let pdu_of: Vec<usize> = (0..n).map(|i| i % pdus).collect();
        let caps: Vec<Watts> = (0..pdus).map(|p| Watts(600.0 + 150.0 * p as f64)).collect();
        let budget = Watts(900.0 + 50.0 * salt as f64);
        (bids, pdu_of, caps, budget)
    };
    let mut warm = MarketWorkspace::new();
    // Warm the scratch on the largest shape first, then shrink — stale
    // capacity and stale contents must never leak into later clears.
    for (n, pdus, salt) in [(48, 6, 0u64), (9, 3, 1), (17, 4, 2), (3, 1, 3), (30, 5, 4)] {
        let (bids, pdu_of, caps, budget) = auction(n, pdus, salt);
        let warm_out = allocate_headroom_two_level_with(&mut warm, &bids, &pdu_of, &caps, budget);
        let mut fresh = MarketWorkspace::new();
        let fresh_out = allocate_headroom_two_level_with(&mut fresh, &bids, &pdu_of, &caps, budget);
        let vec_api = allocate_headroom_two_level(&bids, &pdu_of, &caps, budget);
        assert_eq!(warm_out.spent.0.to_bits(), fresh_out.spent.0.to_bits());
        assert_eq!(warm_out.granted, fresh_out.granted);
        assert_eq!(warm.grants().len(), n);
        for (i, (w, f)) in warm.grants().iter().zip(fresh.grants()).enumerate() {
            assert_eq!(
                w.0.to_bits(),
                f.0.to_bits(),
                "n={n} salt={salt}: warm grant {i} diverged from fresh"
            );
        }
        for (i, (w, v)) in warm.grants().iter().zip(&vec_api.grants).enumerate() {
            assert_eq!(
                w.0.to_bits(),
                v.0.to_bits(),
                "n={n} salt={salt}: workspace grant {i} diverged from Vec API"
            );
        }
    }
}

/// The grid-plan shapes the ample-tree sweep cycles through. None
/// curtails: a floor curtailment shrinks the market budget below the
/// racks' overload swings, so grants stop being bit-transparent.
fn grid_variant(v: usize, secs: f64) -> GridPlan {
    match v % 3 {
        0 => GridPlan::none(),
        1 => GridPlan::none().with_event(
            Seconds(secs * 0.3),
            Seconds(secs * 0.4),
            GridEventKind::PriceSpike { multiplier: 3.0 },
        ),
        _ => GridPlan::none().with_event(
            Seconds(secs * 0.1),
            Seconds(secs * 0.6),
            GridEventKind::FreqRegulation {
                delta_w: Watts(-400.0),
                duration_s: Seconds(secs * 0.5),
            },
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation at every supervisor boundary, over random floor
    /// shapes and seeds: Σ rack grants never exceeds the feeder budget,
    /// and each PDU's member grants never exceed its cap.
    #[test]
    fn market_conserves_every_edge_budget(
        seed in 0u64..1_000,
        pdus in 1usize..4,
        racks_per_pdu in 1usize..4,
        pdu_swings in 1.0f64..3.0,
        feeder_frac in 0.2f64..1.0,
    ) {
        let mut base = Scenario::paper_default(seed);
        base.duration = Seconds(60.0);
        let pdu_rating = racks_per_pdu as f64 * 3200.0 + pdu_swings * 800.0;
        let n = (pdus * racks_per_pdu) as f64;
        // Feeder headroom: a fraction of the sum of PDU headrooms, so
        // the level-1 auction genuinely rations — but never below any
        // single PDU's rating (the topology validator rejects that).
        let feeder_rating =
            (n * 3200.0 + feeder_frac * pdus as f64 * pdu_swings * 800.0).max(pdu_rating);
        let topo = DatacenterTopology::uniform(
            pdus,
            racks_per_pdu,
            Watts(pdu_rating),
            Watts(feeder_rating),
        )
        .expect("generated topology is valid");
        let dc = DcScenario::new(base, topo).expect("scenario is valid");
        let out = run_datacenter(&dc, ExecConfig::jobs(2)).expect("tree carries rated draw");
        prop_assert!(!out.rounds.is_empty());
        let overspent = overspent_edge(&out);
        prop_assert!(overspent.is_none(), "{:?}", overspent);
    }

    /// Under an ample tree every grant is bit-transparent, so every
    /// floor rack reproduces the standalone run of its own scenario bit
    /// for bit: over seeds, run lengths, batch pressure, fault plans,
    /// grid plans without a curtailment and 0–4 workers. (The engine
    /// pins the SprintCon policy per rack; `job_scale` and the deadline
    /// vary the decisions it takes instead.)
    #[test]
    fn ample_tree_floor_racks_reproduce_standalone_digests(
        seed in 0u64..1_000,
        secs in 45.0f64..95.0,
        job_scale in 0.6f64..1.2,
        faulty_v in 0usize..2,
        grid_v in 0usize..3,
        jobs in 0usize..5,
    ) {
        let mut builder = Scenario::builder(seed)
            .duration(Seconds(secs))
            .deadline(Seconds(secs * 0.8))
            .job_scale(job_scale)
            .grid(grid_variant(grid_v, secs));
        let faulty = faulty_v == 1;
        if faulty {
            builder = builder.faults(FaultPlan::monitor_dropout(0.3, Seconds(8.0)));
        }
        let base = builder.build().expect("generated scenario is valid");
        let dc = DcScenario::new(base, ample_topo()).expect("scenario is valid");
        let out = run_datacenter(&dc, ExecConfig::jobs(jobs)).expect("floor run succeeds");
        for (r, &digest) in out.rack_digests.iter().enumerate() {
            let standalone = run_policy(&dc.rack_scenario(r), PolicyKind::SprintCon);
            prop_assert!(
                digest == run_digest(&standalone),
                "rack {} diverged from standalone (seed {}, {:.0}s, faulty {}, grid {}, jobs {})",
                r, seed, secs, faulty, grid_v, jobs
            );
        }
    }
}
