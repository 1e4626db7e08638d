//! Bit-identity of the incremental power probes.
//!
//! The probes re-evaluate one server per candidate instead of the whole
//! rack. These properties pin them to the whole-vector evaluations they
//! replace: the plant itself for the oracle, and the original
//! single-running-sum estimate loop (kept here as the reference) for the
//! calibrated estimator, across random racks, out-of-range inputs and
//! random single-core move sequences — and pin the probe-driven greedy
//! walk to the same walk driven through those references.

use baselines::{
    cooperative_threshold, rank_cores, Assignment, CalibratedRackEstimator, EstimateProbe,
    OracleProbe, PowerProbe, ProbeBuffers, SprintRanking,
};
use powersim::cpu::CoreRole;
use powersim::rack::{CoreId, Rack};
use powersim::server::ServerSpec;
use powersim::units::{NormFreq, Watts};
use proptest::prelude::*;
use std::cmp::Ordering;

/// The whole-vector calibrated estimate: one running sum over every
/// server's idle, per-core active and non-CPU terms.
fn reference_estimate(est: &CalibratedRackEstimator, rack: &Rack, freqs: &[NormFreq]) -> Watts {
    assert_eq!(freqs.len(), rack.num_cores(), "one frequency per core");
    let iv = rack.role(CoreRole::Interactive);
    let bv = rack.role(CoreRole::Batch);
    let cps = rack.cores_per_server();
    let m = cps as f64;
    let mut total = 0.0;
    for s in 0..rack.num_servers() {
        total += est.idle_per_server;
        let mut tp = 0.0;
        let base = s * cps;
        let utils = iv.server_utils(s).iter().chain(bv.server_utils(s));
        for (k, &util) in utils.enumerate() {
            let f = freqs[base + k].0.clamp(0.0, 1.0);
            let u = util.clamp(0.0, 1.0);
            let shape = est.cubic_fraction * f.powi(3) + (1.0 - est.cubic_fraction) * f;
            total += est.cpu_peak_per_core * shape * u;
            tp += f * u;
        }
        total += est.noncpu_span * (tp / m);
    }
    Watts(total)
}

/// The plant under ideal actuation: the candidate frequencies, clamped
/// into `[0, 1]`, written unquantized into a clone of the rack.
fn plant_power(rack: &Rack, freqs: &[NormFreq]) -> Watts {
    let mut plant = rack.clone();
    let cps = plant.cores_per_server();
    for (idx, &f) in freqs.iter().enumerate() {
        let id = CoreId {
            server: idx / cps,
            core: idx % cps,
        };
        plant.set_freq_unquantized(id, f.clamp(NormFreq(0.0), NormFreq(1.0)));
    }
    plant.power()
}

/// The greedy cooperative-threshold walk, re-evaluating the whole
/// candidate vector through `power_of` at every step.
fn reference_walk(
    rack: &Rack,
    ranked: &[CoreId],
    f_nom: NormFreq,
    budget: Watts,
    fractional: bool,
    power_of: &dyn Fn(&[NormFreq]) -> Watts,
) -> Assignment {
    let cps = rack.cores_per_server();
    let mut freqs = vec![f_nom; rack.num_cores()];
    let mut power = power_of(&freqs);
    let mut sprinted = 0;
    if power.0 > budget.0 {
        return Assignment {
            freqs,
            sprinted,
            predicted_power: power,
        };
    }
    for id in ranked {
        let i = id.server * cps + id.core;
        let prev = freqs[i];
        freqs[i] = NormFreq::PEAK;
        let with = power_of(&freqs);
        if with.0 <= budget.0 {
            power = with;
            sprinted += 1;
            continue;
        }
        if fractional {
            let mut lo = prev.0;
            let mut hi = 1.0;
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                freqs[i] = NormFreq(mid);
                if power_of(&freqs).0 <= budget.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            freqs[i] = NormFreq(lo);
            power = power_of(&freqs);
        } else {
            freqs[i] = prev;
        }
        break;
    }
    Assignment {
        freqs,
        sprinted,
        predicted_power: power,
    }
}

/// A rack of `servers` paper servers with `ipc_raw % 9` interactive cores
/// each (0 to all 8), its raw utilization lanes written from `utils`
/// (cycled), so they may lie outside `[0, 1]`.
fn random_rack(servers: usize, ipc_raw: usize, utils: &[f64]) -> Rack {
    let mut rack =
        Rack::new(ServerSpec::paper_default(), servers, ipc_raw % 9).expect("valid rack");
    for role in [CoreRole::Interactive, CoreRole::Batch] {
        let offset = rack.role_range(role).start;
        for (k, u) in rack.role_mut(role).utils.iter_mut().enumerate() {
            *u = utils[(offset + k) % utils.len()];
        }
    }
    rack
}

/// The ranking as a comparator sort over per-comparison lane lookups:
/// a NaN utilization after every comparable one, whatever the class;
/// then descending (class, utilization, tie), ascending `CoreId`.
fn reference_ranking(rack: &Rack, ranking: SprintRanking) -> Vec<CoreId> {
    let mut ids: Vec<CoreId> = (0..rack.num_servers())
        .flat_map(|server| (0..rack.cores_per_server()).map(move |core| CoreId { server, core }))
        .collect();
    let key = |id: &CoreId| -> (u8, f64, u8) {
        let batch = rack.role_of(*id) == CoreRole::Batch;
        let (class, tie) = match ranking {
            SprintRanking::ByUtilization => (0, u8::from(batch)),
            SprintRanking::InteractiveFirst => (u8::from(!batch), 0),
        };
        (class, rack.util(*id).0, tie)
    };
    ids.sort_by(|a, b| {
        let (ca, ua, ta) = key(a);
        let (cb, ub, tb) = key(b);
        // Two NaNs are the only incomparable pair: they tie on utilization.
        ua.is_nan()
            .cmp(&ub.is_nan())
            .then(cb.cmp(&ca))
            .then(ub.partial_cmp(&ua).unwrap_or(Ordering::Equal))
            .then(tb.cmp(&ta))
            .then(a.cmp(b))
    });
    ids
}

fn bits(a: &Assignment) -> (Vec<u64>, usize, u64) {
    (
        a.freqs.iter().map(|f| f.0.to_bits()).collect(),
        a.sprinted,
        a.predicted_power.0.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ranking by precomputed keys orders every rack exactly as the
    /// comparator sort, ties, signed zeros and NaN included.
    #[test]
    fn ranking_matches_comparator_order(
        servers in 1usize..=16,
        ipc_raw in 0usize..9,
        picks in proptest::collection::vec(0usize..9, 1..64),
        interactive_first in proptest::bool::ANY,
    ) {
        // Few distinct values, so exact ties (and -0.0 vs +0.0) are common.
        const VALUES: [f64; 9] = [-0.0, 0.0, 0.3, 0.65, 0.97, 1.0, -0.2, 1.3, f64::NAN];
        let utils: Vec<f64> = picks.iter().map(|&k| VALUES[k]).collect();
        let rack = random_rack(servers, ipc_raw, &utils);
        let ranking = if interactive_first {
            SprintRanking::InteractiveFirst
        } else {
            SprintRanking::ByUtilization
        };
        prop_assert_eq!(rank_cores(&rack, ranking), reference_ranking(&rack, ranking));
    }

    /// Every `reset` and every single-core `set` returns exactly the bits
    /// of the whole-vector evaluation of the updated candidate.
    #[test]
    fn probes_match_whole_vector_evaluation(
        servers in 1usize..=16,
        ipc_raw in 0usize..9,
        utils in proptest::collection::vec(-0.5f64..=1.5, 1..64),
        start in proptest::collection::vec(-0.5f64..=1.5, 1..16),
        moves in proptest::collection::vec(0usize..128, 1..48),
        move_freqs in proptest::collection::vec(-0.5f64..=1.5, 48),
    ) {
        let rack = random_rack(servers, ipc_raw, &utils);
        let est = CalibratedRackEstimator::from_spec(rack.spec());
        let n = rack.num_cores();
        let mut freqs: Vec<NormFreq> =
            (0..n).map(|i| NormFreq(start[i % start.len()])).collect();
        let (mut ob, mut eb) = (ProbeBuffers::default(), ProbeBuffers::default());
        let mut oracle = OracleProbe::new(&rack, &mut ob);
        let mut estimate = EstimateProbe::new(est, &rack, &mut eb);
        let p = oracle.reset(&freqs);
        prop_assert_eq!(p.0.to_bits(), plant_power(&rack, &freqs).0.to_bits());
        let p = estimate.reset(&freqs);
        prop_assert_eq!(p.0.to_bits(), reference_estimate(&est, &rack, &freqs).0.to_bits());
        for (&core, &f) in moves.iter().zip(&move_freqs) {
            let core = core % n;
            freqs[core] = NormFreq(f);
            let p = oracle.set(core, NormFreq(f));
            prop_assert_eq!(p.0.to_bits(), plant_power(&rack, &freqs).0.to_bits());
            let p = estimate.set(core, NormFreq(f));
            prop_assert_eq!(
                p.0.to_bits(),
                reference_estimate(&est, &rack, &freqs).0.to_bits()
            );
        }
        // The one-shot wrappers are the probes' `reset`.
        prop_assert_eq!(
            baselines::oracle_power(&rack, &freqs).0.to_bits(),
            plant_power(&rack, &freqs).0.to_bits()
        );
        prop_assert_eq!(
            est.estimate(&rack, &freqs).0.to_bits(),
            reference_estimate(&est, &rack, &freqs).0.to_bits()
        );
    }

    /// The probe-driven greedy walk makes the same assignment, bit for
    /// bit, as the walk re-evaluating the whole rack per candidate.
    #[test]
    fn probe_walk_matches_whole_vector_walk(
        servers in 1usize..=16,
        ipc_raw in 0usize..9,
        utils in proptest::collection::vec(-0.5f64..=1.5, 1..64),
        f_nom in 0.1f64..=1.1,
        budget_frac in -0.1f64..=1.1,
        interactive_first in proptest::bool::ANY,
        fractional in proptest::bool::ANY,
    ) {
        let rack = random_rack(servers, ipc_raw, &utils);
        let est = CalibratedRackEstimator::from_spec(rack.spec());
        let ranking = if interactive_first {
            SprintRanking::InteractiveFirst
        } else {
            SprintRanking::ByUtilization
        };
        let ranked = rank_cores(&rack, ranking);
        let n = rack.num_cores();
        let f_nom = NormFreq(f_nom);
        let mut buf = ProbeBuffers::default();

        let lo = reference_estimate(&est, &rack, &vec![f_nom; n]).0;
        let hi = reference_estimate(&est, &rack, &vec![NormFreq::PEAK; n]).0;
        let budget = Watts(lo + budget_frac * (hi - lo));
        let got = cooperative_threshold(
            &rack, &ranked, f_nom, budget, fractional,
            &mut EstimateProbe::new(est, &rack, &mut buf),
        );
        let want = reference_walk(&rack, &ranked, f_nom, budget, fractional, &|f| {
            reference_estimate(&est, &rack, f)
        });
        prop_assert_eq!(bits(&got), bits(&want));

        // The same buffers, re-used by the other model.
        let lo = plant_power(&rack, &vec![f_nom; n]).0;
        let hi = plant_power(&rack, &vec![NormFreq::PEAK; n]).0;
        let budget = Watts(lo + budget_frac * (hi - lo));
        let got = cooperative_threshold(
            &rack, &ranked, f_nom, budget, fractional,
            &mut OracleProbe::new(&rack, &mut buf),
        );
        let want = reference_walk(&rack, &ranked, f_nom, budget, fractional, &|f| {
            plant_power(&rack, f)
        });
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
