//! The sprinting game's Cooperative Threshold assignment \[2\].
//!
//! Each epoch, cores "bid" for sprint power; the cooperative solution
//! maximizes system performance by sprinting the cores with the highest
//! demand until the power budget is exhausted. Following §VI-B we use
//! processor utilization as the demand metric, and rank either purely by
//! utilization (SGCT, SGCT-V1) or interactive-first (SGCT-V2).

use crate::estimate::PowerProbe;
use powersim::cpu::CoreRole;
use powersim::rack::{CoreId, Rack};
use powersim::units::{NormFreq, Watts};

/// How cores are ranked when bidding for sprint power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprintRanking {
    /// Pure utilization order (higher utilization = higher demand). Batch
    /// cores — always busy — win ties, which is what makes the
    /// customized SGCT favor batch work (§VI-B).
    ByUtilization,
    /// Interactive cores first (each group utilization-ordered) — the
    /// SGCT-V2 customization.
    InteractiveFirst,
}

/// One run's ranking key, computed once per epoch: ascending `u128`
/// order is priority order.
///
/// From the top bit down: a NaN flag (a NaN utilization ranks after
/// every other core), then class, utilization and tie, each complemented
/// so that higher values rank first, then the run's number ascending.
/// Runs are numbered in rack-index order, so the number is the `CoreId`
/// tiebreak that makes the order total. Utilization enters as its
/// order-preserving bit pattern with `-0.0` folded onto `+0.0`, so
/// non-NaN values order exactly as `partial_cmp` orders them (which
/// `f64::total_cmp` would not: it splits the two zeros).
fn rank_key(class: u8, util: f64, tie: u8, run: usize) -> u128 {
    let nan = util.is_nan();
    let util_order = if nan {
        0
    } else {
        let bits = if util == 0.0 { 0 } else { util.to_bits() };
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    };
    debug_assert!(run <= u32::MAX as usize, "run number fits the key");
    u128::from(nan) << 112
        | u128::from(!class) << 104
        | u128::from(!util_order) << 40
        | u128::from(!tie) << 32
        | run as u128
}

/// Reusable ranking storage, kept across epochs so re-ranking allocates
/// nothing once warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreRanking {
    /// Each run's first core and length, in rack-index order.
    runs: Vec<(CoreId, usize)>,
    /// One key per run.
    keys: Vec<u128>,
    order: Vec<CoreId>,
}

impl CoreRanking {
    /// Rank every core of the rack for this epoch, highest priority
    /// first (see [`rank_cores`]).
    ///
    /// Consecutive cores of a server row with equal utilizations form a
    /// run. Their per-core keys would agree above the index, so one key
    /// per run is sorted. Runs are disjoint index ranges, so expanding
    /// each sorted run in index order is exactly the per-core key order.
    /// On paper traffic every row is one run; a batch row splits only
    /// where a job has finished.
    pub(crate) fn rank(&mut self, rack: &Rack, ranking: SprintRanking) -> &[CoreId] {
        let rows = [rack.role(CoreRole::Interactive), rack.role(CoreRole::Batch)];
        // (class, tie) of the interactive and batch rows.
        let classes = match ranking {
            // §VI-B: utilization is the demand metric; batch cores (which
            // never idle between requests) win *exact* ties only.
            SprintRanking::ByUtilization => [(0, 0), (0, 1)],
            // SGCT-V2: interactive cores outrank batch outright, each
            // group utilization-ordered.
            SprintRanking::InteractiveFirst => [(1, 0), (0, 0)],
        };
        self.runs.clear();
        self.keys.clear();
        for server in 0..rack.num_servers() {
            let mut core = 0;
            for (view, (class, tie)) in rows.iter().zip(classes) {
                // `==` keeps every NaN a run of its own, which is still
                // exact: splitting a run never changes the order.
                for run in view.server_utils(server).chunk_by(|a, b| a == b) {
                    self.keys
                        .push(rank_key(class, run[0], tie, self.runs.len()));
                    self.runs.push((CoreId { server, core }, run.len()));
                    core += run.len();
                }
            }
        }
        // The keys are distinct, so the unstable sort yields the one
        // ranking.
        self.keys.sort_unstable();
        self.order.clear();
        for &key in &self.keys {
            let (first, len) = self.runs[(key & u128::from(u32::MAX)) as usize];
            self.order
                .extend((first.core..first.core + len).map(|core| CoreId {
                    server: first.server,
                    core,
                }));
        }
        &self.order
    }
}

/// Rank every core of the rack for this epoch, highest priority first.
///
/// A core whose utilization is NaN (a corrupt measurement) is treated as
/// having no demand: it ranks after every core with a comparable
/// utilization, whatever its class, rather than aborting the epoch.
pub fn rank_cores(rack: &Rack, ranking: SprintRanking) -> Vec<CoreId> {
    let mut r = CoreRanking::default();
    r.rank(rack, ranking);
    r.order
}

/// Result of one cooperative-threshold assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Frequency command per core, rack order (server-major).
    pub freqs: Vec<NormFreq>,
    /// Cores granted a full sprint.
    pub sprinted: usize,
    /// Power the deciding model predicts for this assignment.
    pub predicted_power: Watts,
}

/// Greedy cooperative-threshold assignment: walk the ranked list,
/// promoting cores from `f_nom` to peak while the predicted power stays
/// within `budget`. When `fractional` is set (the idealized variants),
/// the first core that does not fit whole gets the exact intermediate
/// frequency that exhausts the budget.
///
/// `probe` is the deciding power model over `rack`'s utilizations; each
/// candidate moves one core, so the walk re-evaluates one server per
/// candidate rather than the whole rack.
pub fn cooperative_threshold(
    rack: &Rack,
    ranked: &[CoreId],
    f_nom: NormFreq,
    budget: Watts,
    fractional: bool,
    probe: &mut impl PowerProbe,
) -> Assignment {
    let total_cores = rack.num_cores();
    assert_eq!(ranked.len(), total_cores, "ranking must cover every core");
    let index = |id: &CoreId| -> usize {
        // Server-major layout with homogeneous servers.
        id.server * rack.cores_per_server() + id.core
    };

    let mut freqs = vec![f_nom; total_cores];
    let mut power = probe.reset(&freqs);
    let mut sprinted = 0;
    if power.0 > budget.0 {
        // Even the nominal configuration exceeds the budget — nothing to
        // sprint; the schedule owner deals with it.
        return Assignment {
            freqs,
            sprinted: 0,
            predicted_power: power,
        };
    }
    for id in ranked {
        let i = index(id);
        let prev = freqs[i];
        freqs[i] = NormFreq::PEAK;
        let with = probe.set(i, NormFreq::PEAK);
        if with.0 <= budget.0 {
            power = with;
            sprinted += 1;
            continue;
        }
        if fractional {
            // Fixed 40-step bisection of the [prev, 1] bracket for the
            // highest frequency that still meets the budget: both models
            // grow with this core's frequency, and 40 halvings leave a
            // bracket of (1 − prev)·2⁻⁴⁰.
            let mut lo = prev.0;
            let mut hi = 1.0;
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if probe.set(i, NormFreq(mid)).0 <= budget.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            freqs[i] = NormFreq(lo);
            power = probe.set(i, freqs[i]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{
        oracle_power, CalibratedRackEstimator, EstimateProbe, OracleProbe, ProbeBuffers,
    };
    use powersim::server::ServerSpec;
    use powersim::units::Utilization;

    fn rack() -> Rack {
        let mut rk = Rack::new(ServerSpec::paper_default(), 2, 4).expect("valid rack");
        // Interactive cores moderately busy, batch cores saturated.
        for id in rk.cores_with_role(CoreRole::Interactive) {
            rk.set_util(id, Utilization(0.6));
        }
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(1.0));
        }
        rk
    }

    fn est() -> CalibratedRackEstimator {
        CalibratedRackEstimator::from_spec(&ServerSpec::paper_default())
    }

    #[test]
    fn by_utilization_puts_batch_first() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let first_eight: Vec<CoreRole> = ranked[..8].iter().map(|id| rk.role_of(*id)).collect();
        assert!(first_eight.iter().all(|r| *r == CoreRole::Batch));
    }

    #[test]
    fn interactive_first_overrides_utilization() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::InteractiveFirst);
        let first_eight: Vec<CoreRole> = ranked[..8].iter().map(|id| rk.role_of(*id)).collect();
        assert!(first_eight.iter().all(|r| *r == CoreRole::Interactive));
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let rk = rack();
        let a = rank_cores(&rk, SprintRanking::ByUtilization);
        let b = rank_cores(&rk, SprintRanking::ByUtilization);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "every core ranked exactly once");
    }

    #[test]
    fn big_budget_sprints_everyone() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let mut buf = ProbeBuffers::default();
        let mut probe = EstimateProbe::new(est(), &rk, &mut buf);
        let a = cooperative_threshold(
            &rk,
            &ranked,
            NormFreq(0.5),
            Watts(10_000.0),
            false,
            &mut probe,
        );
        assert_eq!(a.sprinted, 16);
        assert!(a.freqs.iter().all(|f| (f.0 - 1.0).abs() < 1e-12));
    }

    #[test]
    fn tight_budget_sprints_only_the_top() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        // Nominal config power + a bit: room for only a few sprints.
        let nominal = est().estimate(&rk, &[NormFreq(0.5); 16]);
        let budget = Watts(nominal.0 + 40.0);
        let mut buf = ProbeBuffers::default();
        let mut probe = EstimateProbe::new(est(), &rk, &mut buf);
        let a = cooperative_threshold(&rk, &ranked, NormFreq(0.5), budget, false, &mut probe);
        assert!(a.sprinted > 0 && a.sprinted < 16, "sprinted={}", a.sprinted);
        assert!(a.predicted_power.0 <= budget.0 + 1e-9);
        // The sprinted cores are exactly the top of the ranking.
        for (rank, id) in ranked.iter().enumerate() {
            let i = id.server * 8 + id.core;
            if rank < a.sprinted {
                assert_eq!(a.freqs[i], NormFreq::PEAK);
            }
        }
    }

    #[test]
    fn fractional_assignment_exhausts_the_budget_exactly() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let nominal = oracle_power(&rk, &[NormFreq(0.5); 16]);
        let budget = Watts(nominal.0 + 55.0);
        let mut buf = ProbeBuffers::default();
        let mut probe = OracleProbe::new(&rk, &mut buf);
        let a = cooperative_threshold(&rk, &ranked, NormFreq(0.5), budget, true, &mut probe);
        // Power lands on the budget to within the bisection tolerance.
        assert!(
            (a.predicted_power.0 - budget.0).abs() < 0.5,
            "p={} budget={}",
            a.predicted_power,
            budget
        );
        // Exactly one core sits strictly between nominal and peak.
        let partial = a
            .freqs
            .iter()
            .filter(|f| f.0 > 0.5 + 1e-9 && f.0 < 1.0 - 1e-9)
            .count();
        assert_eq!(partial, 1);
    }

    #[test]
    fn impossible_budget_returns_nominal() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let mut buf = ProbeBuffers::default();
        let mut probe = EstimateProbe::new(est(), &rk, &mut buf);
        let a = cooperative_threshold(&rk, &ranked, NormFreq(0.5), Watts(10.0), false, &mut probe);
        assert_eq!(a.sprinted, 0);
        assert!(a.freqs.iter().all(|f| (f.0 - 0.5).abs() < 1e-12));
    }
}
