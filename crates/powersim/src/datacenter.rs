//! Feeder-tree datacenter topology: utility feeder → PDUs → racks.
//!
//! The single-rack world of [`crate::topology::PowerFeed`] stays intact
//! as the leaf — every rack keeps its own breaker + UPS feed — and this
//! module adds the two levels above it: each PDU edge and the feeder
//! edge carry their own inverse-time [`CircuitBreaker`], so a sprint
//! that is safe for one rack's breaker can still overload the shared
//! infrastructure if too many racks sprint at once. That shared-budget
//! tension is what the cross-rack headroom market (see
//! `core::dc_market`) manages: the feeder's headroom above the sum of
//! rack ratings is a scarce resource auctioned across racks each
//! supervisor period.
//!
//! The tree is static (no re-cabling mid-run) and validated at
//! construction; stepping it is pure aggregation — per-PDU sums of the
//! rack-level breaker powers through the PDU breakers, then the feeder
//! breaker — so a datacenter step is O(racks) with no allocation after
//! construction.

use crate::breaker::{BreakerSpec, CircuitBreaker};
use crate::units::{Seconds, Watts};

/// One power-distribution unit: a rated edge feeding a contiguous run
/// of racks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PduSpec {
    /// Continuous rating of the PDU edge (its breaker's rated load).
    pub rating: Watts,
    /// Number of racks fed by this PDU.
    pub num_racks: usize,
}

/// Structural description of the feeder tree. Racks are numbered
/// globally `0..num_racks()`, PDU-major: PDU 0 owns racks
/// `0..pdus\[0\].num_racks`, PDU 1 the next run, and so on.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterTopology {
    /// Continuous rating of the utility feeder edge.
    pub feeder_rating: Watts,
    /// The PDUs, in rack-numbering order.
    pub pdus: Vec<PduSpec>,
}

/// Why a topology is not buildable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The tree has no PDUs.
    NoPdus,
    /// PDU `{0}` feeds zero racks.
    EmptyPdu(usize),
    /// A rating is non-positive or non-finite (`{0}` names the edge).
    BadRating(&'static str),
    /// A single PDU's rating exceeds the feeder rating, which would make
    /// the PDU breaker unreachable by design.
    PduExceedsFeeder(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoPdus => write!(f, "topology has no PDUs"),
            TopologyError::EmptyPdu(p) => write!(f, "PDU {p} feeds zero racks"),
            TopologyError::BadRating(edge) => {
                write!(f, "{edge} rating must be positive and finite")
            }
            TopologyError::PduExceedsFeeder(p) => {
                write!(f, "PDU {p} rating exceeds the feeder rating")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl DatacenterTopology {
    /// Validate and wrap an explicit PDU list.
    pub fn new(feeder_rating: Watts, pdus: Vec<PduSpec>) -> Result<Self, TopologyError> {
        let t = DatacenterTopology {
            feeder_rating,
            pdus,
        };
        t.validate()?;
        Ok(t)
    }

    /// A uniform tree: `num_pdus` PDUs of `pdu_rating`, each feeding
    /// `racks_per_pdu` racks.
    pub fn uniform(
        num_pdus: usize,
        racks_per_pdu: usize,
        pdu_rating: Watts,
        feeder_rating: Watts,
    ) -> Result<Self, TopologyError> {
        DatacenterTopology::new(
            feeder_rating,
            vec![
                PduSpec {
                    rating: pdu_rating,
                    num_racks: racks_per_pdu,
                };
                num_pdus
            ],
        )
    }

    /// The degenerate one-rack tree used by the single-rack equivalence
    /// gate: one PDU, one rack, edges rated at `edge_rating`.
    pub fn single_rack(edge_rating: Watts) -> Result<Self, TopologyError> {
        DatacenterTopology::uniform(1, 1, edge_rating, edge_rating)
    }

    /// Structural checks; [`Self::new`] runs this for you.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.pdus.is_empty() {
            return Err(TopologyError::NoPdus);
        }
        if !(self.feeder_rating.0 > 0.0 && self.feeder_rating.is_finite()) {
            return Err(TopologyError::BadRating("feeder"));
        }
        for (p, pdu) in self.pdus.iter().enumerate() {
            if pdu.num_racks == 0 {
                return Err(TopologyError::EmptyPdu(p));
            }
            if !(pdu.rating.0 > 0.0 && pdu.rating.is_finite()) {
                return Err(TopologyError::BadRating("PDU"));
            }
            if pdu.rating.0 > self.feeder_rating.0 {
                return Err(TopologyError::PduExceedsFeeder(p));
            }
        }
        Ok(())
    }

    pub fn num_pdus(&self) -> usize {
        self.pdus.len()
    }

    pub fn num_racks(&self) -> usize {
        self.pdus.iter().map(|p| p.num_racks).sum()
    }

    /// Which PDU feeds global rack `rack`.
    pub fn pdu_of_rack(&self, rack: usize) -> usize {
        let mut start = 0;
        for (p, pdu) in self.pdus.iter().enumerate() {
            if rack < start + pdu.num_racks {
                return p;
            }
            start += pdu.num_racks;
        }
        panic!(
            "rack {rack} out of range (num_racks = {})",
            self.num_racks()
        );
    }

    /// Global rack-index range fed by PDU `pdu`.
    pub fn racks_of_pdu(&self, pdu: usize) -> std::ops::Range<usize> {
        assert!(pdu < self.pdus.len(), "PDU {pdu} out of range");
        let start: usize = self.pdus[..pdu].iter().map(|p| p.num_racks).sum();
        start..start + self.pdus[pdu].num_racks
    }
}

/// The feeder-edge part of one aggregation step — what
/// [`Datacenter::step_pdu_loads`] returns by value; the per-PDU outputs
/// land in caller-owned slices so replay loops allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeederTick {
    /// Load offered to the feeder breaker (Σ of PDU deliveries).
    pub feeder_load: Watts,
    /// The feeder breaker tripped during this step.
    pub feeder_tripped: bool,
}

/// The live feeder tree: the static topology plus one [`CircuitBreaker`]
/// per PDU edge and one on the feeder edge. Rack edges live inside each
/// rack's own [`crate::topology::PowerFeed`] and are *not* duplicated
/// here.
#[derive(Debug, Clone)]
pub struct Datacenter {
    topo: DatacenterTopology,
    pdu_breakers: Vec<CircuitBreaker>,
    feeder_breaker: CircuitBreaker,
}

impl Datacenter {
    /// Build the tree with every shared edge calibrated like the rack
    /// breakers: tolerate `overload_degree` × rated for `trip_after`
    /// before tripping, recover in `recovery`.
    pub fn new(
        topo: DatacenterTopology,
        overload_degree: f64,
        trip_after: Seconds,
        recovery: Seconds,
    ) -> Result<Self, TopologyError> {
        topo.validate()?;
        let pdu_breakers = topo
            .pdus
            .iter()
            .map(|p| {
                CircuitBreaker::new(BreakerSpec::calibrated(
                    p.rating,
                    overload_degree,
                    trip_after,
                    recovery,
                ))
            })
            .collect();
        let feeder_breaker = CircuitBreaker::new(BreakerSpec::calibrated(
            topo.feeder_rating,
            overload_degree,
            trip_after,
            recovery,
        ));
        Ok(Datacenter {
            topo,
            pdu_breakers,
            feeder_breaker,
        })
    }

    /// The tree with the paper's breaker calibration on every shared
    /// edge (1.25 × rated tolerated for 150 s, 300 s recovery — the same
    /// constants as [`BreakerSpec::paper_default`] at rack level).
    pub fn paper_calibrated(topo: DatacenterTopology) -> Result<Self, TopologyError> {
        Datacenter::new(topo, 1.25, Seconds(150.0), Seconds(300.0))
    }

    pub fn topology(&self) -> &DatacenterTopology {
        &self.topo
    }

    pub fn feeder_breaker(&self) -> &CircuitBreaker {
        &self.feeder_breaker
    }

    pub fn pdu_breaker(&self, pdu: usize) -> &CircuitBreaker {
        &self.pdu_breakers[pdu]
    }

    /// Aggregate one step: `pdu_loads[p]` is the power PDU `p`'s racks
    /// drew through their own breakers during the interval, summed by the
    /// caller (UPS contributions never touch the shared tree). Per-PDU
    /// deliveries and trip flags land in the caller's slices, so the step
    /// allocates nothing; the sum of PDU deliveries loads the feeder
    /// breaker, whose edge comes back by value. Breakers are stepped in
    /// PDU order, then the feeder.
    pub fn step_pdu_loads(
        &mut self,
        pdu_loads: &[f64],
        dt: Seconds,
        delivered_out: &mut [f64],
        tripped_out: &mut [bool],
    ) -> FeederTick {
        let n = self.pdu_breakers.len();
        assert_eq!(pdu_loads.len(), n, "PDU load vector shape mismatch");
        assert_eq!(delivered_out.len(), n, "delivered slice shape mismatch");
        assert_eq!(tripped_out.len(), n, "tripped slice shape mismatch");
        let mut feeder_load = 0.0;
        for (p, brk) in self.pdu_breakers.iter_mut().enumerate() {
            let out = brk.step(Watts(pdu_loads[p]), dt);
            feeder_load += out.delivered.0;
            delivered_out[p] = out.delivered.0;
            tripped_out[p] = out.tripped;
        }
        let feeder_out = self.feeder_breaker.step(Watts(feeder_load), dt);
        FeederTick {
            feeder_load: Watts(feeder_load),
            feeder_tripped: feeder_out.tripped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_2x3() -> DatacenterTopology {
        DatacenterTopology::uniform(2, 3, Watts(12_000.0), Watts(20_000.0))
            .expect("uniform tree is valid")
    }

    #[test]
    fn rack_numbering_is_pdu_major() {
        let t = topo_2x3();
        assert_eq!(t.num_pdus(), 2);
        assert_eq!(t.num_racks(), 6);
        assert_eq!(t.pdu_of_rack(0), 0);
        assert_eq!(t.pdu_of_rack(2), 0);
        assert_eq!(t.pdu_of_rack(3), 1);
        assert_eq!(t.pdu_of_rack(5), 1);
        assert_eq!(t.racks_of_pdu(0), 0..3);
        assert_eq!(t.racks_of_pdu(1), 3..6);
    }

    #[test]
    fn validation_rejects_bad_trees() {
        assert_eq!(
            DatacenterTopology::new(Watts(100.0), vec![]),
            Err(TopologyError::NoPdus)
        );
        assert_eq!(
            DatacenterTopology::new(
                Watts(100.0),
                vec![PduSpec {
                    rating: Watts(50.0),
                    num_racks: 0
                }]
            ),
            Err(TopologyError::EmptyPdu(0))
        );
        assert_eq!(
            DatacenterTopology::new(
                Watts(100.0),
                vec![PduSpec {
                    rating: Watts(-1.0),
                    num_racks: 1
                }]
            ),
            Err(TopologyError::BadRating("PDU"))
        );
        assert_eq!(
            DatacenterTopology::new(
                Watts(100.0),
                vec![PduSpec {
                    rating: Watts(200.0),
                    num_racks: 1
                }]
            ),
            Err(TopologyError::PduExceedsFeeder(0))
        );
        assert!(DatacenterTopology::single_rack(Watts(3200.0)).is_ok());
    }

    /// One 1 s step from per-PDU loads: deliveries, trip flags and the
    /// feeder edge.
    fn step(dc: &mut Datacenter, pdu_loads: &[f64]) -> (Vec<f64>, Vec<bool>, FeederTick) {
        let n = pdu_loads.len();
        let (mut delivered, mut tripped) = (vec![0.0; n], vec![false; n]);
        let feeder = dc.step_pdu_loads(pdu_loads, Seconds(1.0), &mut delivered, &mut tripped);
        (delivered, tripped, feeder)
    }

    #[test]
    fn sustained_pdu_overload_trips_only_that_pdu() {
        let mut dc = Datacenter::paper_calibrated(topo_2x3()).expect("valid");
        // PDU 0 at 1.5 × rated, PDU 1 idle: PDU 0 trips on the curve,
        // PDU 1 and the feeder stay closed.
        let loads = [18_000.0, 0.0];
        let mut tripped_at = None;
        for s in 0..600 {
            let (_, tripped, _) = step(&mut dc, &loads);
            if tripped[0] {
                tripped_at = Some(s);
                break;
            }
        }
        assert!(tripped_at.is_some(), "PDU 0 must trip");
        assert!(!dc.pdu_breaker(0).is_closed());
        assert!(dc.pdu_breaker(1).is_closed());
        assert!(dc.feeder_breaker().is_closed());
        // Open PDU delivers nothing, so the feeder load collapses.
        let (delivered, _, feeder) = step(&mut dc, &loads);
        assert_eq!(delivered[0], 0.0);
        assert_eq!(feeder.feeder_load, Watts::ZERO);
    }

    #[test]
    fn feeder_trips_when_all_pdus_sprint_within_their_own_ratings() {
        // The cross-rack tension in one test: each PDU at 1.1 × its
        // rating would survive alone, but together they hold the feeder
        // at 1.32 × rated and it trips first.
        let t = DatacenterTopology::uniform(2, 1, Watts(10_000.0), Watts(16_000.0))
            .expect("valid tree");
        let mut dc = Datacenter::paper_calibrated(t).expect("valid");
        let mut feeder_tripped = false;
        for _ in 0..2000 {
            let (_, tripped, feeder) = step(&mut dc, &[10_500.0, 10_500.0]);
            assert!(!tripped.iter().any(|&t| t), "PDUs must hold");
            if feeder.feeder_tripped {
                feeder_tripped = true;
                break;
            }
        }
        assert!(feeder_tripped, "the shared feeder must be the binding edge");
    }
}
