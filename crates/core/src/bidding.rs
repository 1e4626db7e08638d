//! Headroom markets for the datacenter floor.
//!
//! §IV-C says that when the energy storage runs out, `P_cb` becomes the
//! power target for *all* workloads and "different workloads can bid for
//! power as in \[2\]". Within a rack, the supervisor's `UpsConserve` mode
//! does that by throttling: batch cores drop to the DVFS floor and the
//! interactive cores are scaled until the rack fits `P_cb`.
//!
//! This module runs the auction one and two levels up: racks bid watts
//! of *overload headroom* against the shared PDU and feeder edges
//! ([`HeadroomBid`] / [`allocate_headroom_two_level_with`]). Each level
//! is greedy by value, ties
//! broken by id, with the marginal bidder granted the exact fraction that
//! exhausts the budget, so a market round is a pure function of its
//! inputs and safe to run at supervisor boundaries between parallel rack
//! shards.

use powersim::units::Watts;

/// One participant's bid for shared overload headroom (a rack bidding at
/// its PDU, or a PDU bidding at the feeder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadroomBid {
    /// Caller-chosen participant identifier (rack or PDU index); also
    /// the deterministic tie-break key.
    pub id: usize,
    /// Watts of headroom requested above the participant's rated draw.
    pub request: Watts,
    /// Urgency multiplier (deadline pressure, batch backlog, …).
    pub priority: f64,
}

impl HeadroomBid {
    /// The value the auction ranks by: watts wanted × urgency.
    pub fn value(&self) -> f64 {
        self.request.0.max(0.0) * self.priority.max(0.0)
    }
}

/// The single-level greedy auction: `budget` watts of shared headroom
/// go down the value ranking (ties broken by `id`) as full grants, with
/// the marginal bidder receiving the exact fraction that exhausts the
/// budget. `order` and `grants` are caller-owned scratch, cleared and
/// refilled, never shrunk, so a reused workspace round allocates nothing
/// once warm. Returns `(spent, granted)`; the grants land in `grants` in
/// bid input order.
fn allocate_headroom_core(
    bids: &[HeadroomBid],
    budget: Watts,
    order: &mut Vec<usize>,
    grants: &mut Vec<Watts>,
) -> (Watts, usize) {
    assert!(budget.is_finite(), "budget must be finite");
    assert!(
        bids.iter()
            .all(|b| b.request.is_finite() && b.priority.is_finite()),
        "bids must be finite"
    );
    order.clear();
    order.extend(0..bids.len());
    order.sort_by(|&a, &b| {
        bids[b]
            .value()
            .total_cmp(&bids[a].value())
            .then(bids[a].id.cmp(&bids[b].id))
    });
    grants.clear();
    grants.resize(bids.len(), Watts::ZERO);
    let mut remaining = budget.0.max(0.0);
    let mut granted = 0;
    for &i in &*order {
        if remaining <= 0.0 {
            break;
        }
        let want = bids[i].request.0.max(0.0);
        if want <= 0.0 {
            continue;
        }
        let grant = want.min(remaining);
        grants[i] = Watts(grant);
        remaining -= grant;
        granted += 1;
        if grant < want {
            break; // marginal bidder exhausted the budget
        }
    }
    (Watts(budget.0.max(0.0) - remaining), granted)
}

/// Reusable scratch for [`allocate_headroom_two_level_with`]. Every Vec a
/// two-level round needs lives here, cleared and refilled per round but
/// never shrunk, so a long campaign's market clearing allocates only on
/// the first round (or when the fleet grows). Reuse is semantically
/// invisible: a warm workspace produces bit-identical grants to a fresh
/// one (see the `workspace_reuse_is_deterministic` test).
#[derive(Debug, Clone, Default)]
pub struct MarketWorkspace {
    /// Ranking scratch shared by the level-1 and per-PDU auctions.
    order: Vec<usize>,
    /// Per-PDU aggregate demand (Σ member requests, clamped ≥ 0).
    pdu_demand: Vec<f64>,
    /// Per-PDU aggregate bid value (Σ member values).
    pdu_value: Vec<f64>,
    /// Level-1 bids, one per PDU.
    pdu_bids: Vec<HeadroomBid>,
    /// Level-1 grants, one per PDU.
    pdu_grants: Vec<Watts>,
    /// Global bid indices of the PDU currently clearing at level 2.
    members: Vec<usize>,
    /// That PDU's member bids, densely packed for the local auction.
    member_bids: Vec<HeadroomBid>,
    /// That PDU's local grants (member order).
    member_grants: Vec<Watts>,
    /// Final grants in bid input order — read via [`Self::grants`].
    grants: Vec<Watts>,
}

impl MarketWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants from the most recent round, in bid input order. Valid
    /// until the next `allocate_headroom_two_level_with` call.
    pub fn grants(&self) -> &[Watts] {
        &self.grants
    }
}

/// What a zero-alloc market round hands back by value; the grants stay
/// in the workspace ([`MarketWorkspace::grants`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketOutcome {
    /// Total watts handed out. `spent ≤ feeder_budget` always.
    pub spent: Watts,
    /// Bidders that received a positive grant.
    pub granted: usize,
}

/// The two-level feeder → PDU → rack market round. `pdu_of[i]` names
/// the PDU that feeds the rack behind `bids[i]`; `pdu_caps[p]` is the
/// headroom PDU `p`'s own edge can carry. Level 1 auctions the feeder
/// budget across PDUs (each PDU bids the sum of its racks' requests,
/// capped at its edge headroom, at their demand-weighted mean
/// priority); level 2 re-auctions each PDU's grant across its own
/// racks. Grants land in `ws.grants()` in bid input order with
/// `Σ grants ≤ feeder_budget` and per-PDU sums within both the PDU's
/// cap and its level-1 grant — the conservation invariant the
/// datacenter engine asserts at every supervisor boundary. A warm
/// workspace makes the round allocation-free.
pub fn allocate_headroom_two_level_with(
    ws: &mut MarketWorkspace,
    bids: &[HeadroomBid],
    pdu_of: &[usize],
    pdu_caps: &[Watts],
    feeder_budget: Watts,
) -> MarketOutcome {
    assert_eq!(bids.len(), pdu_of.len(), "bid/PDU map shape mismatch");
    let num_pdus = pdu_caps.len();
    assert!(
        pdu_of.iter().all(|&p| p < num_pdus),
        "PDU index out of range"
    );
    // Level-1 bids: one per PDU, aggregated from its member racks.
    ws.pdu_demand.clear();
    ws.pdu_demand.resize(num_pdus, 0.0);
    ws.pdu_value.clear();
    ws.pdu_value.resize(num_pdus, 0.0);
    for (b, &p) in bids.iter().zip(pdu_of) {
        ws.pdu_demand[p] += b.request.0.max(0.0);
        ws.pdu_value[p] += b.value();
    }
    ws.pdu_bids.clear();
    for (p, cap) in pdu_caps.iter().enumerate() {
        let capped = ws.pdu_demand[p].min(cap.0.max(0.0));
        let mean_priority = if ws.pdu_demand[p] > 0.0 {
            ws.pdu_value[p] / ws.pdu_demand[p]
        } else {
            0.0
        };
        ws.pdu_bids.push(HeadroomBid {
            id: p,
            request: Watts(capped),
            priority: mean_priority,
        });
    }
    allocate_headroom_core(
        &ws.pdu_bids,
        feeder_budget,
        &mut ws.order,
        &mut ws.pdu_grants,
    );

    // Level 2: each PDU re-auctions its grant across its own racks.
    ws.grants.clear();
    ws.grants.resize(bids.len(), Watts::ZERO);
    let mut spent = 0.0;
    let mut granted = 0;
    for p in 0..num_pdus {
        let budget = ws.pdu_grants[p];
        if budget.0 <= 0.0 {
            continue;
        }
        ws.members.clear();
        ws.member_bids.clear();
        for (i, &q) in pdu_of.iter().enumerate() {
            if q == p {
                ws.members.push(i);
                ws.member_bids.push(bids[i]);
            }
        }
        let (local_spent, _) = allocate_headroom_core(
            &ws.member_bids,
            budget,
            &mut ws.order,
            &mut ws.member_grants,
        );
        for (&i, g) in ws.members.iter().zip(&ws.member_grants) {
            ws.grants[i] = *g;
            if g.0 > 0.0 {
                granted += 1;
            }
        }
        spent += local_spent.0;
    }
    MarketOutcome {
        spent: Watts(spent),
        granted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hbid(id: usize, request: f64, priority: f64) -> HeadroomBid {
        HeadroomBid {
            id,
            request: Watts(request),
            priority,
        }
    }

    /// One single-level round: the grants, `spent` and `granted`.
    fn flat(bids: &[HeadroomBid], budget: f64) -> (Vec<Watts>, Watts, usize) {
        let (mut order, mut grants) = (Vec::new(), Vec::new());
        let (spent, granted) = allocate_headroom_core(bids, Watts(budget), &mut order, &mut grants);
        (grants, spent, granted)
    }

    /// One two-level round through a fresh workspace.
    fn two_level(
        bids: &[HeadroomBid],
        pdu_of: &[usize],
        caps: &[Watts],
        budget: f64,
    ) -> (Vec<Watts>, MarketOutcome) {
        let mut ws = MarketWorkspace::new();
        let out = allocate_headroom_two_level_with(&mut ws, bids, pdu_of, caps, Watts(budget));
        (ws.grants().to_vec(), out)
    }

    #[test]
    fn headroom_greedy_grants_and_fractional_marginal() {
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 2.0),
            hbid(2, 800.0, 0.5),
        ];
        let (grants, spent, granted) = flat(&b, 1200.0);
        assert_eq!(grants[1], Watts(800.0), "highest value wins first");
        assert_eq!(grants[0], Watts(400.0), "marginal fractional grant");
        assert_eq!(grants[2], Watts::ZERO);
        assert_eq!(spent, Watts(1200.0));
        assert_eq!(granted, 2);
    }

    #[test]
    fn headroom_ties_break_by_id_and_budget_is_conserved() {
        let b: Vec<HeadroomBid> = (0..4).map(|i| hbid(i, 500.0, 1.0)).collect();
        for budget in [0.0, 250.0, 777.0, 2000.0, 1e6] {
            let (grants, spent, _) = flat(&b, budget);
            let total: f64 = grants.iter().map(|g| g.0).sum();
            assert!(total <= budget + 1e-9, "budget {budget}: spent {total}");
            assert!((total - spent.0).abs() < 1e-9);
            // Lower ids fill first on equal value.
            for w in grants.windows(2) {
                assert!(w[0].0 >= w[1].0);
            }
        }
    }

    #[test]
    fn headroom_zero_requests_get_nothing() {
        let b = [hbid(0, 0.0, 5.0), hbid(1, 100.0, 1.0)];
        let (grants, _, granted) = flat(&b, 1000.0);
        assert_eq!(grants[0], Watts::ZERO);
        assert_eq!(grants[1], Watts(100.0));
        assert_eq!(granted, 1);
    }

    #[test]
    fn two_level_single_pdu_matches_flat_auction() {
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 2.0),
            hbid(2, 800.0, 0.5),
        ];
        let (grants, spent, _) = flat(&b, 1200.0);
        let (two, out) = two_level(&b, &[0, 0, 0], &[Watts(1e9)], 1200.0);
        assert_eq!(grants, two);
        assert_eq!(spent, out.spent);
    }

    #[test]
    fn two_level_respects_pdu_caps_and_feeder_budget() {
        // PDU 0 wants 1600 but its edge only carries 500; PDU 1 wants
        // 1000. Feeder has 1200: PDU 1 (higher mean priority) gets its
        // 1000, PDU 0 gets the remaining 200 despite wanting more.
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 1.0),
            hbid(2, 1000.0, 2.0),
        ];
        let caps = [Watts(500.0), Watts(2000.0)];
        let (grants, _) = two_level(&b, &[0, 0, 1], &caps, 1200.0);
        assert_eq!(grants[2], Watts(1000.0));
        // PDU 0's 200 W goes to the lower id on the value tie.
        assert_eq!(grants[0], Watts(200.0));
        assert_eq!(grants[1], Watts::ZERO);
        let total: f64 = grants.iter().map(|g| g.0).sum();
        assert!(total <= 1200.0 + 1e-9);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        // The same bid set cleared through a fresh workspace and through
        // one warmed on a differently-shaped round must produce
        // bit-identical grants.
        let b: Vec<HeadroomBid> = (0..9)
            .map(|i| hbid(i, 150.0 + 37.5 * (i as f64), 0.25 + 0.4 * (i % 4) as f64))
            .collect();
        let pdu_of = [0, 0, 0, 1, 1, 1, 2, 2, 2];
        let caps = [Watts(600.0), Watts(900.0), Watts(350.0)];
        let budget = Watts(1100.0);

        let mut warm = MarketWorkspace::new();
        // Warm-up on a different shape so every scratch Vec is dirty.
        let distractors: Vec<HeadroomBid> = (0..5).map(|i| hbid(i, 9999.0, 7.0)).collect();
        allocate_headroom_two_level_with(
            &mut warm,
            &distractors,
            &[0, 1, 1, 0, 1],
            &[Watts(1e6), Watts(1e6)],
            Watts(1e6),
        );

        let mut fresh = MarketWorkspace::new();
        let out_fresh = allocate_headroom_two_level_with(&mut fresh, &b, &pdu_of, &caps, budget);
        let out_warm = allocate_headroom_two_level_with(&mut warm, &b, &pdu_of, &caps, budget);

        assert_eq!(out_fresh, out_warm);
        assert_eq!(out_fresh.spent.0.to_bits(), out_warm.spent.0.to_bits());
        for (a, b) in warm.grants().iter().zip(fresh.grants()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
        }
    }

    #[test]
    fn two_level_conservation_holds_per_pdu_and_overall() {
        // Randomized-ish sweep over budgets: per-PDU sums never exceed
        // the cap and the overall sum never exceeds the feeder budget.
        let b: Vec<HeadroomBid> = (0..6)
            .map(|i| hbid(i, 300.0 + 100.0 * (i as f64), 0.5 + 0.3 * (i % 3) as f64))
            .collect();
        let pdu_of = [0, 0, 1, 1, 2, 2];
        let caps = [Watts(700.0), Watts(400.0), Watts(5000.0)];
        for budget in [0.0, 300.0, 900.0, 1500.0, 1e5] {
            let (grants, _) = two_level(&b, &pdu_of, &caps, budget);
            let total: f64 = grants.iter().map(|g| g.0).sum();
            assert!(total <= budget + 1e-9);
            for (p, cap) in caps.iter().enumerate() {
                let pdu_sum: f64 = grants
                    .iter()
                    .zip(&pdu_of)
                    .filter(|(_, &q)| q == p)
                    .map(|(g, _)| g.0)
                    .sum();
                assert!(pdu_sum <= cap.0 + 1e-9, "PDU {p} over cap: {pdu_sum}");
            }
        }
    }
}
