//! Robustness sweep — the fault-injection counterpart of the headline
//! comparison: sweep the power-monitor dropout intensity and report the
//! controlled-vs-uncontrolled gap in breaker trips, deadline misses and
//! UPS depth of discharge, then exercise every scheduled fault class
//! once and show which degraded-mode path it drives.
//!
//! With every fault disabled (intensity 0) the runs are bit-identical to
//! the unperturbed scenario — checked below — so the fault subsystem
//! costs nothing when off.

use powersim::faults::{FaultKind, FaultPlan};
use powersim::units::{Seconds, Watts};
use simkit::{Campaign, PolicyKind, Scenario};
use sprintcon_bench::{banner, write_csv, EngineArgs};

/// Mean length of one stochastic dropout burst.
const MEAN_OUTAGE: Seconds = Seconds(8.0);
const SEED: u64 = 2019;

fn scenario_with(plan: FaultPlan) -> Scenario {
    Scenario::builder(SEED)
        .faults(plan)
        .build()
        .expect("paper scenario with faults is valid")
}

fn main() {
    let args = EngineArgs::parse();
    banner("Monitor-dropout sweep: SprintCon vs uncontrolled SGCT");
    println!(
        "{:>9}  {:>10}  {:>5}  {:>8}  {:>7}  {:>7}",
        "intensity", "policy", "trips", "missed", "max-dod", "dod"
    );
    let intensities = [0.0, 0.05, 0.10, 0.20, 0.40];
    let kinds = [PolicyKind::SprintCon, PolicyKind::Sgct];
    let sweep_runs = Campaign::new()
        .add_grid(
            intensities.map(|i| scenario_with(FaultPlan::monitor_dropout(i, MEAN_OUTAGE))),
            &kinds,
        )
        .run_with(args.exec);
    let mut rows = Vec::new();
    let mut run_it = sweep_runs.iter();
    for &intensity in &intensities {
        for kind in kinds {
            let out = run_it.next().expect("grid is intensity-major").summary();
            let s = out;
            let missed = s.deadlines_total - s.deadlines_met;
            println!(
                "{:>9.2}  {:>10}  {:>5}  {:>8}  {:>7.3}  {:>7.3}",
                intensity, s.policy, s.trips, missed, s.max_dod, s.dod
            );
            rows.push(vec![
                intensity,
                if kind == PolicyKind::SprintCon {
                    1.0
                } else {
                    0.0
                },
                s.trips as f64,
                missed as f64,
                s.max_dod,
                s.dod,
            ]);
        }
    }
    let path = write_csv(
        "robustness_sweep.csv",
        "intensity,is_sprintcon,trips,deadline_misses,max_dod,dod",
        &rows,
    );
    println!("wrote {}", path.display());

    banner("Zero-drift check: empty fault plan == no fault subsystem");
    let mut drift_runs = Campaign::new()
        .add(Scenario::paper_default(SEED), PolicyKind::SprintCon)
        .add(scenario_with(FaultPlan::none()), PolicyKind::SprintCon)
        .run_with(args.exec);
    let off = drift_runs.remove(1).output;
    let base = drift_runs.remove(0).output;
    let drift = base.recorder.samples().len() != off.recorder.samples().len()
        || base
            .recorder
            .samples()
            .iter()
            .zip(off.recorder.samples())
            .any(|(a, b)| {
                a.p_total.0.to_bits() != b.p_total.0.to_bits()
                    || a.ups_power.0.to_bits() != b.ups_power.0.to_bits()
            });
    println!(
        "bitwise identical: {}",
        if drift { "NO — DRIFT" } else { "yes" }
    );

    banner("Scheduled fault classes under SprintCon (300 s window each)");
    let classes: &[(&str, FaultKind)] = &[
        ("monitor dropout", FaultKind::MonitorDropout),
        ("monitor stuck-at", FaultKind::MonitorStuckAt),
        (
            "monitor spike",
            FaultKind::MonitorSpike {
                magnitude: Watts(20_000.0),
            },
        ),
        ("DVFS lag", FaultKind::ActuatorLag { tau: Seconds(6.0) }),
        ("DVFS quantize", FaultKind::ActuatorQuantize { step: 0.2 }),
        ("UPS fade", FaultKind::UpsCapacityFade { fraction: 0.5 }),
        (
            "UPS current limit",
            FaultKind::UpsCurrentLimit {
                max_discharge: Watts(600.0),
            },
        ),
        ("breaker heat", FaultKind::BreakerHeatPerturb { delta: 0.3 }),
        ("server crash", FaultKind::ServerCrash { server: 0 }),
    ];
    println!(
        "{:>18}  {:>5}  {:>8}  {:>7}  {:>12}  {:>9}",
        "fault", "trips", "missed", "max-dod", "meas-holds", "pid-falls"
    );
    let mut class_campaign = Campaign::new();
    for (label, kind) in classes {
        let plan = FaultPlan::none().with_event(Seconds(120.0), Seconds(300.0), *kind);
        class_campaign.add_with(
            *label,
            scenario_with(plan),
            PolicyKind::SprintCon,
            Default::default(),
        );
    }
    // The degraded-mode columns are telemetry counters.
    let class_runs = class_campaign.run_with(args.exec.with_telemetry());
    for ((label, _), res) in classes.iter().zip(&class_runs) {
        let out = &res.output;
        let s = &out.summary;
        println!(
            "{:>18}  {:>5}  {:>8}  {:>7.3}  {:>12}  {:>9}",
            label,
            s.trips,
            s.deadlines_total - s.deadlines_met,
            s.max_dod,
            out.metrics.counter("degraded.measurement_hold"),
            out.metrics.counter("server_ctrl_pid_fallback"),
        );
    }
}
