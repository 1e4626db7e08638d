//! Table-driven check of the §IV-C supervisor transition graph against
//! the telemetry it emits: every escalation edge (overload stop, UPS
//! conservation, sprint end, recovery) must fire exactly the per-edge
//! counters it claims to, observed through a scoped collector.

use powersim::units::{Seconds, Utilization, Watts};
use sprintcon::{ActiveGrid, SprintCon, SprintConConfig, SprintConInputs, SprintMode};
use std::sync::Arc;
use telemetry::{Collector, MetricsSnapshot, NullSink};
use workloads::batch::BatchJob;
use workloads::progress_model::ProgressModel;

/// One control period's plant observation, as the table writes it.
#[derive(Clone, Copy)]
struct Obs {
    margin: f64,
    closed: bool,
    soc: f64,
}

const NOMINAL: Obs = Obs {
    margin: 0.1,
    closed: true,
    soc: 1.0,
};
const HOT_BREAKER: Obs = Obs {
    margin: 0.97,
    closed: true,
    soc: 1.0,
};
const OPEN_BREAKER: Obs = Obs {
    margin: 0.0,
    closed: false,
    soc: 1.0,
};
// paper_default soc_reserve is 0.03: "low" means at or below that.
const LOW_SOC: Obs = Obs {
    margin: 0.1,
    closed: true,
    soc: 0.02,
};
const HOT_AND_LOW: Obs = Obs {
    margin: 0.97,
    closed: true,
    soc: 0.02,
};

struct Case {
    name: &'static str,
    steps: &'static [Obs],
    final_mode: SprintMode,
    /// (per-edge counter name, expected count) — exhaustive: edges not
    /// listed must not have fired.
    edges: &'static [(&'static str, u64)],
}

const CASES: &[Case] = &[
    Case {
        name: "steady sprinting emits no transitions",
        steps: &[NOMINAL, NOMINAL, NOMINAL],
        final_mode: SprintMode::Sprinting,
        edges: &[],
    },
    Case {
        name: "overload stop: hot breaker escalates to CbProtect",
        steps: &[NOMINAL, HOT_BREAKER],
        final_mode: SprintMode::CbProtect,
        edges: &[("supervisor_transition.sprint->cb-protect", 1)],
    },
    Case {
        name: "an open breaker counts as stressed",
        steps: &[NOMINAL, OPEN_BREAKER],
        final_mode: SprintMode::CbProtect,
        edges: &[("supervisor_transition.sprint->cb-protect", 1)],
    },
    Case {
        name: "recovery: CbProtect returns to Sprinting once the breaker cools",
        steps: &[HOT_BREAKER, NOMINAL],
        final_mode: SprintMode::Sprinting,
        edges: &[
            ("supervisor_transition.sprint->cb-protect", 1),
            ("supervisor_transition.cb-protect->sprint", 1),
        ],
    },
    Case {
        name: "budget takeover: low SoC enters UpsConserve",
        steps: &[NOMINAL, LOW_SOC],
        final_mode: SprintMode::UpsConserve,
        edges: &[("supervisor_transition.sprint->ups-conserve", 1)],
    },
    Case {
        name: "sprint end: breaker stress with a drained UPS ends the sprint",
        steps: &[NOMINAL, HOT_AND_LOW],
        final_mode: SprintMode::Ended,
        edges: &[("supervisor_transition.sprint->ended", 1)],
    },
    Case {
        name: "Ended is terminal: nominal conditions do not resurrect the sprint",
        steps: &[HOT_AND_LOW, NOMINAL, NOMINAL],
        final_mode: SprintMode::Ended,
        edges: &[("supervisor_transition.sprint->ended", 1)],
    },
    Case {
        name: "a full escalation ladder counts every edge once",
        steps: &[NOMINAL, HOT_BREAKER, NOMINAL, LOW_SOC, HOT_AND_LOW],
        final_mode: SprintMode::Ended,
        edges: &[
            ("supervisor_transition.sprint->cb-protect", 1),
            ("supervisor_transition.cb-protect->sprint", 1),
            ("supervisor_transition.sprint->ups-conserve", 1),
            ("supervisor_transition.ups-conserve->ended", 1),
        ],
    },
];

fn run_case(steps: &[Obs]) -> (SprintMode, MetricsSnapshot) {
    let cfg = SprintConConfig::paper_default();
    let mut sc = SprintCon::new(cfg);
    let n = sc.server_controller().num_channels();
    let utils = vec![Utilization(0.6); sc.cfg.plant.num_servers];
    let freqs = vec![0.6; n];
    let jobs: Vec<BatchJob> = (0..n)
        .map(|i| {
            BatchJob::new(
                format!("j{i}"),
                ProgressModel::new(0.2),
                400.0,
                Seconds(900.0),
            )
        })
        .collect();

    let collector = Arc::new(Collector::new(Box::new(NullSink)));
    telemetry::with_collector(Arc::clone(&collector), || {
        for obs in steps {
            sc.step(
                Seconds(1.0),
                SprintConInputs {
                    p_total: Watts(4200.0),
                    interactive_util: &utils,
                    batch_freqs: &freqs,
                    jobs: &jobs,
                    breaker_margin: obs.margin,
                    breaker_closed: obs.closed,
                    ups_soc: obs.soc,
                    queue: None,
                    grid: ActiveGrid::default(),
                },
            );
        }
        (sc.mode(), collector.snapshot())
    })
}

#[test]
fn transition_graph_fires_the_expected_counters() {
    for case in CASES {
        let (mode, snap) = run_case(case.steps);
        assert_eq!(mode, case.final_mode, "{}", case.name);

        let expected_total: u64 = case.edges.iter().map(|(_, n)| n).sum();
        assert_eq!(
            snap.counter("supervisor_mode_transitions"),
            expected_total,
            "{}: total transition count",
            case.name
        );
        for (edge, n) in case.edges {
            assert_eq!(snap.counter(edge), *n, "{}: counter {edge}", case.name);
        }
        // Exhaustiveness: no edge outside the table fired.
        let stray: Vec<_> = snap
            .counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("supervisor_transition.") && !case.edges.iter().any(|(e, _)| e == k)
            })
            .collect();
        assert!(
            stray.is_empty(),
            "{}: unexpected edges {stray:?}",
            case.name
        );
    }
}
