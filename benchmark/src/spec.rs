//! The metric catalogue: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists the same metrics
//! with their directions and the end-to-end bounds; a unit test keeps the
//! two lists equal.

use crate::json::{self, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What a user of the simulator sees, from the untraced reps. `sim.*`
/// values are simulated-time results: deterministic for a given seed.
pub const END_TO_END: [MetricSpec; 6] = [
    m("rack_ticks_per_s", "rack-ticks/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("sim.batch_freq", "norm"),
    m("sim.ups_dod_pct", "%"),
    m("sim.paper_err_pct", "%"),
];

/// Per-layer numbers from the traced run, ordered by timescale: control
/// period (control, core, baselines), tick (engine), market epoch (dc),
/// then the run-level execution layer, the checks on the trace, the host
/// calibration, and simulated counts that may be zero.
pub const PER_LAYER: [MetricSpec; 37] = [
    m("control.mpc_ns", "ns"),
    m("control.qp_ns", "ns"),
    m("control.qp_iters", "iters"),
    m("control.qp_solves", "count"),
    m("core.server_ctrl_self_ns", "ns"),
    m("core.supervisor_self_ns", "ns"),
    m("core.mode_changes", "count"),
    m("baselines.sgct_ns.p50", "ns"),
    m("baselines.sgct_v1_ns.p50", "ns"),
    m("baselines.sgct_v2_ns.p50", "ns"),
    m("engine.tick_ns.p50", "ns"),
    m("engine.tick_ns.p99", "ns"),
    m("engine.ticks", "count"),
    m("engine.policy_ns.p50", "ns"),
    m("engine.plant_ns.p50", "ns"),
    m("engine.policy_share", "ratio"),
    m("engine.build_us", "us"),
    m("engine.finalize_us", "us"),
    m("dc.market_us", "us"),
    m("dc.auction_us", "us"),
    m("dc.granted_frac", "ratio"),
    m("dc.starved_racks", "count"),
    m("dc.rounds", "count"),
    m("dc.epoch_ms.p50", "ms"),
    m("dc.epoch_ms.p99", "ms"),
    m("dc.replay_us", "us"),
    m("dc.finalize_ms", "ms"),
    m("exec.run_ms.p50", "ms"),
    m("exec.run_ms.p90", "ms"),
    m("exec.speedup", "ratio"),
    m("trace.overhead_frac", "ratio"),
    m("trace.cover_frac", "ratio"),
    m("host.raw_rack_ticks_per_s", "rack-ticks/s"),
    m("host.slowdown", "ratio"),
    m("sim.trips", "count"),
    m("sim.grid_violations", "count"),
    m("sim.req_p99_ms", "ms"),
];

/// The unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|s| s.name == name)
        .map(|s| s.unit)
}

/// One end-to-end metric as `BENCHMARK.json` states it.
#[derive(Debug, Clone)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` that `compare` reads.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
}

fn better_of(v: &Json) -> Result<Better, String> {
    match v.get("better").and_then(Json::as_str) {
        Some("higher") => Ok(Better::Higher),
        Some("lower") => Ok(Better::Lower),
        other => Err(format!("bad \"better\": {other:?}")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing list {key:?}"))
}

/// Read `BENCHMARK.json`.
pub fn load(path: &str) -> Result<BenchSpec, String> {
    let doc = read(path)?;
    let list = |key: &str| list(&doc, key).map_err(|e| format!("{path}: {e}"));
    let workloads = list("workloads")?
        .iter()
        .map(|w| str_field(w, "name").map(String::from))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|e| {
            Ok(Bounded {
                name: str_field(e, "name")?.to_string(),
                better: better_of(e)?,
                bound: e
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("missing numeric \"bound\"")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchSpec {
        workloads,
        end_to_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

    fn committed() -> BenchSpec {
        load(COMMITTED).expect("BENCHMARK.json")
    }

    fn names_and_units(list: &[Json]) -> Vec<(String, String)> {
        list.iter()
            .map(|e| {
                better_of(e).expect("direction");
                let s = |k| str_field(e, k).expect("field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn catalogue(list: &[MetricSpec]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = read(COMMITTED).unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(committed().workloads, names);
        assert_eq!(
            names_and_units(list(&doc, "end_to_end").unwrap()),
            catalogue(&END_TO_END)
        );
        assert_eq!(
            names_and_units(list(&doc, "per_layer").unwrap()),
            catalogue(&PER_LAYER)
        );
        for b in committed().end_to_end {
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", b.name);
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let spec = committed();
        let setup = spec
            .end_to_end
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s is listed");
        let others = spec.end_to_end.iter().filter(|b| b.name != "setup_s");
        for b in others {
            assert!(b.bound < setup.bound, "{}", b.name);
        }
    }
}
