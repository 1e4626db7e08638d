//! Smoke test: the whole benchmark at `--quick` scale, through the binary.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::HashMap;
use std::process::Command;

#[test]
fn quick_run_prints_every_metric_and_fails_nothing() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
    let results = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let _ = std::fs::remove_file(&results);

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--quick", "--seconds", "0", "--seed", "7", "--out"])
        .arg(&results)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "benchmark run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `workload metric value unit` lines.
    let mut printed: HashMap<(String, String), (f64, String)> = HashMap::new();
    for line in stdout.lines() {
        if let [w, m, v, u] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if let Ok(v) = v.parse::<f64>() {
                printed.insert((w.into(), m.into()), (v, u.into()));
            }
        }
    }
    let list = |key: &str| spec.get(key).and_then(|l| l.as_arr()).unwrap().to_vec();
    for w in list("workloads") {
        let w = w.get("name").and_then(|n| n.as_str()).unwrap().to_string();
        for m in list("end_to_end").iter().chain(&list("per_layer")) {
            let name = m.get("name").and_then(|n| n.as_str()).unwrap();
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap();
            let got = printed.get(&(w.clone(), name.to_string()));
            let (value, got_unit) = got.unwrap_or_else(|| panic!("{w} {name} not printed"));
            assert_eq!(got_unit, unit, "{w} {name}");
            assert!(value.is_finite(), "{w} {name} = {value}");
        }
        let failed = printed.get(&(w.clone(), "failed_frac".into())).map(|p| p.0);
        assert_eq!(failed, Some(0.0), "{w} failed_frac");
    }

    // The results file holds this one run, every workload correct.
    let file = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let runs = file.get("runs").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(runs.len(), 1);
    let workloads = runs[0].get("workloads").and_then(|w| w.as_obj()).unwrap();
    assert_eq!(workloads.len(), 4);
    for (w, r) in workloads {
        assert_eq!(
            r.get("correct").and_then(|c| c.as_bool()),
            Some(true),
            "{w}"
        );
    }
}

#[test]
fn a_single_workload_ends_with_its_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "rack_sprintcon", "--quick", "--seconds", "0"])
        .args(["--seed", "3", "--trace", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&String> = last.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(|c| c.as_bool()), Some(true));
    assert_eq!(
        last.get("metrics").and_then(|m| m.as_obj()).unwrap().len(),
        6
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "dc_floor", "--trace", "2"],
        &["--seconds", "5"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
