//! Argument validation of the `sprintcon-sim` binary: a run length,
//! deadline or SLO delay that is not a positive, finite number is a
//! usage error (exit 2), and an unreadable or malformed `--demand-csv`
//! fails with exit 1, both caught before any simulation runs.

use std::process::Command;

#[test]
fn non_finite_durations_are_usage_errors() {
    for args in [
        ["--slo-delay", "nan"],
        ["--deadline-min", "nan"],
        ["--minutes", "inf"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sprintcon-sim"))
            .args(args)
            .arg("--quiet")
            .output()
            .expect("sprintcon-sim runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a simulation: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn non_finite_demand_csv_is_a_read_error() {
    // A NaN timestamp would otherwise infer a NaN sampling period.
    let path = std::env::temp_dir().join(format!(
        "sprintcon_cli_nan_demand_{}.csv",
        std::process::id()
    ));
    std::fs::write(&path, "t_s,value\n0,0.5\nnan,0.5\n2,0.4\n").expect("write the CSV");
    let out = Command::new(env!("CARGO_BIN_EXE_sprintcon-sim"))
        .args(["--minutes", "1", "--quiet", "--demand-csv"])
        .arg(&path)
        .output()
        .expect("sprintcon-sim runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "printed a summary: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to read"), "{stderr}");
}
