//! Argument validation of the `sprintcon-sim` binary: a run length,
//! deadline or SLO delay that is not a positive, finite number is a
//! usage error (exit 2) caught before any simulation runs.

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
