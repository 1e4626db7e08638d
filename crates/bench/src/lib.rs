//! # sprintcon-bench — figure regeneration harness
//!
//! One binary per paper artifact (see DESIGN.md §4's experiment index);
//! each prints the series/rows as aligned text and writes CSV under
//! `target/figures/`.

#![forbid(unsafe_code)]

use simkit::ExecConfig;
use std::path::PathBuf;

/// Shared execution CLI for every figure/ablation/robustness binary.
///
/// All simulation-running bins accept the same two flags and hand the
/// resulting [`ExecConfig`] to a [`simkit::Campaign`]:
///
/// * `--jobs N` — run on `N` worker threads (`0` = one per core, the
///   default);
/// * `--seq` — force sequential execution on the calling thread
///   (shorthand for `--jobs 1`).
///
/// Results are deterministic and input-ordered either way; the flags
/// only change wall-clock time (see `DESIGN.md` §execution layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineArgs {
    pub exec: ExecConfig,
}

impl EngineArgs {
    /// Parse from the process arguments; prints usage and exits on
    /// unknown flags so every bin fails the same way.
    pub fn parse() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("usage: [--jobs N | --seq]   (N = worker threads, 0 = per-core)");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of
    /// [`EngineArgs::parse`]).
    pub fn from_args<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut exec = ExecConfig::parallel();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seq" => exec = ExecConfig::sequential(),
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    exec = ExecConfig::jobs(parse_jobs(&v)?);
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        exec = ExecConfig::jobs(parse_jobs(v)?);
                    } else {
                        return Err(format!("unknown argument: {other}"));
                    }
                }
            }
        }
        Ok(EngineArgs { exec })
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("--jobs expects a non-negative integer, got {v:?}"))
}

/// Directory where figure binaries drop their CSV output.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Write a simple CSV from a header and rows of f64 columns.
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    use std::io::Write;
    let path = figures_dir().join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{header}").unwrap();
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
    path
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<EngineArgs, String> {
        EngineArgs::from_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn engine_args_parse_forms() {
        assert_eq!(args(&[]).unwrap().exec, ExecConfig::parallel());
        assert_eq!(args(&["--seq"]).unwrap().exec, ExecConfig::sequential());
        assert_eq!(args(&["--jobs", "4"]).unwrap().exec, ExecConfig::jobs(4));
        assert_eq!(args(&["--jobs=2"]).unwrap().exec, ExecConfig::jobs(2));
        assert_eq!(args(&["--jobs", "0"]).unwrap().exec, ExecConfig::parallel());
        // Last flag wins, so scripts can append overrides.
        assert_eq!(
            args(&["--jobs", "4", "--seq"]).unwrap().exec,
            ExecConfig::sequential()
        );
    }

    #[test]
    fn engine_args_reject_garbage() {
        assert!(args(&["--jobs"]).is_err());
        assert!(args(&["--jobs", "x"]).is_err());
        assert!(args(&["--jobs=-1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
