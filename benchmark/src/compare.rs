//! The results file written by `benchmark run --out` and the
//! `benchmark compare BASE NEW` rule.
//!
//! A results file is `{"nproc": N, "runs": [run, ...]}`; each `run` holds
//! one result per workload exactly as the workload child printed it. Runs
//! are appended, so alternating `run --out base.json` and
//! `run --out new.json` on the two commits builds the paired samples the
//! rule needs.

use crate::json::{self, Json};
use crate::spec::{self, Better, Bounded};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Pairs needed before a comparison is made.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one (metric, workload) from paired samples (`base[i]` and
/// `new[i]` ran back to back, alternating which went first).
///
/// * `exact` metrics (simulated time) must repeat bit for bit; any
///   difference is a regression.
/// * A gain needs the change to win at least nine pairs in ten (ties
///   count for neither side) and the medians to differ by more than the
///   base's interquartile range.
/// * A regression is a median worse than the base's by more than
///   `bound` (a share of the base median).
/// * When the base's own spread exceeds the bound the metric is
///   unresolved, unless every new sample beats every base sample.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    let pairs = base.len().min(new.len());
    let (base, new) = (&base[..pairs], &new[..pairs]);
    if exact {
        let same = base
            .iter()
            .zip(new)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        return if same {
            Verdict::Unchanged
        } else {
            Verdict::Regressed
        };
    }
    // Orient so that a positive difference is always an improvement.
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| sign * (*n - *b) > 0.0)
        .count();
    let (q1, base_median, q3) = quartiles(base);
    let gain = sign * (median(new) - base_median);
    if wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let scale = base_median.abs();
    if -gain > bound * scale {
        return Verdict::Regressed;
    }
    let best_base = base
        .iter()
        .map(|b| sign * b)
        .fold(f64::NEG_INFINITY, f64::max);
    let all_better = new.iter().all(|n| sign * n > best_base);
    if q3 - q1 > bound * scale && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One workload's result inside a recorded run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// The result line a workload child prints last.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("no {k:?}"));
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no \"metrics\" object")?
            .iter()
            .map(|(k, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("metric {k:?} has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(WorkloadResult {
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("no \"correct\"")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, &v)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Json::Num(v));
                let unit = spec::unit_of(k).unwrap_or("");
                m.insert("unit".to_string(), Json::Str(unit.to_string()));
                (k.clone(), Json::Obj(m))
            })
            .collect();
        let mut o = BTreeMap::new();
        o.insert("correct".to_string(), Json::Bool(self.correct));
        o.insert("attempted".to_string(), Json::Num(self.attempted as f64));
        o.insert("failed".to_string(), Json::Num(self.failed as f64));
        o.insert("metrics".to_string(), Json::Obj(metrics));
        Json::Obj(o)
    }
}

/// One `benchmark run`: when it started and what each workload reported.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub started_unix_s: f64,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl RunRecord {
    fn to_json(&self) -> Json {
        let mut o = BTreeMap::new();
        o.insert("started_unix_s".into(), Json::Num(self.started_unix_s));
        o.insert("seed".into(), Json::Num(self.seed as f64));
        o.insert("seconds".into(), Json::Num(self.seconds));
        o.insert("quick".into(), Json::Bool(self.quick));
        let w = self
            .workloads
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        o.insert("workloads".into(), Json::Obj(w));
        Json::Obj(o)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("run has no {k:?}"))
        };
        let workloads = v
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("run has no \"workloads\"")?
            .iter()
            .map(|(k, r)| WorkloadResult::from_json(r).map(|r| (k.clone(), r)))
            .collect::<Result<_, _>>()?;
        Ok(RunRecord {
            started_unix_s: num("started_unix_s")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            quick: v.get("quick").and_then(Json::as_bool).unwrap_or(false),
            workloads,
        })
    }
}

/// A results file: the host's core count and the runs recorded on it.
#[derive(Debug, Clone, Default)]
pub struct Results {
    pub nproc: u64,
    pub runs: Vec<RunRecord>,
}

impl Results {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let nproc = doc
            .get("nproc")
            .and_then(Json::as_f64)
            .ok_or(format!("{path}: no \"nproc\""))? as u64;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: no \"runs\""))?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(Results { nproc, runs })
    }

    /// Append `run` to the file at `path` (created if absent). Refuses to
    /// mix hosts with different core counts in one file.
    pub fn append(path: &str, nproc: u64, run: RunRecord) -> Result<(), String> {
        let mut file = if std::path::Path::new(path).exists() {
            Self::load(path)?
        } else {
            Results {
                nproc,
                runs: Vec::new(),
            }
        };
        if file.nproc != nproc {
            return Err(format!(
                "{path} was recorded with nproc {}, this host has {nproc}",
                file.nproc
            ));
        }
        file.runs.push(run);
        let runs: Vec<String> = file.runs.iter().map(|r| r.to_json().render()).collect();
        let text = format!(
            "{{\"nproc\": {}, \"runs\": [\n{}\n]}}\n",
            file.nproc,
            runs.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    }
}

/// `benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]`.
pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return usage("--spec needs a path"),
            },
            _ => files.push(a.clone()),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        return usage("compare takes exactly two results files");
    };
    let loaded = (|| {
        Ok::<_, String>((
            spec::load(&spec_path)?,
            Results::load(base_path)?,
            Results::load(new_path)?,
        ))
    })();
    let (spec, base, new) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    match compare(&spec.workloads, &spec.end_to_end, &base, &new) {
        Ok(rows) => {
            let mut regressed = false;
            for r in &rows {
                println!("{r}");
                regressed |= r.verdict == Verdict::Regressed;
            }
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("compare: {msg}");
    eprintln!("usage: benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]");
    2
}

/// One line of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: (f64, f64, f64),
    pub new: (f64, f64, f64),
    pub verdict: Verdict,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (b, n) = (self.base, self.new);
        write!(
            f,
            "{} {} base {} [{}, {}] new {} [{}, {}] {}",
            self.workload,
            self.metric,
            b.1,
            b.0,
            b.2,
            n.1,
            n.0,
            n.2,
            self.verdict.name()
        )
    }
}

/// Compare every end-to-end metric of every workload, plus the failed
/// share of runs (a change may not fail more runs than its base).
pub fn compare(
    workloads: &[String],
    metrics: &[Bounded],
    base: &Results,
    new: &Results,
) -> Result<Vec<Row>, String> {
    if base.nproc != new.nproc {
        return Err(format!(
            "refusing to compare runs from hosts with nproc {} and {}",
            base.nproc, new.nproc
        ));
    }
    let pairs = base.runs.len().min(new.runs.len());
    if pairs < MIN_PAIRS {
        return Err(format!(
            "{pairs} pairs of runs; at least {MIN_PAIRS} alternating pairs are needed"
        ));
    }
    let mut base_first = Vec::with_capacity(pairs);
    for (i, (b, n)) in base.runs.iter().zip(&new.runs).take(pairs).enumerate() {
        if (b.seed, b.seconds, b.quick) != (n.seed, n.seconds, n.quick) {
            return Err(format!(
                "pair {i} ran with different --seed, --seconds or --quick on the two sides"
            ));
        }
        base_first.push(b.started_unix_s < n.started_unix_s);
    }
    if base_first.windows(2).any(|w| w[0] == w[1]) {
        return Err("pairs must alternate which side runs first".into());
    }
    let mut rows = Vec::new();
    for w in workloads {
        let series = |r: &Results, pick: &dyn Fn(&WorkloadResult) -> Option<f64>| {
            r.runs[..pairs]
                .iter()
                .map(|run| run.workloads.get(w).and_then(pick))
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("a run lacks workload {w} or one of its metrics"))
        };
        for m in metrics {
            let pick = |r: &WorkloadResult| r.metrics.get(&m.name).copied();
            let (b, n) = (series(base, &pick)?, series(new, &pick)?);
            let exact = m.name.starts_with("sim.");
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                base: quartiles(&b),
                new: quartiles(&n),
                verdict: judge(&b, &n, m.better, m.bound, exact),
            });
        }
        let frac = |r: &WorkloadResult| Some(r.failed as f64 / r.attempted.max(1) as f64);
        let (b, n) = (series(base, &frac)?, series(new, &frac)?);
        let worse = n.iter().sum::<f64>() > b.iter().sum::<f64>();
        rows.push(Row {
            workload: w.clone(),
            metric: "failed_frac".into(),
            base: quartiles(&b),
            new: quartiles(&n),
            verdict: if worse {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        // A fixed, symmetric jitter pattern of ten samples.
        [-1.0, 0.5, -0.25, 1.0, 0.0, -0.5, 0.25, 0.75, -0.75, 0.1]
            .iter()
            .map(|j| center + j * spread)
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let base = around(100.0, 1.0);
        let new = around(110.0, 1.0);
        assert_eq!(
            judge(&base, &new, Better::Higher, 0.1, false),
            Verdict::Improved
        );
        // Same data, lower is better: a 10% rise with a 5% bound regresses.
        assert_eq!(
            judge(&base, &new, Better::Lower, 0.05, false),
            Verdict::Regressed
        );
    }

    #[test]
    fn noise_within_bound_is_unchanged() {
        let base = around(100.0, 1.0);
        let new = around(100.2, 1.0);
        assert_eq!(
            judge(&base, &new, Better::Higher, 0.1, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let base = around(100.0, 0.1);
        let mut new = around(105.0, 0.1);
        new[0] = 90.0;
        new[1] = 90.0; // two lost pairs: 8/10 wins
        assert_ne!(
            judge(&base, &new, Better::Higher, 0.1, false),
            Verdict::Improved
        );
        new[1] = 105.0; // 9/10 wins
        assert_eq!(
            judge(&base, &new, Better::Higher, 0.1, false),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_must_exceed_the_base_spread() {
        // Every pair wins, but by less than the base's interquartile range.
        let base = around(100.0, 20.0);
        let new: Vec<f64> = base.iter().map(|b| b + 1.0).collect();
        assert_ne!(
            judge(&base, &new, Better::Higher, 0.5, false),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = around(100.0, 20.0);
        let new = around(99.0, 20.0);
        assert_eq!(
            judge(&base, &new, Better::Higher, 0.05, false),
            Verdict::Unresolved
        );
        // Unless every new sample beats every base sample.
        let new: Vec<f64> = base.iter().map(|b| b + 41.0).collect();
        assert_ne!(
            judge(&base, &new, Better::Higher, 0.05, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let base = around(17.0, 0.0);
        assert_eq!(
            judge(&base, &base, Better::Lower, 0.05, true),
            Verdict::Unchanged
        );
        let mut drift = base.clone();
        drift[3] = 17.000000001;
        assert_eq!(
            judge(&base, &drift, Better::Lower, 0.05, true),
            Verdict::Regressed
        );
    }

    /// `runs` runs of one side (`side` 0 = base, 1 = new) of a correctly
    /// alternated series: the base runs first in even pairs.
    fn results(nproc: u64, runs: usize, value: f64, side: usize) -> Results {
        let mut r = Results {
            nproc,
            runs: Vec::new(),
        };
        for i in 0..runs {
            let mut w = WorkloadResult {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: BTreeMap::new(),
            };
            w.metrics.insert("x".into(), value + i as f64 * 1e-3);
            let mut run = RunRecord {
                started_unix_s: (2 * i + (i + side) % 2) as f64,
                ..RunRecord::default()
            };
            run.workloads.insert("w".into(), w);
            r.runs.push(run);
        }
        r
    }

    #[test]
    fn compare_refuses_mismatched_series() {
        let metrics = [Bounded {
            name: "x".into(),
            better: Better::Lower,
            bound: 0.1,
        }];
        let w = ["w".to_string()];
        let cmp = |b: &Results, n: &Results| compare(&w, &metrics, b, n);
        let base = results(2, 10, 1.0, 0);
        assert!(cmp(&base, &results(1, 10, 1.0, 1)).is_err(), "nproc");
        assert!(
            cmp(&results(2, 9, 1.0, 0), &results(2, 10, 1.0, 1)).is_err(),
            "9 pairs"
        );
        assert!(
            cmp(&base, &results(2, 10, 1.0, 0)).is_err(),
            "not alternating"
        );
        let mut longer = results(2, 10, 1.0, 1);
        longer.runs[4].seconds = 30.0;
        assert!(cmp(&base, &longer).is_err(), "different --seconds");

        let rows = cmp(&base, &results(2, 10, 2.0, 1)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].metric, "failed_frac");
        assert_eq!(rows[1].verdict, Verdict::Unchanged);
    }

    #[test]
    fn results_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("benchmark-results-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        for run in results(2, 2, 3.5, 0).runs {
            Results::append(path, 2, run).unwrap();
        }
        let back = Results::load(path).unwrap();
        assert_eq!(back.nproc, 2);
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[1].workloads["w"].metrics["x"], 3.5 + 1e-3);
        assert!(Results::append(path, 4, RunRecord::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
