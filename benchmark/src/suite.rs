//! `all` and `compare`: the whole suite in child processes, the
//! trajectory in `benchmark/results/history.jsonl`, and the rules by
//! which two sets of runs are judged.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use serde::value::Value;

use crate::stats::Summary;
use crate::{results_dir, Better, EndToEnd, RunArgs, END_TO_END, WORKLOADS};

/// Arguments of `all`.
#[derive(Debug, PartialEq)]
pub struct SuiteArgs {
    /// Seed, measuring time and flags every run shares; run `i` of a set
    /// uses `seed + i`, as the driver varies it.
    pub run: RunArgs,
    pub runs: usize,
    pub sets: usize,
    pub allow_dirty: bool,
}

/// One untraced run of one workload: a line of the history.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub rev: String,
    pub dirty: bool,
    pub set: usize,
    pub workload: String,
    pub seed: u64,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Within-run sample count, quartiles and digest, the exact model
    /// statistics, and the host facts, as the run printed them.
    pub detail: BTreeMap<String, Value>,
}

impl Record {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(*v)))
            .collect();
        let mut map = self.detail.clone();
        map.insert("rev".into(), Value::String(self.rev.clone()));
        map.insert("dirty".into(), Value::Bool(self.dirty));
        map.insert("set".into(), Value::Number(self.set as f64));
        map.insert("workload".into(), Value::String(self.workload.clone()));
        map.insert("seed".into(), Value::Number(self.seed as f64));
        map.insert("metrics".into(), Value::Object(metrics));
        Value::Object(map)
    }

    fn from_value(value: &Value) -> Option<Record> {
        let Value::Object(map) = value else {
            return None;
        };
        let mut detail = map.clone();
        let mut take = |key: &str| detail.remove(key);
        let rev = take("rev")?.as_str()?.to_owned();
        let dirty = matches!(take("dirty")?, Value::Bool(true));
        let set = take("set")?.as_f64()? as usize;
        let workload = take("workload")?.as_str()?.to_owned();
        let seed = take("seed")?.as_f64()? as u64;
        let Value::Object(metrics) = take("metrics")? else {
            return None;
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        Some(Record {
            rev,
            dirty,
            set,
            workload,
            seed,
            metrics,
            detail,
        })
    }

    fn digest(&self) -> &str {
        self.detail
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or("")
    }
}

/// How one workload × metric pairing compares between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` wins at least nine tenths of ten or more pairs and its median
    /// is better by more than the distance between `a`'s quartiles — or
    /// the spread is wider than the bound but every run of `b` beats
    /// every run of `a`.
    Better,
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: Summary,
    pub b: Summary,
    /// `b`'s median over `a`'s (the base).
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Judges `b` against `a` for one metric. Values are paired by position:
/// run `i` of both sets used the same seed.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worse_by = match metric.better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let losses = a.iter().zip(b).filter(|(x, y)| beats(**x, **y)).count();
    let verdict = if sa.spread().max(sb.spread()) > metric.bound {
        if b.iter().all(|y| a.iter().all(|x| beats(*y, *x))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if pairs >= 10
        && wins * 10 >= (wins + losses) * 9
        && -worse_by * sa.median.abs() > sa.q3 - sa.q1
    {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Some(Row {
        a: sa,
        b: sb,
        ratio: sb.median / sa.median,
        verdict,
    })
}

/// Prints the comparison of two sets and returns whether every pairing
/// is `within` or `better` and every digest and exact statistic of a
/// shared seed is identical.
pub fn compare(a: &[Record], b: &[Record]) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "a median", "a q1", "a q3", "b median", "b q1", "b q3", "b/a"
    );
    for workload in WORKLOADS {
        let of = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload.name)
                .cloned()
                .collect()
        };
        let (ra, rb) = (of(a), of(b));
        for metric in &END_TO_END {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(metric.name).copied())
                    .collect()
            };
            let Some(row) = judge(metric, &values(&ra), &values(&rb)) else {
                continue;
            };
            ok &= matches!(row.verdict, Verdict::Within | Verdict::Better);
            println!(
                "{:<16} {:<12} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>8.4}  {:?} (n {} vs {}, bound {}, {} {})",
                workload.name,
                metric.name,
                row.a.median,
                row.a.q1,
                row.a.q3,
                row.b.median,
                row.b.q1,
                row.b.q3,
                row.ratio,
                row.verdict,
                row.a.n,
                row.b.n,
                metric.bound,
                metric.unit,
                metric.better.name()
            );
        }
        for x in &ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                let same =
                    x.digest() == y.digest() && x.detail.get("exact") == y.detail.get("exact");
                ok &= same;
                println!(
                    "{:<16} seed {:<6} digest and exact statistics {}",
                    workload.name,
                    x.seed,
                    if same { "identical" } else { "DIFFER" }
                );
            }
        }
    }
    ok
}

fn history_path() -> std::path::PathBuf {
    results_dir().join("history.jsonl")
}

/// `compare <a> <b>`: each selector is a revision prefix, optionally
/// followed by `#<set>`.
pub fn compare_history(a: &str, b: &str) -> Result<bool, String> {
    let path = history_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records: Vec<Record> = text
        .lines()
        .filter_map(|line| serde_json::from_str::<Value>(line).ok())
        .filter_map(|v| Record::from_value(&v))
        .collect();
    let select = |selector: &str| -> Result<Vec<Record>, String> {
        let (rev, set) = match selector.split_once('#') {
            Some((rev, set)) => (
                rev,
                Some(
                    set.parse::<usize>()
                        .map_err(|_| format!("bad set in `{selector}`"))?,
                ),
            ),
            None => (selector, None),
        };
        let chosen: Vec<Record> = records
            .iter()
            .filter(|r| r.rev.starts_with(rev) && set.is_none_or(|s| r.set == s))
            .cloned()
            .collect();
        if chosen.is_empty() {
            Err(format!("no run of `{selector}` in {}", path.display()))
        } else {
            Ok(chosen)
        }
    };
    Ok(compare(&select(a)?, &select(b)?))
}

/// `git rev-parse HEAD` and whether the tree has uncommitted changes.
/// Outside a git checkout the revision is unknown and counts as dirty.
fn revision(repo: &Path) -> (String, bool) {
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(status)) => (rev, !status.is_empty()),
        _ => ("unknown".to_owned(), true),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process and returns its result object
/// and `detail` object.
fn child_run(args: &RunArgs) -> Result<(Value, BTreeMap<String, Value>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} (seed {}) exited with {}",
            args.workload, args.seed, output.status
        ));
    }
    let parse = |line: &str| serde_json::from_str::<Value>(line).map_err(|e| e.to_string());
    let result = parse(stdout.lines().last().ok_or("the run printed nothing")?)?;
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or("the run printed no detail line")?;
    match parse(detail)? {
        Value::Object(detail) => Ok((result, detail)),
        _ => Err("the detail line is not an object".into()),
    }
}

/// The metric values of a run's result object.
fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Value::Object(metrics)) => metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// `all`: every workload, `runs` seeds per set, the sets interleaved;
/// prints each end-to-end metric with its sample count, median and
/// quartiles, appends the runs to the history, and compares later sets
/// with the first.
pub fn run_all(args: &SuiteArgs) -> Result<bool, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let (rev, dirty) = revision(&repo);
    if dirty && !args.allow_dirty {
        return Err(format!(
            "the tree at {rev} has uncommitted changes (or is not a git checkout); a run from it \
             cannot be keyed by commit. Pass --allow-dirty to run anyway and stamp `dirty: true`"
        ));
    }
    let host = BTreeMap::from([
        ("nproc".to_owned(), Value::Number(crate::nproc() as f64)),
        ("rustc".to_owned(), Value::String(rustc_version())),
        ("seconds".to_owned(), Value::Number(args.run.seconds)),
        ("smoke".to_owned(), Value::Bool(args.run.smoke)),
    ]);

    let mut ok = true;
    let mut sets: Vec<Vec<Record>> = vec![Vec::new(); args.sets];
    for workload in WORKLOADS {
        for run in 0..args.runs {
            // The sets take each seed back to back, alternating which goes
            // first, so that a drift of the machine falls on all alike.
            let mut order: Vec<usize> = (0..args.sets).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for set in order {
                let run_args = RunArgs {
                    workload: workload.name.to_owned(),
                    seed: args.run.seed + run as u64,
                    traced: false,
                    ..args.run.clone()
                };
                let (result, mut detail) = child_run(&run_args)?;
                ok &= matches!(result.get("correct"), Some(Value::Bool(true)));
                detail.extend(host.clone());
                let record = Record {
                    rev: rev.clone(),
                    dirty,
                    set: set + 1,
                    workload: run_args.workload,
                    seed: run_args.seed,
                    metrics: metric_values(&result),
                    detail,
                };
                // Run by run, so an interrupted suite keeps what it measured.
                append_history(&record)?;
                sets[set].push(record);
            }
        }
        if args.run.traced {
            let traced = RunArgs {
                workload: workload.name.to_owned(),
                traced: true,
                ..args.run.clone()
            };
            let (result, _) = child_run(&traced)?;
            ok &= matches!(result.get("correct"), Some(Value::Bool(true)));
            println!("{} traced, seed {}:", workload.name, traced.seed);
            let values = metric_values(&result);
            for (name, unit, _) in crate::PER_LAYER {
                let value = values.get(name).copied().unwrap_or(0.0);
                println!("  {name:<32} {value:>16.6} {unit}");
            }
        }
    }
    for (set, records) in sets.iter().enumerate() {
        print_set(set + 1, records);
    }
    for later in sets.iter().skip(1) {
        println!("set {} against set 1:", later[0].set);
        ok &= compare(&sets[0], later);
    }
    Ok(ok)
}

fn print_set(set: usize, records: &[Record]) {
    println!(
        "set {set}:\n{:<16} {:<12} {:<5} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "unit", "runs", "median", "q1", "q3", "spread"
    );
    for workload in WORKLOADS {
        let runs: Vec<&Record> = records
            .iter()
            .filter(|r| r.workload == workload.name)
            .collect();
        for metric in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(metric.name).copied())
                .collect();
            if let Some(s) = Summary::of(&values) {
                println!(
                    "{:<16} {:<12} {:<5} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>8.4}",
                    workload.name,
                    metric.name,
                    metric.unit,
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread()
                );
            }
        }
        if let Some(first) = runs.first() {
            let number = |key: &str| first.detail.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "{:<16} seed {}: {} of {} timed operations typical, median {:.6} s, q1 {:.6} s, q3 {:.6} s, digest {}",
                workload.name,
                first.seed,
                number("samples"),
                number("ops"),
                number("op_median_s"),
                number("op_q1_s"),
                number("op_q3_s"),
                first.digest()
            );
        }
    }
}

fn append_history(record: &Record) -> Result<(), String> {
    let path = history_path();
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let line = serde_json::to_string(&record.to_value()).map_err(|e| e.to_string())?;
    writeln!(file, "{line}").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIME: EndToEnd = EndToEnd {
        name: "op_typical_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base = around(10.0, 0.01);
        let verdict = |m: &EndToEnd, a: &[f64], b: &[f64]| judge(m, a, b).unwrap().verdict;
        assert_eq!(verdict(&TIME, &base, &around(10.02, 0.01)), Verdict::Within);
        assert_eq!(
            verdict(&TIME, &base, &around(11.5, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&TIME, &base, &around(9.0, 0.01)), Verdict::Better);
        // A lower rate is the regression for a higher-is-better metric.
        assert_eq!(
            verdict(&RATE, &base, &around(8.5, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&RATE, &base, &around(11.0, 0.01)), Verdict::Better);
        // Spread wider than the bound: unresolved, unless every run of b
        // beats every run of a.
        let noisy = around(10.0, 0.5);
        assert_eq!(
            verdict(&TIME, &noisy, &around(10.0, 0.5)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&TIME, &noisy, &around(5.0, 0.5)), Verdict::Better);
        // Fewer than ten pairs never claim a gain.
        assert_eq!(
            verdict(&TIME, &[10.0, 10.01], &[9.0, 9.01]),
            Verdict::Within
        );
        assert!(judge(&TIME, &[], &[1.0]).is_none());
        let row = judge(&TIME, &base, &around(11.0, 0.01)).unwrap();
        assert!((row.ratio - 1.1).abs() < 1e-9, "ratio is b over a");
    }

    #[test]
    fn records_round_trip_through_a_history_line() {
        let record = Record {
            rev: "0d96a15".into(),
            dirty: true,
            set: 2,
            workload: "sim_replay".into(),
            seed: 2014,
            metrics: BTreeMap::from([("op_typical_s".to_owned(), 3.25)]),
            detail: BTreeMap::from([
                ("digest".to_owned(), Value::String("00ff".into())),
                ("samples".to_owned(), Value::Number(5.0)),
            ]),
        };
        let line = serde_json::to_string(&record.to_value()).unwrap();
        let back = Record::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.digest(), "00ff");
    }
}
