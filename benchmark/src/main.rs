//! `bm-benchmark`: the repo's socket-to-kernel benchmark.
//!
//! ```text
//! bm-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
//! bm-benchmark smoke
//! bm-benchmark compare <A.jsonl> <B.jsonl>
//! ```
//!
//! `run` hosts a default-configuration `NetServer` in-process on
//! loopback, drives it from a load generator of at most two threads and
//! two connections, verifies every response against the unbatched
//! reference executor and prints every metric by name with its unit;
//! the last line of standard output is the JSON object the driver
//! reads. `--trace 1` is the separate traced run that yields the
//! per-layer metrics. See `benchmark/README.md`.

mod compare;
mod host;
mod layers;
mod loadgen;
mod result;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use result::RunRecord;
use workloads::{Workload, WORKLOADS};

/// `--seconds` of the smoke mode: 1 s mid and high phases.
const SMOKE_SECONDS: f64 = 3.0;

const USAGE: &str = "usage:
  bm-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
  bm-benchmark smoke
  bm-benchmark compare <A.jsonl> <B.jsonl>
workloads: chain_tiny chain_wmt seq2seq_wmt tree_bank";

/// Parsed `run` arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, run::DEFAULT_SECONDS, false, None);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 600.0)
                    .ok_or("--seconds must be a number from 1 to 600")?;
            }
            "--out" => out = Some(value("a file")?),
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// Prints the report and the driver line; appends the full record to
/// `out` when given. Returns whether the run was correct.
fn finish(rec: &RunRecord, out: Option<&str>) -> Result<bool, String> {
    print!("{}", rec.report());
    if let Some(path) = out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {path}: {e}"))?;
        writeln!(f, "{}", rec.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if !rec.correct() {
        // No result line: a wrong answer is not a measurement.
        eprintln!(
            "FAILED: {} of {} requests failed, {} oracle mismatches or protocol errors",
            rec.failed(),
            rec.attempted(),
            rec.mismatches
        );
        return Ok(false);
    }
    println!("{}", rec.driver_line());
    Ok(true)
}

fn run_once(args: &RunArgs) -> RunRecord {
    if args.trace {
        traced::run_traced(args.workload, args.seed, args.seconds)
    } else {
        run::run_end_to_end(args.workload, args.seed, args.seconds)
    }
}

/// Every workload end to end with 1 s phases and the oracle on.
fn smoke() -> bool {
    WORKLOADS.iter().all(|&workload| {
        let rec = run::run_end_to_end(workload, 1, SMOKE_SECONDS);
        print!("{}", rec.report());
        rec.correct()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| finish(&run_once(&a), a.out.as_deref())),
        Some("smoke") if args.len() == 1 => Ok(smoke()),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_issue_command_lines_parse() {
        let a = parse_run(&args(
            "--workload chain_wmt --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("chain_wmt", 7, 10.0, false)
        );
        assert!(
            parse_run(&args("--workload tree_bank --seed 1 --trace 1"))
                .unwrap()
                .trace
        );
        let a = parse_run(&args("--trace --workload tree_bank --seed 1")).unwrap();
        assert!(a.trace && a.seconds == run::DEFAULT_SECONDS);
        assert!(parse_run(&args("--workload nope --seed 1")).is_err());
        assert!(parse_run(&args("--workload tree_bank")).is_err());
        assert!(parse_run(&args("--workload tree_bank --seed 1 --seconds 0")).is_err());
    }

    /// The `smoke` mode: all four workloads, 1 s phases, oracle on
    /// (≈20 s on the build host when nothing else runs).
    #[test]
    fn smoke_mode_is_correct() {
        assert!(smoke());
    }
}
