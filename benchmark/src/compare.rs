//! `compare A B`: the parent's runs (A) against a change's runs (B).
//!
//! For every (end-to-end metric, workload) pair, in its own row: both
//! medians and quartiles, how many pairs B won, and a verdict by the
//! rule of the choosing-metrics guide —
//!
//! - **unresolved** when either side's run-to-run spread (quartile
//!   distance ÷ median) is wider than the metric's bound;
//! - **regressed** when B's median is worse than A's by more than the
//!   bound (for `fail_share`: when B's runs together failed a larger
//!   share than A's, so failures in a minority of runs show);
//! - **improved** when at least [`MIN_PAIRS`] pairs ran, B won at least
//!   nine tenths of them (ties count for neither) and the medians differ
//!   by more than A's own quartile distance;
//! - **unchanged** otherwise.
//!
//! Runs pair up in file order per workload, and a pair must share its
//! seed and `--seconds`: two sets taken with different `run.sh`
//! arguments are refused. A pair in which either run's generator ran too
//! late (`unresolved` in the record) is left out of every row. A
//! workload whose `fail_share` regressed has no `improved` row: a gain
//! bought with failed requests is not one. Per-layer metrics of traced
//! records are listed with their medians and no verdict: they have no
//! bound.

use std::collections::BTreeMap;

use crate::result::{end_to_end_rows, metric_def, Better, MetricDef, RunRecord, FAIL_SHARE};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Pairs a gain needs before it can be claimed.
const MIN_PAIRS: usize = 10;

/// What one row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the nine-tenths rule.
    Improved,
    /// No regression beyond the bound and no claimable gain.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread is wider than the bound: nothing can be concluded.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile (the median itself with fewer than two values).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let m = median(values);
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (m, m)
        };
        Summary { median: m, q1, q3 }
    }

    /// Quartile distance as a share of the median (0 when both are 0).
    fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

/// Judges one (metric, workload) pair from the paired values of A and B.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Summary, Summary, usize, Verdict) {
    let pairs = a.len().min(b.len());
    let (a, b) = (&a[..pairs], &b[..pairs]);
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    // How much worse B's median is, as a share of A's.
    let worse_by = match def.better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let regressed = if def.bound == 0.0 {
        // `fail_share`: any increase over the runs together. Its median
        // stays 0 while fewer than half of the runs fail.
        b.iter().sum::<f64>() > a.iter().sum::<f64>()
    } else {
        worse_by > def.bound * sa.median.abs()
    };
    let verdict = if def.bound > 0.0 && sa.spread().max(sb.spread()) > def.bound {
        Verdict::Unresolved
    } else if regressed {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (sa, sb, wins, verdict)
}

/// Reads every record of a `.jsonl` file written by `run --out`.
fn read_records(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunRecord::from_json(l).map_err(|e| format!("{path} line {}: {e}", i + 1)))
        .collect()
}

/// `values[(workload, metric)]` in file order.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn push_metrics(into: &mut Values, r: &RunRecord) {
    for (name, v) in &r.metrics {
        if let Some(v) = v {
            into.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*v);
        }
    }
}

/// Per-layer values of the traced records of one side.
fn collect_traced(records: &[RunRecord]) -> Values {
    let mut out = Values::new();
    for r in records.iter().filter(|r| r.traced) {
        push_metrics(&mut out, r);
    }
    out
}

/// The end-to-end (untraced) records of one workload, in file order.
fn end_to_end_runs<'r>(
    records: &'r [RunRecord],
    workload: &'r str,
) -> impl Iterator<Item = &'r RunRecord> {
    records
        .iter()
        .filter(move |r| !r.traced && r.workload == workload)
}

/// End-to-end values of both sides, paired in file order per workload,
/// and how many pairs were left out because a generator ran too late.
/// Refuses pairs that differ in seed or `--seconds`.
fn collect_pairs(a: &[RunRecord], b: &[RunRecord]) -> Result<(Values, Values, usize), String> {
    let (mut va, mut vb, mut late) = (Values::new(), Values::new(), 0);
    for w in WORKLOADS {
        let pairs = end_to_end_runs(a, w.name).zip(end_to_end_runs(b, w.name));
        for (i, (ra, rb)) in pairs.enumerate() {
            if ra.seed != rb.seed || ra.seconds != rb.seconds {
                return Err(format!(
                    "{} pair {}: A ran seed {} for {} s, B seed {} for {} s; \
                     take both sets with the same run.sh arguments",
                    w.name,
                    i + 1,
                    ra.seed,
                    ra.seconds,
                    rb.seed,
                    rb.seconds
                ));
            }
            if ra.unresolved || rb.unresolved {
                late += 1;
                continue;
            }
            push_metrics(&mut va, ra);
            push_metrics(&mut vb, rb);
        }
    }
    Ok((va, vb, late))
}

/// Prints the comparison of two result files; `Ok(false)` when any row
/// regressed.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    let (ea, eb, late) = collect_pairs(&a, &b)?;
    let mut regressed = 0usize;
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<12} {:<20} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "B wins"
    );
    for w in WORKLOADS {
        let values = |name: &str| {
            let key = (w.name.to_string(), name.to_string());
            Some((ea.get(&key)?, eb.get(&key)?))
        };
        let failures_rose = values(FAIL_SHARE.name)
            .is_some_and(|(va, vb)| judge(&FAIL_SHARE, va, vb).3 == Verdict::Regressed);
        for def in end_to_end_rows() {
            let Some((va, vb)) = values(def.name) else {
                continue;
            };
            let (sa, sb, wins, mut verdict) = judge(def, va, vb);
            if failures_rose && verdict == Verdict::Improved {
                verdict = Verdict::Unresolved;
            }
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<12} {:<20} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>4}/{:<2}  {}",
                w.name,
                def.name,
                def.unit,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                wins,
                va.len().min(vb.len()),
                verdict.label()
            );
        }
    }
    if late > 0 {
        println!(
            "{late} pair(s) left out: the generator ran too late for their latencies to count"
        );
    }
    let (la, lb) = (collect_traced(&a), collect_traced(&b));
    if !la.is_empty() && !lb.is_empty() {
        println!("\nper-layer metrics (traced runs; medians, no bound, no verdict)");
        for (key, va) in &la {
            if let Some(vb) = lb.get(key) {
                let (ma, mb) = (median(va), median(vb));
                let unit = metric_def(&key.1).map_or("", |d| d.unit);
                println!(
                    "{:<12} {:<44} {:>8} {:>14.4} {:>14.4} {:>+8.1} %",
                    key.0,
                    key.1,
                    unit,
                    ma,
                    mb,
                    if ma == 0.0 {
                        0.0
                    } else {
                        (mb / ma - 1.0) * 100.0
                    }
                );
            }
        }
    }
    if regressed > 0 {
        eprintln!("{regressed} row(s) regressed");
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lower-is-better metric with a 10 % bound.
    fn latency() -> MetricDef {
        MetricDef {
            name: "latency_ms",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
        }
    }

    /// Ten values around `center` with a quartile distance of ~2 %.
    fn around(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + (i as f64 - 4.5) * 0.004))
            .collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        let a = around(2.0);
        let mut b = a.clone();
        b.reverse();
        assert_eq!(judge(&latency(), &a, &b).3, Verdict::Unchanged);
    }

    #[test]
    fn a_clear_gain_needs_ten_pairs_and_nine_wins() {
        let (a, b) = (around(2.0), around(1.8));
        let (_, _, wins, verdict) = judge(&latency(), &a, &b);
        assert_eq!((wins, verdict), (10, Verdict::Improved));
        // The same gain over five pairs is not claimable.
        assert_eq!(judge(&latency(), &a[..5], &b[..5]).3, Verdict::Unchanged);
        // Nor is one that wins only 8 of 10.
        let mut mixed = b.clone();
        mixed[0] = 2.1;
        mixed[1] = 2.1;
        assert_eq!(judge(&latency(), &a, &mixed).3, Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_regressed_and_direction_matters() {
        let (a, b) = (around(2.0), around(2.3));
        assert_eq!(judge(&latency(), &a, &b).3, Verdict::Regressed);
        let rps = MetricDef {
            better: Better::Higher,
            ..latency()
        };
        assert_eq!(
            judge(&rps, &around(1000.0), &around(1150.0)).3,
            Verdict::Improved
        );
        assert_eq!(
            judge(&rps, &around(1000.0), &around(850.0)).3,
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10).map(|i| 2.0 + (i % 5) as f64 * 0.2).collect();
        assert_eq!(
            judge(&latency(), &noisy, &around(1.0)).3,
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_new_failure_regresses_fail_share() {
        let def = FAIL_SHARE;
        assert_eq!(judge(&def, &[0.0; 3], &[0.0; 3]).3, Verdict::Unchanged);
        assert_eq!(
            judge(&def, &[0.0; 3], &[0.0, 0.001, 0.001]).3,
            Verdict::Regressed
        );
        // Failures in 4 of 10 runs leave the median at 0 and still count.
        let mut b = [0.0; 10];
        b[..4].fill(0.01);
        assert_eq!(judge(&def, &[0.0; 10], &b).3, Verdict::Regressed);
    }

    fn record(workload: &str, seed: u64, seconds: f64, p50: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed,
            traced: false,
            seconds,
            plan: String::new(),
            host: crate::host::HostInfo {
                nproc: 2,
                avx2: true,
                avx512f: false,
                git_commit: "unknown".into(),
            },
            backend: "epoll".into(),
            shards: 1,
            workers: 1,
            phases: Vec::new(),
            mismatches: 0,
            unresolved: false,
            metrics: vec![("mid_p50_ms".into(), Some(p50))],
        }
    }

    #[test]
    fn pairs_must_share_seed_and_length_and_late_pairs_are_left_out() {
        let a = [
            record("chain_wmt", 1, 30.0, 2.0),
            record("chain_wmt", 2, 30.0, 2.1),
        ];
        let mut b = a.clone();
        b[1].unresolved = true;
        let (va, vb, late) = collect_pairs(&a, &b).expect("same arguments");
        let key = ("chain_wmt".to_string(), "mid_p50_ms".to_string());
        assert_eq!(
            (va[&key].as_slice(), vb[&key].as_slice(), late),
            (&[2.0][..], &[2.0][..], 1)
        );
        b[0].seconds = 10.0;
        assert!(collect_pairs(&a, &b).is_err(), "different --seconds");
        b[0].seconds = 30.0;
        b[0].seed = 9;
        assert!(collect_pairs(&a, &b).is_err(), "different seeds");
    }
}
