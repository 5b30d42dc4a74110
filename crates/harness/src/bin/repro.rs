//! The reproduction CLI: regenerates every figure of the paper.
//!
//! ```text
//! repro <experiment>... [--quick|--smoke] [--out DIR]
//! repro all [--quick]
//! ```
//!
//! Experiments: fig3 fig5 fig7a fig7b fig8 fig9 fig10 fig11 fig13 fig14
//! fig15 headline ablation sla trace bench. Results land in `results/`
//! as markdown + CSV and are echoed to stdout; `trace` additionally
//! writes Chrome trace JSON (Perfetto-loadable) and per-request
//! timelines. Every experiment but two runs in virtual time and is
//! reproducible byte for byte; the two that read the wall clock are
//! `fig3`'s CPU curve and `bench`, a same-process check that a
//! 1–3-row packed-GEMM call costs no more than the 4-row call (it
//! panics, so `repro` exits non-zero, when the rule is violated). How
//! fast the server is — kernels, runtime, socket path, telemetry
//! overhead — is measured by the repo's benchmark
//! (`benchmark/README.md`), not here.
//!
//! Every name is checked against the experiment list before anything
//! runs, and a name given twice (or once and again through `all`) runs
//! once.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bm_harness::experiments::{
    ablation, bench, fig10, fig11, fig13, fig14, fig15, fig3, fig5, fig7, fig8, fig9, headline,
    sla, trace, Scale,
};
use bm_harness::write_results;
use bm_metrics::Table;

/// Runs one experiment: scale and output directory (for the
/// experiments that write files of their own).
type Runner = fn(Scale, &Path) -> Vec<Table>;

/// An experiment's name on the command line and what runs it.
type Experiment = (&'static str, Runner);

/// Every experiment, in `repro all` order: the one list both the usage
/// text and the dispatch read.
static EXPERIMENTS: &[Experiment] = &[
    ("fig3", |scale, _| fig3::run(scale)),
    ("fig5", |scale, _| fig5::run(scale)),
    ("fig7a", |scale, _| fig7::run_a(scale)),
    ("fig7b", |scale, _| fig7::run_b(scale)),
    ("fig8", |scale, _| fig8::run(scale)),
    ("fig9", |scale, _| fig9::run(scale)),
    ("fig10", |scale, _| fig10::run(scale)),
    ("fig11", |scale, _| fig11::run(scale)),
    ("fig13", |scale, _| fig13::run(scale)),
    ("fig14", |scale, _| fig14::run(scale)),
    ("fig15", |scale, _| fig15::run(scale)),
    ("headline", |scale, _| headline::run(scale)),
    ("ablation", |scale, _| ablation::run(scale)),
    ("sla", |scale, _| sla::run(scale)),
    ("trace", |scale, out_dir| trace::run(scale, out_dir)),
    ("bench", |scale, _| bench::run(scale)),
];

fn known() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// The experiments `names` selects, in the order first named: `all`
/// expands to the whole list, and a repeat (adjacent or not, spelled out
/// or through `all`) runs once. An unknown name is an error before
/// anything runs.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for name in names {
        let mut named = EXPERIMENTS
            .iter()
            .filter(|e| name == "all" || name == e.0)
            .peekable();
        if named.peek().is_none() {
            return Err(format!("unknown experiment {name}; known: {} all", known()));
        }
        for entry in named {
            if !selected.iter().any(|s| std::ptr::eq(*s, entry)) {
                selected.push(entry);
            }
        }
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" | "--smoke" => scale = Scale::Quick,
            "--out" => match iter.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            _ => names.push(a),
        }
    }
    if names.is_empty() {
        eprintln!("usage: repro <experiment>... [--quick|--smoke] [--out DIR]");
        eprintln!("experiments: {} all", known());
        return ExitCode::FAILURE;
    }
    let selected = match select(&names) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("{unknown}");
            return ExitCode::FAILURE;
        }
    };
    for &(name, run) in selected {
        eprintln!("== running {name} ({scale:?}) ==");
        let start = std::time::Instant::now();
        let tables = run(scale, &out_dir);
        write_results(&out_dir, name, &tables);
        eprintln!("== {name} done in {:.1?} ==\n", start.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Ok(select(&args)?.iter().map(|e| e.0).collect())
    }

    /// Name and runner are one table entry, so no name lacks a runner
    /// and no runner lacks a name; what is left to check is that each
    /// name selects its own entry and only that.
    #[test]
    fn every_experiment_is_dispatched_under_its_own_name() {
        assert_eq!(EXPERIMENTS.len(), 16);
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            let picked = select(&[name.to_string()]).expect("listed name");
            assert_eq!(picked.len(), 1, "{name}");
            assert!(std::ptr::eq(picked[0], &EXPERIMENTS[i]), "{name}");
        }
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names(&["all"]).unwrap(), all);
    }

    #[test]
    fn repeats_run_once_in_first_named_order() {
        assert_eq!(names(&["all", "fig3"]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(names(&["sla", "fig3", "sla"]).unwrap(), ["sla", "fig3"]);
        let fig9_first = names(&["fig9", "all"]).unwrap();
        assert_eq!(fig9_first[0], "fig9");
        assert_eq!(fig9_first.len(), EXPERIMENTS.len());
    }

    #[test]
    fn an_unknown_name_is_refused_before_anything_runs() {
        let err = names(&["all", "typo"]).expect_err("typo is not an experiment");
        assert!(err.contains("unknown experiment typo"), "{err}");
        assert!(err.contains("fig3") && err.contains("bench"), "{err}");
    }
}
