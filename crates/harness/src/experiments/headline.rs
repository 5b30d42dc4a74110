//! The paper's headline numbers (§1, §7 highlights): latency reductions
//! and throughput improvements of BatchMaker over each baseline,
//! derived from the same sweeps as Figures 7, 13 and 14.

use bm_metrics::Table;

use crate::experiments::serving::{p90_at, peak_throughput, SweepPoint};
use crate::experiments::{fig13, fig14, fig7, Scale};

/// Latency reduction (%) of BatchMaker's p90 vs `base` at `rate`.
fn latency_reduction(points: &[SweepPoint], bm: &str, base: &str, rate: f64) -> Option<f64> {
    let b = p90_at(points, bm, rate)?;
    let x = p90_at(points, base, rate)?;
    Some((1.0 - b / x) * 100.0)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Headline comparison (paper §7 highlights vs measured)",
        &["metric", "paper", "measured"],
    );

    // LSTM (Figure 7a data).
    let (lstm, _) = fig7::run_sub(scale, 512);
    let bm_peak = peak_throughput(&lstm, "BatchMaker");
    let mx_peak = peak_throughput(&lstm, "MXNet");
    let tf_peak = peak_throughput(&lstm, "TensorFlow");
    t.push_row(vec![
        "LSTM throughput vs MXNet/TF".into(),
        "+25%".into(),
        format!(
            "+{:.0}% / +{:.0}%",
            (bm_peak / mx_peak - 1.0) * 100.0,
            (bm_peak / tf_peak - 1.0) * 100.0
        ),
    ]);
    // Moderate load = half the baseline peak (the paper's definition).
    let moderate = mx_peak / 2.0;
    t.push_row(vec![
        "LSTM p90 latency reduction (moderate load)".into(),
        "37.5-90.5%".into(),
        format!(
            "{:.0}% vs MXNet, {:.0}% vs TF",
            latency_reduction(&lstm, "BatchMaker", "MXNet", moderate).unwrap_or(f64::NAN),
            latency_reduction(&lstm, "BatchMaker", "TensorFlow", moderate).unwrap_or(f64::NAN)
        ),
    ]);

    // Seq2Seq (Figure 13, 2 GPUs).
    let (s2s, _) = fig13::run_points(scale, 2);
    let by = |name: &str| {
        &s2s.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("fig13 ran no system named {name}"))
            .1
    };
    let bm_s2s = peak_throughput(by("BatchMaker-512,256"), "BatchMaker");
    let mx_s2s = peak_throughput(by("MXNet"), "MXNet");
    t.push_row(vec![
        "Seq2Seq throughput vs MXNet".into(),
        "+60%".into(),
        format!("+{:.0}%", (bm_s2s / mx_s2s - 1.0) * 100.0),
    ]);
    let moderate_s2s = mx_s2s / 2.0;
    let bm_p90 = p90_at(by("BatchMaker-512,256"), "BatchMaker", moderate_s2s);
    let mx_p90 = p90_at(by("MXNet"), "MXNet", moderate_s2s);
    t.push_row(vec![
        "Seq2Seq p90 latency reduction (moderate load)".into(),
        "17.5-82.6%".into(),
        match (bm_p90, mx_p90) {
            (Some(b), Some(m)) => format!("{:.0}% vs MXNet", (1.0 - b / m) * 100.0),
            _ => "-".into(),
        },
    ]);

    // TreeLSTM (Figure 14).
    let (tree, _) = fig14::run_points(scale);
    let bm_tree = peak_throughput(&tree, "BatchMaker");
    let fold = peak_throughput(&tree, "TF Fold");
    let dynet = peak_throughput(&tree, "DyNet");
    t.push_row(vec![
        "TreeLSTM throughput vs Fold".into(),
        "4x".into(),
        format!("{:.1}x", bm_tree / fold),
    ]);
    t.push_row(vec![
        "TreeLSTM throughput vs DyNet".into(),
        "1.8x".into(),
        format!("{:.1}x", bm_tree / dynet),
    ]);
    let r = 1_000.0;
    t.push_row(vec![
        "TreeLSTM p90 latency reduction vs DyNet (1k req/s)".into(),
        "28%".into(),
        latency_reduction(&tree, "BatchMaker", "DyNet", r)
            .map(|v| format!("{v:.0}%"))
            .unwrap_or_else(|| "-".into()),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_table_has_all_rows() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].row_count(), 7);
        let csv = tables[0].to_csv();
        // Every measured cell is populated.
        for line in csv.lines().skip(1) {
            assert!(!line.ends_with(",-"), "missing measurement: {line}");
        }
    }
}
