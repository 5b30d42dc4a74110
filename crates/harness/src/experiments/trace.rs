//! `repro trace`: record an instrumented serving run and export it.
//!
//! Not a paper figure — the observability companion to the scheduler:
//! serves a short LSTM run and a short Seq2Seq run through the
//! simulated `CellularServer` with a [`RingBufferSink`] in its serve
//! config, then writes two artifacts per run under the results
//! directory:
//!
//! - `trace_<run>.chrome.json` — Chrome trace-event JSON; load it at
//!   `ui.perfetto.dev` (or `chrome://tracing`) to see one track per
//!   worker, every batched task as a slice annotated with its batch
//!   size and the Algorithm 1 branch that formed it, and flow arrows
//!   following each request across workers;
//! - `trace_<run>.timelines.txt` — plain-text per-request timelines
//!   reconstructed by [`bm_trace::reconstruct_timelines`].
//!
//! The returned tables summarise what was captured (event counts by
//! kind, batch-formation reasons, migrations).

use std::path::Path;
use std::sync::Arc;

use bm_core::{SchedulerConfig, ServeConfig};
use bm_metrics::Table;
use bm_model::{LstmLm, LstmLmConfig, Model, Seq2Seq};
use bm_sim::{simulate, SimOptions};
use bm_trace::{
    chrome_trace_with_meta, reconstruct_timelines, render_timelines, EventKind, RingBufferSink,
    TraceEvent,
};
use bm_workload::{Dataset, LengthDistribution};

use crate::experiments::serving::arrivals;
use crate::experiments::Scale;
use crate::systems::{ServerFactory, SystemKind};

/// Events the capture buffer holds; large enough that short recorded
/// runs never wrap.
const CAPACITY: usize = 1 << 20;

fn record_run(
    name: &str,
    model: Arc<dyn Model>,
    ds: &Dataset,
    rate: f64,
    n: usize,
    workers: usize,
    out_dir: &Path,
) -> Table {
    let sink = Arc::new(RingBufferSink::new(CAPACITY));
    let mut factory = ServerFactory::paper(model);
    factory.scheduler = SchedulerConfig::new().serve(ServeConfig::new().trace(sink.clone()));
    let mut server = factory.build(&SystemKind::BatchMaker);
    let arr = arrivals(ds, rate, n, 0x7ace ^ n as u64);
    let out = simulate(server.as_mut(), &arr, SimOptions::new().workers(workers));
    let events = sink.events();

    std::fs::create_dir_all(out_dir).expect("create results dir");
    let chrome_path = out_dir.join(format!("trace_{name}.chrome.json"));
    std::fs::write(
        &chrome_path,
        chrome_trace_with_meta(&events, sink.dropped()),
    )
    .expect("write chrome trace");
    let timelines = reconstruct_timelines(&events);
    let text_path = out_dir.join(format!("trace_{name}.timelines.txt"));
    std::fs::write(&text_path, render_timelines(&timelines)).expect("write timelines");
    eprintln!(
        "wrote {} and {}",
        chrome_path.display(),
        text_path.display()
    );

    summarize(
        name,
        &events,
        timelines.len(),
        out.recorder.len(),
        sink.dropped(),
    )
}

fn summarize(
    name: &str,
    events: &[TraceEvent],
    timelines: usize,
    completed: usize,
    dropped: u64,
) -> Table {
    let mut batches = 0u64;
    let mut by_reason = [0u64; 3];
    let mut migrations = 0u64;
    let mut counts = [0u64; bm_trace::NUM_EVENT_KINDS];
    // Per-worker busy time from task slices: each task's wall time is
    // the span between its TaskStarted and TaskCompleted events.
    let mut task_start: std::collections::HashMap<u64, u64> = Default::default();
    let mut busy_us: std::collections::BTreeMap<u32, u64> = Default::default();
    let (mut span_lo, mut span_hi) = (u64::MAX, 0u64);
    for ev in events {
        counts[ev.kind.index()] += 1;
        span_lo = span_lo.min(ev.ts_us);
        span_hi = span_hi.max(ev.ts_us);
        match &ev.kind {
            EventKind::BatchFormed { reason, .. } => {
                batches += 1;
                by_reason[*reason as usize] += 1;
            }
            EventKind::SubgraphMigrated { .. } => migrations += 1,
            EventKind::TaskStarted { task, .. } => {
                task_start.insert(*task, ev.ts_us);
            }
            EventKind::TaskCompleted { task, worker } => {
                if let Some(start) = task_start.remove(task) {
                    *busy_us.entry(*worker).or_default() += ev.ts_us.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    let span_us = span_hi.saturating_sub(span_lo).max(1);
    let mut t = Table::new(format!("Trace summary: {name}"), &["metric", "value"]);
    let mut row = |metric: &str, value: String| t.push_row(vec![metric.to_string(), value]);
    row("events_captured", events.len().to_string());
    row("events_dropped", dropped.to_string());
    row("request_timelines", timelines.to_string());
    row("requests_completed", completed.to_string());
    row("batches_formed", batches.to_string());
    row("batches_saturation", by_reason[0].to_string());
    row("batches_starvation", by_reason[1].to_string());
    row("batches_priority", by_reason[2].to_string());
    row("subgraph_migrations", migrations.to_string());
    for (w, b) in &busy_us {
        // Busy fraction of the captured span; workers run tasks
        // serially, so this is true utilization, not oversubscription.
        let util = *b as f64 / span_us as f64 * 100.0;
        row(
            &format!("worker_{w}_utilization_pct"),
            format!(
                "{util:.1} ({:.1} ms busy / {:.1} ms span)",
                *b as f64 / 1e3,
                span_us as f64 / 1e3
            ),
        );
    }
    for (i, c) in counts.iter().enumerate() {
        // Per-kind counts for kinds not already summarised above.
        if i != 3 && i != 7 {
            row(bm_trace::KIND_NAMES[i], c.to_string());
        }
    }
    t
}

/// Records and exports both runs; artifacts land in `out_dir`.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Table> {
    let (n_lstm, n_s2s) = match scale {
        Scale::Quick => (80, 60),
        Scale::Full => (600, 400),
    };
    let lstm = Arc::new(LstmLm::new(LstmLmConfig {
        max_batch: 512,
        ..Default::default()
    }));
    let ds_lstm = Dataset::lstm(n_lstm, LengthDistribution::wmt15_clipped(30), 900, 0x1a7);
    let t_lstm = record_run("lstm", lstm, &ds_lstm, 2_000.0, n_lstm, 2, out_dir);

    let s2s = Arc::new(Seq2Seq::small());
    let ds_s2s = Dataset::seq2seq(n_s2s, LengthDistribution::wmt15_clipped(12), 450, 0x2b8);
    let t_s2s = record_run("seq2seq", s2s, &ds_s2s, 1_000.0, n_s2s, 2, out_dir);

    vec![t_lstm, t_s2s]
}
