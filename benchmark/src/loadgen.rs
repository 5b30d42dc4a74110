//! The load generator: one closed loop and one open loop over loopback,
//! with every response checked against the oracle.
//!
//! Thread and connection budget (asserted by [`assert_fits_host`]): the
//! closed loop runs [`PEAK_CONNS`] connections with one thread each, the
//! open loop one connection with a sender and a receiver thread —
//! never more than two of either, so a 2-core host is not oversubscribed
//! by its own generator.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bm_core::{Request, ServedTiming};
use bm_net::{wire, NetClient, NetResponse};
use bm_workload::{Pacer, PoissonArrivals};

use crate::host;
use crate::workloads::Expected;

/// Closed-loop connections (one thread each).
pub const PEAK_CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const PEAK_WINDOW: usize = 32;
/// Threads the open loop runs (sender + receiver on one connection).
const OPEN_THREADS: usize = 2;

/// A response that takes longer than this is counted as lost, so a
/// wedged server fails the run instead of hanging it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Sets the timer slack new threads of this process inherit from the
/// calling (main) thread, ns; 0 restores the kernel default of 50 µs.
/// Best effort: without the file the sender just sleeps less exactly.
fn set_inherited_timer_slack(ns: u32) {
    let _ = std::fs::write("/proc/self/timerslack_ns", ns.to_string());
}

/// Panics unless the generator's threads and connections fit the host.
pub fn assert_fits_host() {
    let n = host::nproc();
    assert!(
        PEAK_CONNS <= n && OPEN_THREADS <= n,
        "load generator needs {} threads/connections but the host has {n} core(s)",
        PEAK_CONNS.max(OPEN_THREADS)
    );
}

/// The request stream: the run's distinct inputs, wrapped once so the
/// hot loops allocate nothing, and what each must answer.
pub struct Stream {
    /// One request per distinct input.
    pub requests: Vec<Request>,
    /// The oracle's answer per input.
    pub expected: Vec<Expected>,
}

impl Stream {
    /// The input index the `n`-th request of a connection carries.
    fn index(&self, offset: usize, n: u32) -> usize {
        (offset + n as usize) % self.requests.len()
    }
}

/// How one response compares with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Completed and equal to the oracle.
    Ok,
    /// Refused, expired or shut down.
    NotCompleted,
    /// Completed with the wrong node count or tokens.
    Mismatch,
}

/// Checks a response against the oracle's answer for its input.
pub fn check(resp: &NetResponse, want: &Expected) -> Verdict {
    match resp {
        NetResponse::Completed {
            executed, tokens, ..
        } => {
            if *executed == want.executed && *tokens == want.tokens {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            }
        }
        _ => Verdict::NotCompleted,
    }
}

/// Requests sent / answered correctly / failed in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests written to the socket.
    pub sent: u64,
    /// Responses that completed and matched the oracle.
    pub ok: u64,
    /// Completed responses that differ from the oracle.
    pub mismatched: u64,
}

impl Counts {
    /// Sent but not answered correctly: refused, expired, lost or wrong.
    pub fn failed(&self) -> u64 {
        self.sent.saturating_sub(self.ok)
    }

    /// Adds another phase's (or window's) counts to these.
    pub fn add(&mut self, other: Counts) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
    }
}

/// Runs `f`, returning its result and the CPU time every thread alive
/// both before and after it consumed meanwhile. `f` must join the
/// threads it spawns: they then appear in neither reading, which leaves
/// the server's threads.
pub fn with_server_cpu<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = host::live_threads_cpu_ns();
    let r = f();
    (r, host::live_threads_cpu_ns().saturating_sub(before))
}

/// Outcome of a closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Request counts over all connections, the final drain included.
    pub counts: Counts,
    /// Verified completions before the phase's time was up: what the
    /// phase's rate is taken from.
    pub timely_ok: u64,
}

/// Closed loop: [`PEAK_CONNS`] connections keep [`PEAK_WINDOW`]
/// requests in flight each (send one per receive) for `len`, then
/// drain.
pub fn closed_loop(addr: SocketAddr, stream: &Stream, len: Duration) -> ClosedLoop {
    let mut total = ClosedLoop::default();
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..PEAK_CONNS)
            .map(|c| {
                let offset = c * stream.requests.len() / PEAK_CONNS;
                s.spawn(move || closed_loop_conn(addr, stream, offset, len))
            })
            .collect();
        for c in conns {
            let part = c.join().expect("closed-loop thread");
            total.counts.add(part.counts);
            total.timely_ok += part.timely_ok;
        }
    });
    total
}

fn closed_loop_conn(addr: SocketAddr, stream: &Stream, offset: usize, len: Duration) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut client = NetClient::connect(addr).expect("connect closed-loop client");
    let t0 = Instant::now();
    let mut next = 0u32;
    let mut inflight = 0usize;
    let mut send = |client: &mut NetClient, out: &mut ClosedLoop| -> bool {
        let req = &stream.requests[stream.index(offset, next)];
        match client.send(req) {
            Ok(corr) => {
                debug_assert_eq!(corr, next);
                next += 1;
                out.counts.sent += 1;
                true
            }
            Err(_) => false,
        }
    };
    while inflight < PEAK_WINDOW && send(&mut client, &mut out) {
        inflight += 1;
    }
    while inflight > 0 {
        let Ok((corr, resp)) = client.recv() else {
            break; // connection lost: what is outstanding stays failed
        };
        inflight -= 1;
        let at = t0.elapsed();
        match check(&resp, &stream.expected[stream.index(offset, corr)]) {
            Verdict::Ok => {
                out.counts.ok += 1;
                out.timely_ok += u64::from(at < len);
            }
            Verdict::Mismatch => out.counts.mismatched += 1,
            Verdict::NotCompleted => {}
        }
        if at < len && send(&mut client, &mut out) {
            inflight += 1;
        }
    }
    out
}

/// Client-side timestamps of one traced request, ns on the phase clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    /// Sender woke for this request (scheduled time + lateness).
    pub encode_start: u64,
    /// Frame encoded, `write_all` begins.
    pub write_start: u64,
    /// `write_all` returned.
    pub write_end: u64,
    /// Receiver holds the complete response frame.
    pub decode_start: u64,
    /// Response decoded.
    pub decode_end: u64,
    /// The server's own timing of the request, on its clock (`None`
    /// until a completed response arrives).
    pub served: Option<ServedTiming>,
}

/// Outcome of an open-loop phase.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Zero of the phase clock (schedule times and [`Stamps`]).
    pub started: Instant,
    /// Request counts.
    pub counts: Counts,
    /// Latency of every verified response, ms, from the *scheduled*
    /// send time.
    pub samples: Vec<f64>,
    /// Mean of how late the sender ran, µs.
    pub late_mean_us: f64,
    /// Largest lateness, µs.
    pub late_max_us: f64,
    /// CPU the sender and receiver threads used, ns.
    pub gen_cpu_ns: u64,
    /// Per-request client timestamps, indexed by send order; filled in
    /// traced phases only (unanswered requests keep zeroes).
    pub stamps: Vec<Stamps>,
}

/// The seeded Poisson schedule of one open-loop phase: arrival times in
/// µs from the phase start, all before `len`.
pub fn schedule(rate: f64, seed: u64, len: Duration) -> Vec<u64> {
    let end = len.as_micros() as u64;
    PoissonArrivals::new(rate, seed)
        .take_while(|&t| t < end)
        .collect()
}

/// Open loop: one connection; a pacing sender thread writes request `n`
/// at `schedule[n]` regardless of responses while a receiver thread
/// reads, checks and times them. With `traced`, per-request
/// [`Stamps`] are kept as well.
pub fn open_loop(addr: SocketAddr, stream: &Stream, schedule: &[u64], traced: bool) -> OpenLoop {
    let n = schedule.len();
    let tx = TcpStream::connect(addr).expect("connect open-loop client");
    tx.set_nodelay(true).expect("set TCP_NODELAY");
    let rx = tx.try_clone().expect("clone socket for the receiver");
    rx.set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set read timeout");
    let pacer = Pacer::new();
    let t0 = Instant::now();
    let now_ns = move || t0.elapsed().as_nanos() as u64;

    std::thread::scope(|s| {
        // The pacing sender sleeps until each due time; with the default
        // 50 µs slack its wake-ups alone would be a fifth of
        // `chain_tiny`'s median latency. Server threads already run and keep
        // their slack.
        set_inherited_timer_slack(1);
        let sender = s.spawn(move || {
            let mut tx = tx;
            let mut buf = Vec::with_capacity(4096);
            let mut stamps = vec![Stamps::default(); if traced { n } else { 0 }];
            let (mut sent, mut late_sum, mut late_max) = (0u64, 0u64, 0u64);
            for (i, &at_us) in schedule.iter().enumerate() {
                let late = pacer.wait_until(at_us);
                late_sum += late;
                late_max = late_max.max(late);
                let encode_start = if traced { now_ns() } else { 0 };
                buf.clear();
                let req = &stream.requests[stream.index(0, i as u32)];
                wire::encode_submit(&mut buf, i as u32, req);
                let write_start = if traced { now_ns() } else { 0 };
                if tx.write_all(&buf).is_err() {
                    break;
                }
                sent += 1;
                if traced {
                    stamps[i] = Stamps {
                        encode_start,
                        write_start,
                        write_end: now_ns(),
                        ..Stamps::default()
                    };
                }
            }
            if sent < n as u64 {
                // Unblock the receiver: nothing more is coming.
                let _ = tx.shutdown(std::net::Shutdown::Both);
            }
            (sent, late_sum, late_max, stamps, host::thread_cpu_ns())
        });
        set_inherited_timer_slack(0);
        let receiver = s.spawn(move || {
            let mut rx = rx;
            let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
            let mut chunk = vec![0u8; 64 * 1024];
            let mut pos = 0usize;
            let mut counts = Counts::default();
            let mut samples = Vec::with_capacity(n);
            let mut recv_stamps =
                vec![(0u64, 0u64, None::<ServedTiming>); if traced { n } else { 0 }];
            let mut answered = 0usize;
            while answered < n {
                let decode_start = if traced { now_ns() } else { 0 };
                match wire::decode_frame(&buf[pos..]) {
                    Ok(Some((frame, used))) => {
                        pos += used;
                        answered += 1;
                        let recv_ns = now_ns();
                        let corr = frame.correlation as usize;
                        let wire::Message::Response(resp) = frame.message else {
                            break; // protocol violation: the rest stays failed
                        };
                        if corr >= n {
                            break;
                        }
                        match check(&resp, &stream.expected[stream.index(0, corr as u32)]) {
                            Verdict::Ok => {
                                counts.ok += 1;
                                let due_ns = schedule[corr] * 1000;
                                samples.push(recv_ns.saturating_sub(due_ns) as f64 / 1e6);
                            }
                            Verdict::Mismatch => counts.mismatched += 1,
                            Verdict::NotCompleted => {}
                        }
                        if traced {
                            let served = match resp {
                                NetResponse::Completed { timing, .. } => Some(timing),
                                _ => None,
                            };
                            recv_stamps[corr] = (decode_start, now_ns(), served);
                        }
                    }
                    Ok(None) => {
                        buf.drain(..pos);
                        pos = 0;
                        match rx.read(&mut chunk) {
                            Ok(0) | Err(_) => break, // closed or timed out
                            Ok(got) => buf.extend_from_slice(&chunk[..got]),
                        }
                    }
                    Err(_) => break,
                }
            }
            (counts, samples, recv_stamps, host::thread_cpu_ns())
        });
        let (sent, late_sum, late_max, mut stamps, tx_cpu) = sender.join().expect("sender thread");
        let (counts, samples, recv_stamps, rx_cpu) = receiver.join().expect("receiver thread");
        for (st, (decode_start, decode_end, served)) in stamps.iter_mut().zip(recv_stamps) {
            st.decode_start = decode_start;
            st.decode_end = decode_end;
            st.served = served;
        }
        OpenLoop {
            started: t0,
            counts: Counts { sent, ..counts },
            samples,
            late_mean_us: late_sum as f64 / sent.max(1) as f64,
            late_max_us: late_max as f64,
            gen_cpu_ns: tx_cpu + rx_cpu,
            stamps,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let len = Duration::from_secs(2);
        let a = schedule(500.0, 7, len);
        assert_eq!(a, schedule(500.0, 7, len));
        assert_ne!(a, schedule(500.0, 8, len));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(
            a.iter().all(|&t| t < 2_000_000),
            "arrivals stay inside the phase"
        );
        // About rate × length arrivals.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
    }
}
