//! The TCP front door: a single event loop over a [`Runtime`], hosting
//! the runtime's shard 0.
//!
//! One **event thread** owns the listener, every connection (both
//! halves), the runtime's completion queue — and shard 0 itself
//! ([`Runtime::start_hosted`]). Per pass it accepts
//! (with admission control — past
//! [`NetServerOptions::max_connections`] new sockets are closed
//! immediately), drains readable sockets into per-connection buffers,
//! decodes frames incrementally, submits **every request decoded in
//! the pass as one batch**
//! ([`Runtime::submit_batch_tagged`]), then runs **one pass of shard
//! 0** ([`HostedShard::pass`]: admit, expire, one dispatch of at most
//! `MaxTasksToSubmit` tasks, resolve). A request placed on shard 0 is
//! therefore read, executed and answered on this one thread, with no
//! wake-up in between; requests placed on shards ≥ 1 go to their
//! threads as before. Responses come back tagged on one
//! [`bm_core::CompletionQueue`] — there are no per-connection reaper
//! threads and no per-request channels — and are written back in
//! submission order per connection (clients match concurrent submits
//! by correlation id).
//!
//! The loop has one body. Each iteration starts with one wait on the
//! [`crate::readiness`] poller, which reports the ready listener and
//! connections: epoll on Linux x86_64 ([`readiness::SUPPORTED`]), a
//! polled scan elsewhere or where the kernel refuses the epoll set.
//! [`NetServer::readiness_backend`] says which. The wait does not block
//! while shard 0 has work, so arrivals join at the next scheduling
//! boundary, and otherwise ends no later than shard 0's nearest
//! deadline. Other threads end it early through the poller's waker:
//! shards ≥ 1 after queueing a completion, in-process submitters after
//! sending shard 0 a request; the loop never wakes itself (the scan
//! has no waker; its sleep is at most 2 ms). Every connection is
//! registered with the interest it has now — read unless paused, write
//! while bytes are queued — so write-blocked connections wait for
//! writability and backpressured ones are not read.
//!
//! **Shutdown** stops accepting, flushes every owed response, then
//! passes shard 0 until it is empty, so in-process requests submitted
//! before the stop complete as they do on a shard thread.
//!
//! **Overload** is the runtime's: a request every shard refuses at
//! [`bm_core::ServeConfig::max_active`] is answered
//! [`NetReject::AtCapacity`], and one that misses its deadline
//! [`NetResponse::Expired`]. The front door adds no refusal of its own.
//!
//! **Backpressure** is per-connection: a connection never has more than
//! [`NetServerOptions::max_inflight`] unresolved requests. Frames are
//! decoded only while the window has room; complete frames past it stay
//! in the connection's buffer, decoded as responses free slots, and
//! while the window is full the socket is not read, so the kernel
//! receive buffer fills and TCP flow control pushes back on the client.
//! A protocol error on a connection closes it (the stream can never
//! re-synchronise).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bm_core::{
    completion_queue, CompletionQueue, CompletionReceiver, HostedShard, IdMap, Request, Runtime,
    ServedOutcome, SubmitError, TaggedResult,
};
use bm_model::Model;
use bm_telemetry::Snapshot;

use crate::readiness::{self, Event, Interest, Poller, Waker, LISTENER};
use crate::wire::{self, Message, NetReject, NetResponse};

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Safety-net bound on a wait: every wake source (sockets, listener,
/// completion wakes, shutdown wake) is registered and the hosted
/// shard's deadlines shorten the wait, so this only bounds how stale a
/// missed edge could get.
const WAIT_CAP: Duration = Duration::from_millis(100);

/// How long shutdown keeps flushing pending responses to clients that
/// have stopped reading before giving up on them.
const SHUTDOWN_FLUSH: Duration = Duration::from_secs(5);

/// Front-door configuration on top of the runtime's own options.
#[derive(Clone)]
#[non_exhaustive]
pub struct NetServerOptions {
    /// Options for the backing [`Runtime`] (shard count, admission
    /// cap, deadlines — all via the embedded [`bm_core::ServeConfig`]).
    pub runtime: bm_core::RuntimeOptions,
    /// Admission control: connections accepted beyond this cap are
    /// closed immediately without reading a byte.
    pub max_connections: usize,
    /// Per-connection backpressure window: the most unresolved requests
    /// one connection may have. Frames past it wait, undecoded, and
    /// with the window full the connection's socket is not read.
    pub max_inflight: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        NetServerOptions {
            runtime: bm_core::RuntimeOptions::new(),
            max_connections: 1024,
            max_inflight: 1024,
        }
    }
}

impl NetServerOptions {
    /// Defaults: 1024 connections, 1024 in-flight per connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the runtime options.
    pub fn runtime(mut self, runtime: bm_core::RuntimeOptions) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the connection admission cap.
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }

    /// Sets the per-connection in-flight window.
    pub fn max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap;
        self
    }
}

/// Monotonic front-door counters, updated lock-free by the event
/// thread. Read a consistent-enough view with [`NetServer::stats`].
#[derive(Default)]
struct NetStats {
    accepted: AtomicU64,
    refused: AtomicU64,
    frames_in: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    expired: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    /// `read` calls on connection sockets, for tests that pin the
    /// syscalls a request costs.
    #[cfg(test)]
    socket_reads: AtomicU64,
    /// `write` calls on connection sockets.
    #[cfg(test)]
    socket_writes: AtomicU64,
    /// Readiness events that sent a connection to `read_conn`.
    #[cfg(test)]
    readable_events: AtomicU64,
}

impl NetStats {
    /// Counts one readable event handled (in tests only).
    #[inline]
    fn count_readable_event(&self) {
        #[cfg(test)]
        self.readable_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `read` on a connection socket (in tests only).
    #[inline]
    fn count_read(&self) {
        #[cfg(test)]
        self.socket_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `write` on a connection socket (in tests only).
    #[inline]
    fn count_write(&self) {
        #[cfg(test)]
        self.socket_writes.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStatsView {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused: at the admission cap, or because the socket
    /// could not be made non-blocking and no-delay or be registered
    /// with the readiness poller.
    pub refused: u64,
    /// Well-formed frames decoded.
    pub frames_in: u64,
    /// Requests admitted into the runtime.
    pub submitted: u64,
    /// Responses that completed.
    pub completed: u64,
    /// Responses that expired at their deadline.
    pub expired: u64,
    /// Submissions the runtime refused (invalid / at capacity /
    /// shutting down).
    pub rejected: u64,
    /// Connections closed for undecodable bytes.
    pub protocol_errors: u64,
}

/// One response slot in a connection's FIFO. `ready` is `None` while
/// the runtime still owns the request; responses are written strictly
/// in submission order, so a resolved entry behind an unresolved one
/// waits its turn.
struct PendingResp {
    corr: u32,
    seq: u32,
    ready: Option<NetResponse>,
}

/// Per-connection state, all owned by the event thread.
struct Conn {
    stream: TcpStream,
    fd: readiness::RawFd,
    /// Incoming bytes not yet decoded: a partial frame, or complete
    /// frames waiting for room in the in-flight window.
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Responses owed to this connection, in submission order.
    pending: VecDeque<PendingResp>,
    /// Next per-connection sequence number (the low half of the
    /// completion tag).
    next_seq: u32,
    /// Read side finished: peer EOF, read error, or protocol error.
    /// The connection stays alive until its owed responses flush.
    dead: bool,
    /// Write side failed: responses are discarded (the counts still
    /// tick) and the connection is retired immediately.
    write_broken: bool,
    /// The interest currently registered with the poller.
    cur_interest: Interest,
}

impl Conn {
    /// The completion tag for this connection's next request:
    /// connection id in the high 32 bits, per-connection sequence in
    /// the low 32.
    fn next_tag(&mut self, conn_id: u32) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        (seq, (u64::from(conn_id) << 32) | u64::from(seq))
    }
}

/// The serving front door. Binds, serves until [`NetServer::shutdown`],
/// and owns the backing [`Runtime`].
pub struct NetServer {
    local_addr: std::net::SocketAddr,
    runtime: Arc<Runtime>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    /// Wakes the event loop's wait for shutdown.
    waker: Waker,
    ingest: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts a runtime for `model` and binds the front door to `addr`
    /// (use port 0 for an ephemeral port, then
    /// [`local_addr`](Self::local_addr)).
    ///
    /// The event loop runs on epoll where the platform has it
    /// ([`readiness::SUPPORTED`]) and the epoll set assembles, and on
    /// the polled scan otherwise; [`NetServer::readiness_backend`]
    /// reports which.
    pub fn bind<A: ToSocketAddrs>(
        model: Arc<dyn Model>,
        opts: NetServerOptions,
        addr: A,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let poller = Poller::for_platform(&listener);
        NetServer::serve(model, opts, listener, poller)
    }

    /// Starts the runtime and the event loop on `poller`, handing the
    /// runtime's shard 0 to the loop to host.
    fn serve(
        model: Arc<dyn Model>,
        opts: NetServerOptions,
        listener: TcpListener,
        poller: Poller,
    ) -> std::io::Result<NetServer> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let waker = poller.waker();
        let stats = Arc::new(NetStats::default());
        let stop = Arc::new(AtomicBool::new(false));

        // Wakes the loop's wait from any other thread — a shard ≥ 1
        // queueing a completion, an in-process submission to shard 0 —
        // and does nothing on the loop itself, which is awake (the loop
        // records its thread before it reads a byte).
        let loop_thread = Arc::new(OnceLock::new());
        let wake: Arc<dyn Fn() + Send + Sync> = {
            let (loop_thread, waker) = (Arc::clone(&loop_thread), waker.clone());
            Arc::new(move || {
                if loop_thread.get() != Some(&thread::current().id()) {
                    waker.wake();
                }
            })
        };
        let (queue, completions) = completion_queue();
        let queue = queue.with_waker(Arc::clone(&wake));
        let (runtime, hosted) = Runtime::start_hosted(model, opts.runtime.clone(), wake);
        let runtime = Arc::new(runtime);

        let ingest = {
            let ctx = EventLoop {
                listener: Some(listener),
                poller,
                opts,
                runtime: Arc::clone(&runtime),
                hosted,
                stats: Arc::clone(&stats),
                stop: Arc::clone(&stop),
                queue,
                completions,
            };
            thread::Builder::new()
                .name("bm-net-events".into())
                .spawn(move || {
                    let _ = loop_thread.set(thread::current().id());
                    event_loop(ctx)
                })?
        };

        Ok(NetServer {
            local_addr,
            runtime,
            stats,
            stop,
            waker,
            ingest: Some(ingest),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The readiness backend the event loop runs on: `"epoll"` or
    /// `"polled"`.
    pub fn readiness_backend(&self) -> &'static str {
        self.waker.label()
    }

    /// The backing runtime (in-process submission, shard count, clock,
    /// telemetry snapshots).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// A point-in-time copy of the front-door counters.
    pub fn stats(&self) -> NetStatsView {
        let s = &self.stats;
        NetStatsView {
            accepted: s.accepted.load(Ordering::Relaxed),
            refused: s.refused.load(Ordering::Relaxed),
            frames_in: s.frames_in.load(Ordering::Relaxed),
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            expired: s.expired.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// The rolled-up per-shard telemetry snapshot (empty unless the
    /// serve config enabled telemetry).
    pub fn snapshot(&self) -> Snapshot {
        self.runtime.snapshot()
    }

    /// Stops accepting, drains every pending response to its client and
    /// every request shard 0 holds, then shuts the runtime down, joining
    /// all threads. Dropping the server does the same; this names it.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    /// Stops the event loop and joins it. The runtime goes when the
    /// server's handle on it drops, after this: the loop's was the
    /// only other one.
    fn drop(&mut self) {
        let Some(h) = self.ingest.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = h.join();
    }
}

/// Everything the event thread owns.
struct EventLoop {
    listener: Option<TcpListener>,
    poller: Poller,
    opts: NetServerOptions,
    runtime: Arc<Runtime>,
    /// Shard 0, whose passes run on this thread.
    hosted: HostedShard,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    queue: CompletionQueue,
    completions: CompletionReceiver,
}

fn event_loop(ctx: EventLoop) {
    let EventLoop {
        mut listener,
        mut poller,
        opts,
        runtime,
        mut hosted,
        stats,
        stop,
        queue,
        completions,
    } = ctx;
    let mut conns: IdMap<u32, Conn> = IdMap::default();
    let mut next_conn_id: u32 = 0;
    let mut chunk = vec![0u8; READ_CHUNK];
    // What the last wait reported ready, reused across iterations.
    let mut ready: Vec<Event> = Vec::new();
    // Requests decoded this pass, submitted as one batch below.
    let mut batch: Vec<(u64, Request)> = Vec::new();
    // Tagged submissions the runtime has accepted but not yet
    // resolved; shutdown drains to zero before exiting.
    let mut outstanding: usize = 0;
    let mut stop_deadline: Option<Instant> = None;
    // Whether shard 0's last pass did work and left nodes ready: then
    // the loop must not block, so what arrives meanwhile joins at the
    // next scheduling boundary. A pass that left nothing ready has no
    // boundary to join: what it could do next a socket, the waker or
    // the deadline bounding the wait announces.
    let mut shard_busy = false;
    // Whether the iteration did any work; the next wait reads it (the
    // scan sleeps only after an idle iteration).
    let mut progressed = true;

    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if stopping {
            // Stop accepting: close the listener and start the flush
            // deadline.
            if let Some(l) = listener.take() {
                poller.deregister(readiness::raw_fd_of_listener(&l), LISTENER);
                stop_deadline = Some(Instant::now() + SHUTDOWN_FLUSH);
            }
        }

        // ── Input phase: learn what is ready; read and decode it. ──
        // Frames the last flush decoded from a reopened window are
        // submitted this iteration, so the wait must not block either.
        let timeout = if shard_busy || !batch.is_empty() {
            Duration::ZERO
        } else {
            wait_timeout(hosted.next_deadline(), stopping)
        };
        // Whether the loop blocked since shard 0's last pass: the next
        // pass is a wake-up.
        let parked = poller.wait(&mut ready, timeout, progressed);
        progressed = false;
        for ev in &ready {
            if ev.token == LISTENER {
                if let Some(l) = &listener {
                    progressed |=
                        accept_all(l, &mut poller, &mut conns, &mut next_conn_id, &opts, &stats);
                }
                continue;
            }
            let id = ev.token as u32;
            let Some(c) = conns.get_mut(&id) else {
                continue;
            };
            if ev.readable && !c.dead && !stopping {
                stats.count_readable_event();
                progressed |= read_conn(id, c, &mut chunk, &mut batch, &stats, opts.max_inflight);
            } else if ev.error {
                // Error/hangup with nothing readable: the peer is gone.
                c.dead = true;
            }
            if ev.writable && !c.wbuf.is_empty() {
                progressed |= flush_wbuf(c, &stats);
            }
        }

        // ── Submit phase: the whole pass's decode in one batch. ──
        if !batch.is_empty() {
            progressed = true;
            let decoded = batch.len();
            let refused = runtime.submit_batch_tagged(batch.drain(..), &queue);
            let admitted = decoded - refused.len();
            outstanding += admitted;
            stats
                .submitted
                .fetch_add(admitted as u64, Ordering::Relaxed);
            for (tag, e) in refused {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
                mark_ready(&mut conns, tag, submit_error_response(e));
            }
        }

        // ── Shard 0's pass: admit what was just submitted (and what
        // other threads sent), expire, one dispatch, resolve. ──
        let worked = hosted.pass(parked);
        progressed |= worked;
        shard_busy = worked && hosted.has_ready_work();

        // ── Completion pump: everything the runtime resolved. ──
        while let Some((tag, outcome)) = completions.try_recv() {
            progressed = true;
            outstanding = outstanding.saturating_sub(1);
            let resp = outcome_response(outcome);
            match &resp {
                NetResponse::Completed { .. } => stats.completed.fetch_add(1, Ordering::Relaxed),
                NetResponse::Expired { .. } => stats.expired.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
            mark_ready(&mut conns, tag, resp);
        }

        // ── Flush phase: release resolved FIFO heads, write; decode
        // frames already buffered into the room that frees, since no
        // readiness event will announce bytes already read. ──
        for (id, c) in conns.iter_mut() {
            while let Some(front) = c.pending.front_mut() {
                let Some(resp) = front.ready.take() else {
                    break;
                };
                if !c.write_broken {
                    wire::encode_response(&mut c.wbuf, front.corr, &resp);
                }
                c.pending.pop_front();
                progressed = true;
            }
            if !stopping && !c.rbuf.is_empty() && c.pending.len() < opts.max_inflight {
                drain_frames(*id, c, &mut batch, &stats, opts.max_inflight);
            }
            if !c.wbuf.is_empty() && !c.write_broken {
                progressed |= flush_wbuf(c, &stats);
            }
        }

        // ── Retire finished connections. ──
        conns.retain(|id, c| {
            let finished = c.write_broken || (c.dead && c.pending.is_empty() && c.wbuf.is_empty());
            if finished {
                poller.deregister(c.fd, u64::from(*id));
            }
            !finished
        });

        // ── Interest maintenance: read unless paused (backpressure:
        // with the window full the socket is not read, so TCP flow
        // control reaches the client), write while bytes are queued. ──
        for (id, c) in conns.iter_mut() {
            let read_on = !c.dead && !stopping && c.pending.len() < opts.max_inflight;
            let write_on = !c.wbuf.is_empty() && !c.write_broken;
            let want = Interest::new(read_on, write_on);
            if want != c.cur_interest && poller.reregister(c.fd, u64::from(*id), want).is_ok() {
                c.cur_interest = want;
            }
        }

        // The flag is read afresh: a stop whose wake this iteration's
        // wait already consumed must not cost the next one a timed wait
        // when there is nothing left to drain.
        if stop.load(Ordering::Relaxed) {
            let drained = outstanding == 0
                && conns
                    .values()
                    .all(|c| c.pending.is_empty() && (c.wbuf.is_empty() || c.write_broken));
            if drained || stop_deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }
    }

    // Requests submitted in-process before the stop may still be in
    // shard 0: finish them, as a shard thread does before it exits.
    while hosted.pass(false) {}
}

/// How long the wait may block while shard 0 has nothing to run: until
/// its nearest deadline, at most the safety-net cap, and 1 ms while
/// stopping.
fn wait_timeout(deadline: Option<Duration>, stopping: bool) -> Duration {
    let cap = if stopping {
        Duration::from_millis(1)
    } else {
        WAIT_CAP
    };
    deadline.map_or(cap, |d| d.min(cap))
}

/// Accepts until the listener would block, applying the admission cap
/// and registering each new socket with the poller.
fn accept_all(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut IdMap<u32, Conn>,
    next_conn_id: &mut u32,
    opts: &NetServerOptions,
    stats: &NetStats,
) -> bool {
    let mut progressed = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                progressed = true;
                if conns.len() >= opts.max_connections {
                    stats.refused.fetch_add(1, Ordering::Relaxed);
                    drop(stream); // refuse by closing
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    stats.refused.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let id = *next_conn_id;
                *next_conn_id = next_conn_id.wrapping_add(1);
                let fd = readiness::raw_fd_of(&stream);
                if poller.register(fd, u64::from(id), Interest::READ).is_err() {
                    stats.refused.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                conns.insert(
                    id,
                    Conn {
                        stream,
                        fd,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        next_seq: 0,
                        dead: false,
                        write_broken: false,
                        cur_interest: Interest::READ,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    progressed
}

/// Reads what a readable connection has, decoding frames as they
/// complete and the window allows. Reads stop at the first read shorter
/// than the chunk: the socket's receive queue is then empty, and the
/// read that would only confirm it (`WouldBlock`) is left out. Bytes
/// arriving after it leave the socket readable, and the next wait
/// reports it again (epoll is level-triggered, the scan reports every
/// readable-registered socket). Reads also stop when the peer closed,
/// the read failed or the backpressure window filled.
fn read_conn(
    conn_id: u32,
    c: &mut Conn,
    chunk: &mut [u8],
    batch: &mut Vec<(u64, Request)>,
    stats: &NetStats,
    max_inflight: usize,
) -> bool {
    let mut progressed = false;
    loop {
        stats.count_read();
        match c.stream.read(chunk) {
            Ok(0) => {
                c.dead = true; // peer closed
                break;
            }
            Ok(n) => {
                progressed = true;
                c.rbuf.extend_from_slice(&chunk[..n]);
                drain_frames(conn_id, c, batch, stats, max_inflight);
                if n < chunk.len() || c.dead || c.pending.len() >= max_inflight {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    progressed
}

/// Decodes complete frames from `conn.rbuf` while the connection has
/// fewer than `max_inflight` unresolved requests: each submit joins the
/// pass's batch, tagged, with its response slot queued. The decoded
/// bytes leave the buffer in one move; frames past the window stay.
fn drain_frames(
    conn_id: u32,
    c: &mut Conn,
    batch: &mut Vec<(u64, Request)>,
    stats: &NetStats,
    max_inflight: usize,
) {
    let mut at = 0;
    while c.pending.len() < max_inflight {
        match wire::decode_frame(&c.rbuf[at..]) {
            Ok(None) => break,
            Ok(Some((frame, consumed))) => {
                at += consumed;
                stats.frames_in.fetch_add(1, Ordering::Relaxed);
                let req = match frame.message {
                    Message::Submit(req) => req,
                    // A server never receives responses; the stream is
                    // out of protocol.
                    Message::Response(_) => {
                        protocol_error(c, stats);
                        return;
                    }
                };
                let (seq, tag) = c.next_tag(conn_id);
                c.pending.push_back(PendingResp {
                    corr: frame.correlation,
                    seq,
                    ready: None,
                });
                batch.push((tag, req));
            }
            Err(_) => {
                // Framing is unrecoverable; close the connection.
                protocol_error(c, stats);
                return;
            }
        }
    }
    c.rbuf.drain(..at);
}

/// Closes a connection's read side for bytes out of protocol; nothing
/// it sent is decoded after them.
fn protocol_error(c: &mut Conn, stats: &NetStats) {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    c.dead = true;
    c.rbuf.clear();
}

/// Routes a resolved response to its FIFO slot. A missing connection
/// (retired after a write failure or mid-stream disconnect) just drops
/// the response — the runtime already did the work and the counters
/// already ticked.
fn mark_ready(conns: &mut IdMap<u32, Conn>, tag: u64, resp: NetResponse) {
    let conn_id = (tag >> 32) as u32;
    let seq = tag as u32;
    let Some(c) = conns.get_mut(&conn_id) else {
        return;
    };
    let Some(front) = c.pending.front() else {
        return;
    };
    // Sequences are assigned contiguously and only released from the
    // front, so the slot's index is its distance from the head.
    let idx = seq.wrapping_sub(front.seq) as usize;
    if let Some(entry) = c.pending.get_mut(idx) {
        if entry.seq == seq {
            entry.ready = Some(resp);
        }
    }
}

/// Writes as much queued output as the socket accepts right now.
/// `WouldBlock` leaves the remainder queued under write interest (the
/// scan retries it after its idle backoff). A hard error marks the
/// write side broken.
fn flush_wbuf(c: &mut Conn, stats: &NetStats) -> bool {
    let mut written = 0usize;
    while written < c.wbuf.len() {
        stats.count_write();
        match c.stream.write(&c.wbuf[written..]) {
            Ok(0) => {
                c.write_broken = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.write_broken = true;
                break;
            }
        }
    }
    if written > 0 {
        c.wbuf.drain(..written);
    }
    if c.write_broken {
        c.wbuf.clear();
    }
    written > 0
}

/// Maps a runtime refusal onto the wire.
fn submit_error_response(e: SubmitError) -> NetResponse {
    match e {
        SubmitError::Invalid(msg) => NetResponse::Rejected(NetReject::Invalid(msg)),
        SubmitError::AtCapacity => NetResponse::Rejected(NetReject::AtCapacity),
        SubmitError::ShuttingDown => NetResponse::ShutDown,
    }
}

/// Maps a resolved outcome onto the wire.
fn outcome_response(outcome: ServedOutcome<TaggedResult>) -> NetResponse {
    match outcome {
        ServedOutcome::Completed(res) => NetResponse::Completed {
            timing: res.timing,
            executed: res.executed as u32,
            tokens: res.tokens,
        },
        ServedOutcome::Expired(timing) => NetResponse::Expired { timing },
        _ => NetResponse::ShutDown,
    }
}

#[cfg(test)]
mod tests {
    //! Polled-vs-epoll readiness identity.
    //!
    //! The platform picks the poller, so only code inside the crate can
    //! put a server on the polled scan where epoll exists. These tests
    //! drive the same deterministic workload through the one loop body
    //! on each — including under idle-connection load and mid-stream
    //! disconnects — and assert the response streams are
    //! **byte-identical** once run-dependent timing is zeroed
    //! (wall-clock timing is the one field that legitimately differs
    //! between two runs of anything).

    use super::*;
    use crate::{encode_response, NetClient};
    use bm_core::{RuntimeOptions, ServeConfig};
    use bm_model::{LstmLm, LstmLmConfig, RequestInput, Seq2Seq};

    fn model() -> Arc<dyn Model> {
        Arc::new(LstmLm::new(LstmLmConfig::default()))
    }

    /// A two-shard server on the platform's backend, or forced onto the
    /// polled scan.
    fn bind(polled: bool) -> NetServer {
        let opts = NetServerOptions::new()
            .runtime(RuntimeOptions::new().serve_config(ServeConfig::new().shards(2)));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = if polled {
            Poller::scan()
        } else {
            Poller::for_platform(&listener)
        };
        NetServer::serve(model(), opts, listener, poller).expect("serve")
    }

    /// Re-encodes a response with its (run-dependent) timing zeroed so
    /// two runs can be byte-compared: everything else — status tags,
    /// executed counts, every decoded token — must match exactly.
    fn canonical_bytes(corr: u32, resp: &NetResponse) -> Vec<u8> {
        let mut resp = resp.clone();
        match &mut resp {
            NetResponse::Completed { timing, .. } | NetResponse::Expired { timing } => {
                timing.arrival_us = 0;
                timing.start_us = 0;
                timing.completion_us = 0;
            }
            _ => {}
        }
        let mut buf = Vec::new();
        encode_response(&mut buf, corr, &resp);
        buf
    }

    /// The deterministic request mix both backends serve.
    fn request(i: usize) -> Request {
        let len = 2 + (i % 7);
        Request::new(RequestInput::Sequence(vec![1 + (i as u32 % 50); len]))
    }

    /// Runs one server under the shared workload and returns the
    /// canonical response bytes in submission order. `idle_conns`
    /// sockets connect and stay silent for the whole run; with
    /// `disconnect_midstream`, an extra client submits requests and
    /// vanishes without reading any responses.
    fn run_workload(polled: bool, idle_conns: usize, disconnect_midstream: bool) -> Vec<Vec<u8>> {
        let server = bind(polled);
        if polled {
            assert_eq!(server.readiness_backend(), "polled");
        }
        let addr = server.local_addr();

        let _idle: Vec<TcpStream> = (0..idle_conns)
            .map(|_| TcpStream::connect(addr).expect("idle connect"))
            .collect();

        if disconnect_midstream {
            let mut ghost = NetClient::connect(addr).expect("ghost connect");
            for i in 0..8 {
                ghost.send(&request(i)).expect("ghost send");
            }
            drop(ghost); // mid-stream disconnect with responses in flight
        }

        let mut client = NetClient::connect(addr).expect("connect");
        let n = 48;
        let corrs: Vec<u32> = (0..n)
            .map(|i| client.send(&request(i)).expect("send"))
            .collect();
        let mut by_corr: Vec<Option<Vec<u8>>> = vec![None; n];
        for _ in 0..n {
            let (corr, resp) = client.recv().expect("recv");
            let idx = corrs.iter().position(|&c| c == corr).expect("known corr");
            assert!(by_corr[idx].is_none(), "duplicate response for {corr}");
            assert!(
                matches!(resp, NetResponse::Completed { .. }),
                "expected completion, got {resp:?}"
            );
            by_corr[idx] = Some(canonical_bytes(corr, &resp));
        }

        let stats = server.stats();
        assert_eq!(stats.protocol_errors, 0);
        assert!(stats.completed >= n as u64);
        server.shutdown();
        by_corr
            .into_iter()
            .map(|b| b.expect("all answered"))
            .collect()
    }

    #[test]
    fn backends_byte_identical_on_clean_workload() {
        let polled = run_workload(true, 0, false);
        if !readiness::SUPPORTED {
            return; // no epoll to compare against on this platform
        }
        let epoll = run_workload(false, 0, false);
        assert_eq!(polled, epoll, "backends diverged on a clean workload");
    }

    #[test]
    fn backends_byte_identical_under_idle_load_and_disconnects() {
        let polled = run_workload(true, 64, true);
        if !readiness::SUPPORTED {
            return;
        }
        let epoll = run_workload(false, 64, true);
        assert_eq!(
            polled, epoll,
            "backends diverged under idle connections + mid-stream disconnect"
        );
    }

    /// Serves `n` requests pipelined on one connection by a server with
    /// `shards` shards, and returns the eventfd wakes the event loop was
    /// sent meanwhile, the eventfd reads it made, and the names of the
    /// process's threads while it served.
    fn serve_pipelined(
        model: Arc<dyn Model>,
        shards: usize,
        n: usize,
        request: impl Fn(usize) -> Request,
    ) -> (u64, u64, Vec<String>) {
        let opts = NetServerOptions::new()
            .runtime(RuntimeOptions::new().serve_config(ServeConfig::new().shards(shards)));
        let server = NetServer::bind(model, opts, "127.0.0.1:0").expect("bind");
        assert_eq!(server.readiness_backend(), "epoll");
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        for i in 0..n {
            client.send(&request(i)).expect("send");
        }
        for _ in 0..n {
            let (_, resp) = client.recv().expect("recv");
            assert!(matches!(resp, NetResponse::Completed { .. }), "{resp:?}");
        }
        let (wakes, reads) = server.waker.counts();
        let threads = std::fs::read_dir("/proc/self/task")
            .expect("list threads")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect();
        server.shutdown();
        (wakes, reads, threads)
    }

    /// Shard 0 runs on the event loop: a one-shard server answers
    /// socket requests with no thread of its own for the shard, without
    /// a single completion wake, and so without reading the eventfd.
    #[test]
    fn shard_zero_answers_socket_requests_without_waking_the_loop() {
        if !readiness::SUPPORTED {
            return;
        }
        let (wakes, reads, threads) = serve_pipelined(model(), 1, 48, request);
        assert_eq!(wakes, 0, "completion wakes from the hosted shard");
        assert_eq!(reads, 0, "eventfd reads with no wake to consume");
        assert!(
            !threads.iter().any(|t| t == "bm-shard-0"),
            "shard 0 got a thread: {threads:?}"
        );
    }

    /// Completions resolved on another shard's thread still wake the
    /// loop: seq2seq pairs are placed on shard 1 of 2. The loop reads
    /// the eventfd only when a wait reports it, which needs a wake since
    /// the last read.
    #[test]
    fn completions_from_shard_one_wake_the_loop() {
        if !readiness::SUPPORTED {
            return;
        }
        let pair = |i: usize| {
            Request::new(RequestInput::Pair {
                src: vec![1 + i as u32 % 50; 3],
                decode_len: 2,
            })
        };
        let (wakes, reads, _) = serve_pipelined(Arc::new(Seq2Seq::small()), 2, 16, pair);
        assert!(wakes > 0, "shard 1's completions never woke the loop");
        assert!(reads <= wakes, "{reads} eventfd reads for {wakes} wakes");
    }

    /// A request sent only after the previous response arrived costs
    /// the loop one socket `read` — its readable event's bytes, in one
    /// read shorter than the chunk, with no second read to see
    /// `WouldBlock` — and one `write`, its response. Every read follows
    /// an `epoll_wait` that reported the socket.
    #[test]
    fn a_spaced_request_costs_one_read_and_one_write() {
        if !readiness::SUPPORTED {
            return;
        }
        let opts = NetServerOptions::new()
            .runtime(RuntimeOptions::new().serve_config(ServeConfig::new().shards(1)));
        let server = NetServer::bind(model(), opts, "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        let n = 32;
        for i in 0..n {
            client.send(&request(i)).expect("send");
            let (_, resp) = client.recv().expect("recv");
            assert!(matches!(resp, NetResponse::Completed { .. }), "{resp:?}");
        }
        // Every response is in, so the loop has made every syscall the
        // requests cost; the client has not closed, so no EOF read.
        let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
        let (events, reads, writes) = (
            load(&server.stats.readable_events),
            load(&server.stats.socket_reads),
            load(&server.stats.socket_writes),
        );
        let waits = server.waker.waits();
        server.shutdown();
        assert_eq!(events, n as u64, "readable events for {n} spaced requests");
        assert_eq!(reads, events, "reads per readable event");
        assert_eq!(writes, n as u64, "writes for {n} responses");
        assert!(waits >= reads, "{reads} reads after {waits} waits");
    }

    /// `epoll_wait` blocks until shard 0's nearest deadline, rounded up
    /// to a millisecond and capped by the safety net (1 ms once
    /// stopping).
    #[test]
    fn the_wait_follows_the_nearest_deadline() {
        let ms = Duration::from_millis;
        let wait_ms = |d, stopping| readiness::timeout_ms(wait_timeout(d, stopping));
        let cap = readiness::timeout_ms(WAIT_CAP);
        assert_eq!(cap, 100);
        assert_eq!(wait_ms(None, false), cap);
        assert_eq!(wait_ms(Some(Duration::ZERO), false), 0);
        assert_eq!(wait_ms(Some(Duration::from_micros(1_500)), false), 2);
        assert_eq!(wait_ms(Some(ms(7)), false), 7);
        assert_eq!(wait_ms(Some(ms(10_000)), false), cap);
        assert_eq!(wait_ms(Some(Duration::MAX), false), cap);
        assert_eq!(wait_ms(None, true), 1);
        assert_eq!(wait_ms(Some(Duration::ZERO), true), 0);
    }
}
