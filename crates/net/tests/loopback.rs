//! End-to-end over a real socket: bind the front door on loopback,
//! drive it with [`NetClient`], and check completions, bit-identity
//! with the in-process runtime, admission control, and protocol-error
//! handling.

use std::sync::Arc;

use bm_core::{Request, RuntimeOptions, ServeConfig, ServedOutcome};
use bm_model::{LstmLm, LstmLmConfig, Model, RequestInput, TreeShape};
use bm_net::{NetClient, NetError, NetReject, NetResponse, NetServer, NetServerOptions};
use bm_telemetry::MetricValue;

fn model() -> Arc<dyn Model> {
    Arc::new(LstmLm::new(LstmLmConfig::default()))
}

fn opts(shards: usize) -> NetServerOptions {
    NetServerOptions::new()
        .runtime(RuntimeOptions::new().serve_config(ServeConfig::new().shards(shards)))
}

#[test]
fn pipelined_submits_all_complete() {
    let serve = ServeConfig::new()
        .shards(2)
        .telemetry(bm_telemetry::Telemetry::new());
    let options = NetServerOptions::new().runtime(RuntimeOptions::new().serve_config(serve));
    let server = NetServer::bind(model(), options, "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let n = 64;
    let mut corrs = Vec::new();
    for i in 0..n {
        let len = 3 + (i % 7);
        let req = Request::new(RequestInput::Sequence(vec![1 + (i as u32 % 50); len]));
        corrs.push(client.send(&req).expect("send"));
    }
    let mut done = vec![false; n];
    for _ in 0..n {
        let (corr, resp) = client.recv().expect("recv");
        let idx = corrs.iter().position(|&c| c == corr).expect("known corr");
        assert!(!done[idx], "duplicate response for {corr}");
        done[idx] = true;
        match resp {
            NetResponse::Completed {
                timing, executed, ..
            } => {
                assert!(executed > 0);
                assert!(timing.arrival_us <= timing.start_us);
                assert!(timing.start_us <= timing.completion_us);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
    assert!(done.iter().all(|&d| d));

    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.frames_in, n as u64);
    assert_eq!(stats.submitted, n as u64);
    assert_eq!(stats.completed, n as u64);
    assert_eq!(stats.protocol_errors, 0);

    // The server's snapshot is the per-shard rollup: one completion
    // counter per shard, and together they account for every request.
    let snapshot = server.snapshot();
    let completed = "bm_requests_completed_total";
    let mut shards: Vec<_> = snapshot
        .entries
        .iter()
        .filter(|e| e.name == completed)
        .map(|e| e.labels.as_slice())
        .collect();
    shards.sort();
    let shard = |i: &str| vec![("shard".to_string(), i.to_string())];
    assert_eq!(shards, [shard("0"), shard("1")], "one entry per shard");
    assert_eq!(snapshot.counter_sum(completed), n as u64);

    // Shard 0 runs on the event loop: a blocking wait of the loop that
    // brought it arrivals is its wake-up, so both wake-up metrics exist
    // there, with one drain sample per wake-up. Waits that brought shard
    // 0 nothing (the safety-net timeout, shard 1's completions) are not
    // counted, so the pair is at rest once every response is in — and
    // stays there across two safety-net timeouts of the idle loop.
    let wakeups_and_drains = || {
        let snapshot = server.snapshot();
        let on_shard0 = |name| snapshot.get_with(name, &[("shard", "0")]).cloned();
        match (
            on_shard0("bm_manager_wakeups_total"),
            on_shard0("bm_manager_drained_per_wakeup"),
        ) {
            (Some(MetricValue::Counter(w)), Some(MetricValue::Histogram(d))) => (w, d.count),
            other => panic!("wake-up metrics missing on shard 0: {other:?}"),
        }
    };
    let (wakeups, drains) = wakeups_and_drains();
    assert!(wakeups >= 1, "shard 0 never woke");
    assert_eq!(drains, wakeups, "one drain sample per wake-up");
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert_eq!(
        wakeups_and_drains(),
        (wakeups, drains),
        "idle loop waits counted"
    );
    server.shutdown();
}

/// Stopping a server — by `shutdown()` or by plain drop — closes its
/// listener and resolves every request submitted in-process before the
/// stop as completed, whether shard 0 (hosted by the event loop) or a
/// shard thread holds it.
#[test]
fn stopping_the_server_closes_it_and_completes_in_process_requests() {
    for (shards, explicit) in [(1, true), (1, false), (2, true), (2, false)] {
        let server = NetServer::bind(model(), opts(shards), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let handles: Vec<_> = (0..12u32)
            .map(|i| {
                let req = Request::new(RequestInput::Sequence(vec![1 + i; 20]));
                server.runtime().submit_request(req).expect("submit")
            })
            .collect();
        if explicit {
            server.shutdown();
        } else {
            drop(server);
        }
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "{shards} shard(s), explicit shutdown {explicit}: still listening"
        );
        for h in handles {
            let outcome = h.wait();
            assert!(outcome.is_completed(), "{outcome:?}");
        }
    }
}

/// A one-request cap on the hosted shard neither loses a request nor
/// stalls shutdown: the runtime never sends its shutdown message into
/// the inbox of the shard the event loop hosts.
#[test]
fn a_one_slot_inbox_does_not_stall_shutdown() {
    let serve = ServeConfig::new().shards(1).max_active(1);
    let options = NetServerOptions::new().runtime(RuntimeOptions::new().serve_config(serve));
    let server = NetServer::bind(model(), options, "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let req = Request::new(RequestInput::Sequence(vec![7, 8, 9]));
    assert!(matches!(
        client.call(&req).expect("call"),
        NetResponse::Completed { .. }
    ));
    let handle = server.runtime().submit_request(req);
    server.shutdown();
    match handle {
        Ok(h) => assert!(h.wait().is_completed()),
        Err(e) => assert_eq!(e, bm_core::SubmitError::AtCapacity),
    }
}

/// A request whose deadline passes while it runs is answered `Expired`
/// with no further bytes from its client: shard 0's passes on the event
/// loop keep running, and expiring, without socket traffic to wake them.
#[test]
fn a_deadline_expires_without_socket_traffic() {
    let server = NetServer::bind(model(), opts(1), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let long = Request::new(RequestInput::Sequence(vec![3; 20_000])).deadline_us(1_000);
    match client.call(&long).expect("call") {
        NetResponse::Expired { timing } => assert!(timing.completion_us >= timing.arrival_us),
        other => panic!("expected expiry, got {other:?}"),
    }
    assert_eq!(server.stats().expired, 1);
    server.shutdown();
}

#[test]
fn socket_results_match_in_process_runtime() {
    // The same request served over the socket and in-process must
    // produce identical decoded tokens — the wire adds transport, not
    // semantics.
    let inputs = [
        RequestInput::Sequence(vec![5, 6, 7, 8]),
        RequestInput::Pair {
            src: vec![9, 10, 11],
            decode_len: 4,
        },
        RequestInput::Tree(TreeShape::internal(
            TreeShape::internal(TreeShape::leaf(3), TreeShape::leaf(4)),
            TreeShape::leaf(5),
        )),
    ];
    // LstmLm only accepts sequences; use it for the sequence case and
    // skip inputs the model rejects identically on both paths.
    let server = NetServer::bind(model(), opts(2), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let local = bm_core::Runtime::start(model(), RuntimeOptions::new());

    for input in &inputs {
        let over_socket = client.call(&Request::from(input)).expect("call");
        let in_process = local.submit_request(Request::from(input));
        match (over_socket, in_process) {
            (NetResponse::Completed { tokens, .. }, Ok(handle)) => {
                let ServedOutcome::Completed(res) = handle.wait() else {
                    panic!("local runtime did not complete");
                };
                let local_tokens: Vec<Option<u32>> = res
                    .result
                    .outputs
                    .iter()
                    .map(|o| o.as_ref().and_then(|c| c.token))
                    .collect();
                assert_eq!(tokens, local_tokens, "socket vs in-process divergence");
            }
            (NetResponse::Rejected(NetReject::Invalid(_)), Err(e)) => {
                assert!(matches!(e, bm_core::SubmitError::Invalid(_)));
            }
            (sock, local) => panic!("paths diverged: socket={sock:?} local={local:?}"),
        }
    }
    local.shutdown();
    server.shutdown();
}

#[test]
fn junk_bytes_close_the_connection_but_not_the_server() {
    use std::io::{Read, Write};
    let server = NetServer::bind(model(), opts(1), "127.0.0.1:0").expect("bind");

    // A connection spewing garbage gets closed...
    let mut bad = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    bad.write_all(&[0xFF; 64]).expect("write junk");
    let mut sink = [0u8; 16];
    // The read returns 0 (server closed) rather than hanging.
    bad.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let got = bad.read(&mut sink).unwrap_or(0);
    assert_eq!(got, 0, "server should close a junk connection");

    // ...while a well-behaved connection still gets service.
    let mut good = NetClient::connect(server.local_addr()).expect("connect");
    let resp = good
        .call(&Request::new(RequestInput::Sequence(vec![1, 2, 3])))
        .expect("call");
    assert!(matches!(resp, NetResponse::Completed { .. }));
    assert!(server.stats().protocol_errors >= 1);
    server.shutdown();
}

#[test]
fn admission_cap_refuses_excess_connections() {
    let server = NetServer::bind(model(), opts(1).max_connections(1), "127.0.0.1:0").expect("bind");
    let mut first = NetClient::connect(server.local_addr()).expect("connect");
    // Prove the first connection is established server-side.
    let resp = first
        .call(&Request::new(RequestInput::Sequence(vec![1])))
        .expect("call");
    assert!(matches!(resp, NetResponse::Completed { .. }));

    // The second connect succeeds at TCP level (kernel backlog) but the
    // server closes it at accept: the first interaction fails.
    let mut second = NetClient::connect(server.local_addr()).expect("tcp connect");
    let err = second.call(&Request::new(RequestInput::Sequence(vec![1])));
    match err {
        Err(NetError::Closed) | Err(NetError::Io(_)) => {}
        other => panic!("expected refusal, got {other:?}"),
    }
    assert!(server.stats().refused >= 1);
    server.shutdown();
}

/// One write of 2 000 submits — every frame read off the socket at once
/// — never puts more than `max_inflight` of them in flight, and the
/// frames past the window, already in the server's buffer, are decoded
/// as responses free room: no readiness event announces them, yet all
/// 2 000 are answered.
#[test]
fn one_write_of_many_frames_stays_inside_the_inflight_window() {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const N: usize = 2_000;
    const WINDOW: usize = 4;
    let server =
        NetServer::bind(model(), opts(1).max_inflight(WINDOW), "127.0.0.1:0").expect("bind");
    let mut bytes = Vec::new();
    for i in 0..N {
        let req = Request::new(RequestInput::Sequence(vec![1 + (i % 50) as u32; 3]));
        bm_net::encode_submit(&mut bytes, i as u32, &req);
    }
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("timeout");

    let (done, most) = (AtomicBool::new(false), AtomicUsize::new(0));
    let answered = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                most.fetch_max(server.runtime().active_requests(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        stream.write_all(&bytes).expect("one write of every frame");
        let (mut rbuf, mut chunk) = (Vec::new(), [0u8; 16 * 1024]);
        let mut answered = vec![false; N];
        let mut count = 0;
        while count < N {
            let Some((frame, used)) = bm_net::decode_frame(&rbuf).expect("well-formed") else {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break, // closed, or stalled past the timeout
                    Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                }
                continue;
            };
            rbuf.drain(..used);
            let bm_net::Message::Response(resp) = frame.message else {
                panic!("the server sent a submit");
            };
            assert!(matches!(resp, NetResponse::Completed { .. }), "{resp:?}");
            let seen = &mut answered[frame.correlation as usize];
            assert!(!std::mem::replace(seen, true), "answered twice");
            count += 1;
        }
        done.store(true, Ordering::SeqCst);
        count
    });
    let most = most.load(Ordering::SeqCst);
    assert!(
        most <= WINDOW,
        "{most} requests in flight past a window of {WINDOW}"
    );
    assert_eq!(
        answered, N,
        "the server stalled on frames it had already read"
    );
    assert_eq!(server.stats().frames_in, N as u64);
    server.shutdown();
}
