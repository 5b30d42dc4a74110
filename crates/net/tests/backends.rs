//! Polled-vs-epoll readiness backend identity.
//!
//! The polled scan is the portable oracle; the raw-syscall epoll
//! backend must be a pure transport optimization. These tests drive
//! the same deterministic workload through servers on each backend —
//! including under idle-connection load and mid-stream disconnects —
//! and assert the response streams are **byte-identical** once
//! run-dependent timing is zeroed (wall-clock timing is the one field
//! that legitimately differs between two runs of anything).

use std::net::TcpStream;
use std::sync::Arc;

use bm_core::{ReadinessMode, Request, RuntimeOptions, ServeConfig};
use bm_model::{LstmLm, LstmLmConfig, Model, RequestInput};
use bm_net::readiness::SUPPORTED;
use bm_net::{encode_response, NetClient, NetResponse, NetServer, NetServerOptions};

fn model() -> Arc<dyn Model> {
    Arc::new(LstmLm::new(LstmLmConfig::default()))
}

fn opts(mode: ReadinessMode) -> NetServerOptions {
    NetServerOptions::new()
        .runtime(RuntimeOptions::new().serve_config(ServeConfig::new().shards(2).readiness(mode)))
}

/// Re-encodes a response with its (run-dependent) timing zeroed so two
/// runs can be byte-compared: everything else — status tags, executed
/// counts, every decoded token — must match exactly.
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

/// Runs one server on `mode` under the shared workload and returns the
/// canonical response bytes in submission order. `idle_conns` sockets
/// connect and stay silent for the whole run; with
/// `disconnect_midstream`, an extra client submits requests and
/// vanishes without reading any responses.
fn run_workload(
    mode: ReadinessMode,
    idle_conns: usize,
    disconnect_midstream: bool,
) -> Vec<Vec<u8>> {
    let server = NetServer::bind(model(), opts(mode), "127.0.0.1:0").expect("bind");
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
    let polled = run_workload(ReadinessMode::Polled, 0, false);
    if !SUPPORTED {
        return; // no epoll to compare against on this platform
    }
    let epoll = run_workload(ReadinessMode::Epoll, 0, false);
    assert_eq!(polled, epoll, "backends diverged on a clean workload");
}

#[test]
fn backends_byte_identical_under_idle_load_and_disconnects() {
    let polled = run_workload(ReadinessMode::Polled, 64, true);
    if !SUPPORTED {
        return;
    }
    let epoll = run_workload(ReadinessMode::Epoll, 64, true);
    assert_eq!(
        polled, epoll,
        "backends diverged under idle connections + mid-stream disconnect"
    );
}

#[test]
fn explicit_epoll_mode_is_honest_about_support() {
    if SUPPORTED {
        let server =
            NetServer::bind(model(), opts(ReadinessMode::Epoll), "127.0.0.1:0").expect("bind");
        assert_eq!(server.readiness_backend(), "epoll");
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        let resp = client.call(&request(0)).expect("call");
        assert!(matches!(resp, NetResponse::Completed { .. }));
        server.shutdown();
    } else {
        match NetServer::bind(model(), opts(ReadinessMode::Epoll), "127.0.0.1:0") {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::Unsupported),
            Ok(_) => panic!("explicit epoll must fail where unsupported"),
        }
    }
}

#[test]
fn auto_mode_resolves_to_the_best_backend() {
    let server = NetServer::bind(model(), opts(ReadinessMode::Auto), "127.0.0.1:0").expect("bind");
    let expected = if SUPPORTED { "epoll" } else { "polled" };
    assert_eq!(server.readiness_backend(), expected);
    server.shutdown();

    let server =
        NetServer::bind(model(), opts(ReadinessMode::Polled), "127.0.0.1:0").expect("bind");
    assert_eq!(server.readiness_backend(), "polled");
    server.shutdown();
}
