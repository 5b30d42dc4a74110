//! The readiness backend is the platform's choice, not an option: a
//! default bind runs on epoll wherever the raw-syscall backend exists.
//! (The polled-vs-epoll byte-identity suite lives in `server.rs`'s test
//! module — only code inside the crate can put a server on the polled
//! scan where epoll is available.)

use std::sync::Arc;

use bm_core::Request;
use bm_model::{LstmLm, Model, RequestInput};
use bm_net::readiness::SUPPORTED;
use bm_net::{NetClient, NetResponse, NetServer, NetServerOptions};

#[test]
fn auto_mode_resolves_to_the_best_backend() {
    let model: Arc<dyn Model> = Arc::new(LstmLm::small());
    let server = NetServer::bind(model, NetServerOptions::new(), "127.0.0.1:0").expect("bind");
    let expected = if SUPPORTED { "epoll" } else { "polled" };
    assert_eq!(server.readiness_backend(), expected);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let resp = client
        .call(&Request::new(RequestInput::Sequence(vec![1, 2, 3])))
        .expect("call");
    assert!(matches!(resp, NetResponse::Completed { .. }));
    server.shutdown();
}
