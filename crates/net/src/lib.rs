//! The network front door for the batching runtime.
//!
//! Three pieces, mirroring the paper's serving deployment:
//!
//! - [`wire`]: a length-prefixed little-endian binary protocol carrying
//!   [`Request`](bm_core::Request)s in and typed [`NetResponse`]s out.
//!   Decoding is incremental and total — malformed bytes yield a
//!   [`WireError`], never a panic.
//! - [`NetServer`]: a hand-rolled non-blocking TCP event loop over a
//!   [`Runtime`](bm_core::Runtime), with admission control at accept
//!   time and per-connection backpressure. One loop body learns what is
//!   ready from the [`readiness`] poller the platform offers —
//!   raw-syscall epoll + eventfd completion wakeups on Linux x86_64, a
//!   portable polled scan everywhere else.
//! - [`NetClient`]: a blocking, pipeline-capable client used by the
//!   tests and the repo's benchmark (`benchmark/`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use bm_core::{Request, RuntimeOptions};
//! use bm_model::RequestInput;
//! use bm_net::{NetClient, NetServer, NetServerOptions};
//! # fn demo(model: Arc<dyn bm_model::Model>) -> Result<(), Box<dyn std::error::Error>> {
//! let server = NetServer::bind(model, NetServerOptions::new(), "127.0.0.1:0")?;
//! let mut client = NetClient::connect(server.local_addr())?;
//! let resp = client.call(&Request::new(RequestInput::Sequence(vec![1, 2, 3])))?;
//! println!("{resp:?}");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod client;
pub mod readiness;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetError};
pub use server::{NetServer, NetServerOptions, NetStatsView};
pub use wire::{
    decode_frame, encode_response, encode_submit, Frame, Message, NetReject, NetResponse,
    WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
