//! Wire-protocol properties: encode/decode round-trips for every
//! message shape, and totality under adversarial bytes — truncation,
//! oversized lengths and junk must produce typed errors, never panics.

use bm_core::{DeadlineSpec, Request, ServedTiming};
use bm_model::{RequestInput, TreeShape};
use bm_net::wire::{
    decode_frame, encode_response, encode_submit, Message, NetReject, NetResponse, WireError,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn tree_strategy() -> impl Strategy<Value = TreeShape> {
    (0u32..1000).prop_map(TreeShape::Leaf).prop_recursive(
        6,  // depth
        64, // total nodes
        2,  // branches per internal
        |inner| (inner.clone(), inner).prop_map(|(l, r)| TreeShape::internal(l, r)),
    )
}

fn input_strategy() -> impl Strategy<Value = RequestInput> {
    prop_oneof![
        vec(any::<u32>(), 1..60).prop_map(RequestInput::Sequence),
        (vec(any::<u32>(), 1..40), 1usize..30)
            .prop_map(|(src, decode_len)| RequestInput::Pair { src, decode_len }),
        tree_strategy().prop_map(RequestInput::Tree),
    ]
}

fn deadline_strategy() -> impl Strategy<Value = DeadlineSpec> {
    prop_oneof![
        Just(DeadlineSpec::Default),
        Just(DeadlineSpec::None),
        any::<u64>().prop_map(DeadlineSpec::RelativeUs),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (input_strategy(), deadline_strategy()).prop_map(|(input, deadline)| {
        let mut req = Request::new(input);
        req.deadline = deadline;
        req
    })
}

fn timing_strategy() -> impl Strategy<Value = ServedTiming> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, s, c)| ServedTiming {
        arrival_us: a,
        start_us: s,
        completion_us: c,
    })
}

fn response_strategy() -> impl Strategy<Value = NetResponse> {
    prop_oneof![
        (
            timing_strategy(),
            any::<u32>(),
            vec(prop_oneof![Just(None), any::<u32>().prop_map(Some)], 0..40),
        )
            .prop_map(|(timing, executed, tokens)| NetResponse::Completed {
                timing,
                executed,
                tokens,
            }),
        timing_strategy().prop_map(|timing| NetResponse::Expired { timing }),
        vec(any::<u8>(), 0..40).prop_map(|b| {
            let msg: String = b.iter().map(|&x| char::from(b'a' + x % 26)).collect();
            NetResponse::Rejected(NetReject::Invalid(msg))
        }),
        Just(NetResponse::Rejected(NetReject::AtCapacity)),
        Just(NetResponse::ShutDown),
    ]
}

proptest! {
    #[test]
    fn submit_round_trips(req in request_strategy(), corr in any::<u32>()) {
        let mut buf = Vec::new();
        encode_submit(&mut buf, corr, &req);
        let (frame, consumed) = decode_frame(&buf)
            .expect("well-formed")
            .expect("complete");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(frame.correlation, corr);
        prop_assert_eq!(frame.message, Message::Submit(req));
    }

    #[test]
    fn response_round_trips(resp in response_strategy(), corr in any::<u32>()) {
        let mut buf = Vec::new();
        encode_response(&mut buf, corr, &resp);
        let (frame, consumed) = decode_frame(&buf)
            .expect("well-formed")
            .expect("complete");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(frame.correlation, corr);
        prop_assert_eq!(frame.message, Message::Response(resp));
    }

    #[test]
    fn back_to_back_frames_decode_in_order(
        reqs in vec(request_strategy(), 1..8),
    ) {
        // A stream of concatenated frames decodes one frame per call,
        // preserving order — the server's ingest loop relies on this.
        let mut buf = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            encode_submit(&mut buf, i as u32, req);
        }
        let mut decoded = Vec::new();
        let mut off = 0usize;
        while let Some((frame, consumed)) = decode_frame(&buf[off..]).expect("well-formed") {
            off += consumed;
            decoded.push(frame);
        }
        prop_assert_eq!(off, buf.len());
        prop_assert_eq!(decoded.len(), reqs.len());
        for (i, (frame, req)) in decoded.into_iter().zip(reqs).enumerate() {
            prop_assert_eq!(frame.correlation, i as u32);
            prop_assert_eq!(frame.message, Message::Submit(req));
        }
    }

    #[test]
    fn truncated_prefixes_never_panic(req in request_strategy(), cut in any::<usize>()) {
        // Every proper prefix of a valid frame is "incomplete", never a
        // crash: decode asks for more bytes.
        let mut buf = Vec::new();
        encode_submit(&mut buf, 7, &req);
        let cut = cut % buf.len();
        prop_assert_eq!(decode_frame(&buf[..cut]).expect("prefix is incomplete, not invalid"), None);
    }

    #[test]
    fn arbitrary_junk_never_panics(junk in vec(any::<u8>(), 0..256)) {
        // Totality: any byte soup either decodes, wants more bytes, or
        // fails with a typed error. (The call simply must not panic.)
        let _ = decode_frame(&junk);
    }

    #[test]
    fn bit_flips_never_panic(
        req in request_strategy(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        encode_submit(&mut buf, 3, &req);
        let at = flip_at % buf.len();
        buf[at] ^= 1 << flip_bit;
        let _ = decode_frame(&buf);
    }
}

#[test]
fn oversized_length_is_rejected_before_buffering() {
    let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
    assert_eq!(
        decode_frame(&bad),
        Err(WireError::Oversized {
            len: MAX_FRAME_LEN + 1
        })
    );
}

#[test]
fn trailing_bytes_inside_a_frame_are_an_error() {
    let mut buf = Vec::new();
    encode_submit(&mut buf, 0, &Request::new(RequestInput::Sequence(vec![1])));
    // Grow the declared length by one and append a stray byte: the body
    // now has trailing garbage.
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) + 1;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf.push(0xEE);
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::TrailingBytes { extra: 1 })
    );
}

/// Prefixes a hand-built payload with its length.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn wrong_version_is_rejected() {
    assert_eq!(PROTOCOL_VERSION, 3);
    let mut buf = Vec::new();
    encode_submit(&mut buf, 0, &Request::new(RequestInput::Sequence(vec![1])));
    buf[4] = 99; // version byte
    assert_eq!(decode_frame(&buf), Err(WireError::BadVersion { got: 99 }));

    // A version-1 submit (it carried a priority byte and a tenant tag
    // after the deadline spec) is refused by version, not misparsed.
    let v1 = [
        1, // version
        1, // MSG_SUBMIT
        0, 0, 0, 0, // correlation
        0, // deadline: default
        0, // priority
        0, // tenant: none
        0, // input: sequence
        1, 0, 0, 0, // one token
        1, 0, 0, 0, // token 1
    ];
    assert_eq!(
        decode_frame(&framed(&v1)),
        Err(WireError::BadVersion { got: 1 })
    );

    // So is a version-2 submit: its tenant tag would read as the input
    // tag of a version-3 body.
    let v2 = [
        2, // version
        1, // MSG_SUBMIT
        0, 0, 0, 0, // correlation
        0, // deadline: default
        0, // tenant: none
        0, // input: sequence
        1, 0, 0, 0, // one token
        1, 0, 0, 0, // token 1
    ];
    assert_eq!(
        decode_frame(&framed(&v2)),
        Err(WireError::BadVersion { got: 2 })
    );
}

/// Response statuses 3 (inbox full) and 5 (rate limited) were retired
/// with version 3: they are unknown tags, not a refusal.
#[test]
fn retired_response_statuses_are_unknown_tags() {
    for tag in [3, 5] {
        let payload = [
            3, // version
            2, // MSG_RESPONSE
            0, 0, 0, 0,   // correlation
            tag, // status
        ];
        assert_eq!(
            decode_frame(&framed(&payload)),
            Err(WireError::UnknownTag {
                field: "response status",
                tag,
            })
        );
    }
}

#[test]
fn forged_token_count_cannot_over_allocate() {
    // A sequence claiming u32::MAX tokens with a 12-byte body must fail
    // on the count check, not attempt a 16 GiB allocation.
    let mut frame = vec![
        3, // version
        1, // MSG_SUBMIT
        0, 0, 0, 0, // correlation
        0, // deadline: default
        0, // input: sequence
    ];
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_frame(&framed(&frame)),
        Err(WireError::BadValue {
            field: "sequence length"
        })
    );
}

#[test]
fn deep_tree_decode_does_not_overflow_the_stack() {
    // A maximally left-leaning tree (every internal's right child is a
    // leaf) near the node cap: encode and decode are both iterative, so
    // depth costs heap, not stack. TreeShape's *derived* PartialEq and
    // Drop do recurse, so the comparison/cleanup runs on a thread with
    // a large stack — the codec itself must not need one.
    let run = std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let mut t = TreeShape::leaf(0);
            for i in 1..=20_000u32 {
                t = TreeShape::internal(t, TreeShape::leaf(i % 1000));
            }
            let req = Request::new(RequestInput::Tree(t));
            let mut buf = Vec::new();
            encode_submit(&mut buf, 5, &req);
            let (frame, _) = decode_frame(&buf).expect("valid").expect("complete");
            assert_eq!(frame.message, Message::Submit(req));
        })
        .expect("spawn");
    run.join().expect("deep tree round-trip");
}
