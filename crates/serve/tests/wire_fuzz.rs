//! Deterministic fuzzing of the framed-TCP decoder on the vendored
//! proptest stand-in (fixed seeds, so every run replays the same cases).
//!
//! * `read_frame` over random bytes and over mutated valid frames
//!   (truncated, re-prefixed, bit-flipped) yields a frame or an
//!   `io::Error`, never a panic. A prefix above [`MAX_FRAME_BYTES`] is
//!   refused after reading only its four bytes, before any payload buffer
//!   exists. Every decoded frame also goes through the JSON decode of both
//!   wire structs.
//! * Encoders round-trip: `write_frame` → `read_frame`, and the JSON of
//!   [`WireRequest`] and [`WireResponse`] with non-ASCII and escaped
//!   strings and awkward f64 bit patterns.
//! * A live [`TcpServer`] answers garbage frames with `bad_request` and id
//!   0, and the same connection then serves a valid request exactly.

mod common;

use common::{Live, MODEL};
use pnc_serve::wire::{read_frame, write_frame, WireRequest, WireResponse, MAX_FRAME_BYTES};
use proptest::prelude::*;
use proptest::test_runner::{run, TestCaseError};
use std::io::{Cursor, ErrorKind};
use std::net::TcpStream;

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|b| b as u8)
}

/// Characters that stress the JSON string codec: quotes, escapes, control
/// characters, multi-byte UTF-8 and a character outside the BMP.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', 'Ω', '中', '\u{2028}',
    '🦀',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..16)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Finite f64 values whose shortest decimal form is easy to get wrong.
const AWKWARD: [f64; 10] = [
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    2.225_073_858_507_201e-308,
    -0.0,
    0.0,
    f64::MAX,
    f64::MIN,
    0.1 + 0.2,
    1e23,
];

/// Any finite f64: a uniformly random bit pattern, or one of [`AWKWARD`]
/// when the pattern is non-finite (which JSON cannot carry) or the coin
/// says so.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX, 0usize..AWKWARD.len(), proptest::bool::ANY).prop_map(|(bits, i, pick)| {
        let v = f64::from_bits(bits);
        if pick || !v.is_finite() {
            AWKWARD[i]
        } else {
            v
        }
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn request() -> impl Strategy<Value = WireRequest> {
    (
        0u64..=u64::MAX,
        text(),
        proptest::collection::vec(finite_f64(), 0..8),
    )
        .prop_map(|(id, model, features)| WireRequest {
            id,
            model,
            features,
        })
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut raw = Vec::new();
    write_frame(&mut raw, payload).expect("in-memory write");
    raw
}

/// `read_frame`'s whole contract on one input, whatever its bytes; a
/// decoded frame then goes through both wire structs' JSON decoders.
fn decode_contract(raw: &[u8]) -> Result<(), TestCaseError> {
    let mut cursor = Cursor::new(raw);
    let result = read_frame(&mut cursor);
    let Some(prefix) = raw.get(..4) else {
        prop_assert!(matches!(&result, Err(e) if e.kind() == ErrorKind::UnexpectedEof));
        return Ok(());
    };
    let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        prop_assert!(matches!(&result, Err(e) if e.kind() == ErrorKind::InvalidData));
        prop_assert_eq!(cursor.position(), 4);
    } else if raw.len() - 4 < len {
        prop_assert!(matches!(&result, Err(e) if e.kind() == ErrorKind::UnexpectedEof));
    } else {
        let frame = result.map_err(|e| TestCaseError::Fail(format!("{e}")))?;
        prop_assert!(
            frame == raw[4..4 + len],
            "frame bytes differ from the input"
        );
        if let Ok(json) = std::str::from_utf8(&frame) {
            let _ = serde_json::from_str::<WireRequest>(json);
            let _ = serde_json::from_str::<WireResponse>(json);
        }
    }
    Ok(())
}

/// Applies one mutation to a valid frame: truncate it, replace its prefix,
/// or flip some of its bits.
fn mutate(mut raw: Vec<u8>, kind: usize, prefix: u32, spots: &[usize]) -> Vec<u8> {
    match kind {
        0 => raw.truncate(spots[0] % (raw.len() + 1)),
        1 => raw[..4].copy_from_slice(&prefix.to_be_bytes()),
        _ => {
            let len = raw.len();
            for &spot in spots {
                raw[(spot / 8) % len] ^= 1 << (spot % 8);
            }
        }
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_bytes_decode_or_error(raw in proptest::collection::vec(byte(), 0..64)) {
        decode_contract(&raw)?;
    }

    #[test]
    fn short_prefixes_with_random_payloads_decode_or_error(
        len in 0u32..48,
        body in proptest::collection::vec(byte(), 0..64),
    ) {
        let mut raw = len.to_be_bytes().to_vec();
        raw.extend(body);
        decode_contract(&raw)?;
    }

    #[test]
    fn mutated_request_frames_decode_or_error(
        request in request(),
        kind in 0usize..3,
        prefix in 0u32..=u32::MAX,
        spots in proptest::collection::vec(0usize..1 << 20, 1..6),
    ) {
        let json = serde_json::to_string(&request).expect("serializes");
        decode_contract(&mutate(frame_of(json.as_bytes()), kind, prefix, &spots))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn frames_round_trip_back_to_back(
        payloads in proptest::collection::vec(proptest::collection::vec(byte(), 0..256), 1..4),
    ) {
        let mut raw = Vec::new();
        for payload in &payloads {
            write_frame(&mut raw, payload).expect("in-memory write");
        }
        let mut cursor = Cursor::new(raw);
        for payload in &payloads {
            prop_assert_eq!(&read_frame(&mut cursor).expect("reads back"), payload);
        }
        prop_assert!(read_frame(&mut cursor).is_err(), "no phantom frame after the last");
    }

    #[test]
    fn requests_round_trip_json_bit_exactly(request in request()) {
        let json = serde_json::to_string(&request).expect("serializes");
        let back: WireRequest = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!((back.id, &back.model), (request.id, &request.model));
        prop_assert_eq!(bits(&back.features), bits(&request.features));
    }

    #[test]
    fn responses_round_trip_json_bit_exactly(
        (id, ok, class) in (0u64..=u64::MAX, proptest::bool::ANY, 0usize..1 << 40),
        scores in proptest::collection::vec(finite_f64(), 0..8),
        (error_kind, error_detail) in (text(), text()),
    ) {
        let response = WireResponse { id, ok, scores, class, error_kind, error_detail };
        let json = serde_json::to_string(&response).expect("serializes");
        let back: WireResponse = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(bits(&back.scores), bits(&response.scores));
        prop_assert_eq!(back, response);
    }
}

/// Sends `payload` as one frame on `stream` and decodes the answer.
fn exchange(stream: &mut TcpStream, payload: &[u8]) -> WireResponse {
    write_frame(stream, payload).expect("sends");
    let raw = read_frame(stream).expect("server answers");
    serde_json::from_str(std::str::from_utf8(&raw).expect("UTF-8")).expect("a WireResponse")
}

/// One garbage frame, then a valid request, on one connection.
fn garbage_then_valid(live: &mut Live, garbage: &[u8], row: [f64; 2]) -> Result<(), TestCaseError> {
    let mut stream = TcpStream::connect(live.tcp.local_addr()).expect("connects");
    let answer = exchange(&mut stream, garbage);
    prop_assert!(!answer.ok, "garbage was accepted: {answer:?}");
    prop_assert_eq!(answer.id, 0);
    prop_assert_eq!(answer.error_kind.as_str(), "bad_request");

    let request = WireRequest {
        id: 9,
        model: MODEL.to_string(),
        features: row.to_vec(),
    };
    let answer = exchange(
        &mut stream,
        serde_json::to_string(&request).expect("json").as_bytes(),
    );
    prop_assert!(answer.ok, "valid request after garbage failed: {answer:?}");
    prop_assert_eq!(answer.id, 9);
    prop_assert_eq!(bits(&answer.scores), live.reference_bits(&row));
    Ok(())
}

#[test]
fn live_server_rejects_garbage_frames_and_keeps_serving() {
    let live = std::cell::RefCell::new(Live::start());
    let fixed: [&[u8]; 9] = [
        b"",
        b"\xff\xfe\xfd",
        b"null",
        b"{}",
        b"[1,2,3]",
        br#"{"id":7,"model":"tiny"}"#,
        br#"{"id":7,"model":"tiny","features":"x"}"#,
        br#"{"id":7,"model":"tiny","features":[0.1,0.2]} trailing"#,
        &[b'['; 100_000],
    ];
    for garbage in fixed {
        if let Err(e) = garbage_then_valid(&mut live.borrow_mut(), garbage, [0.3, -0.4]) {
            panic!(
                "garbage {:?}: {e:?}",
                String::from_utf8_lossy(&garbage[..garbage.len().min(40)])
            );
        }
    }
    let cases = (
        proptest::collection::vec(byte(), 0..128),
        (-2.0..2.0f64, -2.0..2.0f64),
    );
    run(
        &ProptestConfig::with_cases(64),
        &cases,
        |(garbage, (a, b))| garbage_then_valid(&mut live.borrow_mut(), &garbage, [a, b]),
    );
    live.into_inner().stop();
}
