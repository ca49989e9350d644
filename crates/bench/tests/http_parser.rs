//! Never-panic gate for the `repro serve` request parser.
//!
//! Under the default [`Limits`], `read_request` must turn any input into
//! either a request or a typed [`HttpError`] carrying a 4xx/5xx status:
//! arbitrary bytes, well-formed requests, and well-formed requests that
//! were truncated or had one bit flipped. A panic fails the test.

use std::io::Cursor;

use horizon_bench::http::{read_request, HttpError, Limits, Request};
use proptest::prelude::*;

fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut Cursor::new(bytes), &Limits::default())
}

/// Passes on `Ok`, and on an error only if its status is 4xx/5xx.
fn typed(result: &Result<Request, HttpError>) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        prop_assert!(
            (400..600).contains(&e.status),
            "status {} outside 4xx/5xx: {}",
            e.status,
            e.message
        );
    }
    Ok(())
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..256, 0..max)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A well-formed request with its method, path and body.
struct Wire {
    bytes: Vec<u8>,
    method: String,
    path: String,
    body: Vec<u8>,
}

fn arb_request() -> impl Strategy<Value = Wire> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("PUT")],
        "[a-z0-9/?=&._-]{0,32}",
        prop_oneof![Just("HTTP/1.1"), Just("HTTP/1.0")],
        proptest::collection::vec(("[a-z-]{1,16}", "[ -~]{0,32}"), 0..6),
        arb_bytes(96),
    )
        .prop_map(|(method, path, version, headers, body)| {
            let path = format!("/{path}");
            let mut head = format!("{method} {path} {version}\r\n");
            // `x-` keeps the random headers clear of the framing ones.
            for (name, value) in &headers {
                head.push_str(&format!("x-{name}: {value}\r\n"));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&body);
            Wire {
                bytes,
                method: method.to_string(),
                path,
                body,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in arb_bytes(2048)) {
        typed(&parse(&bytes))?;
    }

    #[test]
    fn valid_requests_parse_back(wire in arb_request()) {
        let request = parse(&wire.bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(request.method, wire.method);
        prop_assert_eq!(request.path, wire.path);
        prop_assert_eq!(request.body, wire.body);
    }

    #[test]
    fn truncated_and_bit_flipped_requests_never_panic(
        wire in arb_request(),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bit in 0u32..8,
    ) {
        let bytes = wire.bytes;
        typed(&parse(&bytes[..cut % (bytes.len() + 1)]))?;
        let mut flipped = bytes.clone();
        flipped[flip_at % bytes.len()] ^= 1 << flip_bit;
        typed(&parse(&flipped))?;
    }
}
