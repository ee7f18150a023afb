//! The framed-TCP hop must not stall. A frame whose prefix and payload go
//! out in two writes waits behind Nagle's algorithm for the peer's delayed
//! ACK, up to 40 ms per direction; sequential round trips then take tens
//! of milliseconds while the server computes in well under one. The bar
//! below sits at half that 40 ms floor.

mod common;

use common::{Live, MODEL};
use pnc_serve::wire::WireClient;
use std::time::{Duration, Instant};

#[test]
fn sequential_round_trips_stay_below_the_delayed_ack_floor() {
    let mut live = Live::start();
    let mut client = WireClient::connect(live.tcp.local_addr()).expect("connects");
    let mut rtts = Vec::new();
    for i in 0..21 {
        let row = [0.1 * f64::from(i) - 1.0, 0.5 - 0.05 * f64::from(i)];
        let t = Instant::now();
        let scored = client.classify(MODEL, &row).expect("classifies");
        rtts.push(t.elapsed());
        let bits: Vec<u64> = scored.scores.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            live.reference_bits(&row),
            "row {i} must be bit-identical"
        );
    }
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?} over 21 requests: the wire hop is stalling \
         (all: {rtts:?})"
    );
    drop(client);
    live.stop();
}
