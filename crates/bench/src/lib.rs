//! Benchmark support crate: the shared TCP workload behind the
//! `bench_tcp` binary. `bench_sim` times the whole simulator.

#![warn(missing_docs)]

use lrp_sim::{SimDuration, SimTime};
use lrp_stack::tcp::{CcAlgo, TcpConfig, TcpConn};
use lrp_wire::{Endpoint, Ipv4Addr};

const BENCH_LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BENCH_PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// An established TCP pair for segment-processing benchmarks, with both
/// ends running the given congestion controller.
pub struct TcpBenchPair {
    /// Sender-side connection.
    pub a: TcpConn,
    /// Receiver-side connection.
    pub b: TcpConn,
    now: SimTime,
}

impl TcpBenchPair {
    /// Handshakes a fresh pair running `cc`.
    pub fn new(cc: CcAlgo) -> Self {
        let cfg = TcpConfig {
            delack: None,
            cc,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut a = TcpConn::new(
            cfg,
            Endpoint::new(BENCH_PEER, 1),
            Endpoint::new(BENCH_LOCAL, 2),
            100,
        );
        let acts = a.connect(now);
        let syn = &acts.segments[0];
        let (mut b, acts_b) = TcpConn::accept_syn(
            cfg,
            Endpoint::new(BENCH_LOCAL, 2),
            Endpoint::new(BENCH_PEER, 1),
            900,
            &syn.hdr,
            now,
        );
        let synack = &acts_b.segments[0];
        let acts_a = a.on_segment(now, &synack.hdr, &[]);
        let ack = &acts_a.segments[0];
        let _ = b.on_segment(now, &ack.hdr, &[]);
        TcpBenchPair { a, b, now }
    }

    /// One write → deliver → ack round trip; returns the number of
    /// segment-arrival events processed (data segments into the receiver
    /// plus ACKs into the sender). Simulated time advances 100 µs per
    /// call so rate-model controllers (BBR-lite) see real RTT samples.
    pub fn roundtrip(&mut self, payload: &[u8]) -> u64 {
        self.now += SimDuration::from_micros(100);
        let mut events = 0;
        let (_, acts) = self.a.write(self.now, payload);
        for seg in acts.segments {
            let racts = self.b.on_segment(self.now, &seg.hdr, &seg.payload);
            events += 1;
            let _ = self.b.read(usize::MAX);
            for rs in racts.segments {
                let _ = self.a.on_segment(self.now, &rs.hdr, &rs.payload);
                events += 1;
            }
        }
        events
    }
}
