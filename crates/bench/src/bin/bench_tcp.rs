//! Measures TCP segment-arrival processing throughput per congestion
//! controller and writes `BENCH_tcp.json` at the repository root — the
//! first point of the ROADMAP's wall-clock trajectory. The workload is
//! an established pair's write → deliver → ack round trip.

use lrp_bench::TcpBenchPair;
use lrp_stack::tcp::CcAlgo;
use std::time::Instant;

/// Round trips per controller. ~3 s total on a debug build, well under a
/// second in release.
const ITERS: u64 = 200_000;

fn main() {
    let payload = vec![7u8; 1000];
    let mut entries = Vec::new();
    for cc in CcAlgo::all() {
        // Warm-up pass so allocator and branch state settle.
        let mut warm = TcpBenchPair::new(cc);
        for _ in 0..ITERS / 10 {
            warm.roundtrip(&payload);
        }
        let mut pair = TcpBenchPair::new(cc);
        let start = Instant::now();
        let mut events = 0u64;
        for _ in 0..ITERS {
            events += pair.roundtrip(&payload);
        }
        let elapsed = start.elapsed();
        let eps = events as f64 / elapsed.as_secs_f64();
        println!(
            "tcp_cc/segment_arrival/{}: {} events in {:?} ({:.0} events/s)",
            cc.name(),
            events,
            elapsed,
            eps
        );
        entries.push(format!(
            "    {{ \"cc\": \"{}\", \"events\": {}, \"elapsed_ns\": {}, \"events_per_sec\": {:.1} }}",
            cc.name(),
            events,
            elapsed.as_nanos(),
            eps
        ));
    }
    let json = format!
        ("{{\n  \"bench\": \"tcp_segment_arrival\",\n  \"iters_per_cc\": {ITERS},\n  \"payload_bytes\": 1000,\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // The repo root, two levels up from this crate's manifest.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_tcp.json");
    std::fs::write(&path, json).expect("write BENCH_tcp.json");
    eprintln!("wrote {}", path.display());
}
