//! Determinism: the repository's reproducibility claim. Identical
//! configurations must produce bit-identical results — this is what makes
//! the regenerated figures trustworthy.

use lrp::core::Architecture;
use lrp::experiments::{fig3, fig5, table2};
use lrp::sim::SimTime;

#[test]
fn fig3_point_is_bit_identical_across_runs() {
    let a = fig3::measure(Architecture::SoftLrp, 9_500.0, SimTime::from_secs(1));
    let b = fig3::measure(Architecture::SoftLrp, 9_500.0, SimTime::from_secs(1));
    assert_eq!(a.delivered.to_bits(), b.delivered.to_bits());
}

#[test]
fn fig5_point_is_bit_identical_across_runs() {
    let a = fig5::measure(Architecture::Bsd, 8_000.0, SimTime::from_secs(2));
    let b = fig5::measure(Architecture::Bsd, 8_000.0, SimTime::from_secs(2));
    assert_eq!(a.http_tps.to_bits(), b.http_tps.to_bits());
    assert_eq!(a.fail_rate.to_bits(), b.fail_rate.to_bits());
}

#[test]
fn full_host_state_identical_across_runs() {
    // Deeper than a summary statistic: every counter the kernel kept.
    let run = || {
        let (mut world, _m) = fig3::build(Architecture::NiLrp, 11_000.0, true);
        world.run_until(SimTime::from_secs(1));
        let h = &world.hosts[0];
        (
            h.stats.clone(),
            h.nic.stats(),
            h.sched.total_charged(),
            h.rx_frames(),
        )
    };
    let (s1, n1, c1, r1) = run();
    let (s2, n2, c2, r2) = run();
    assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
    assert_eq!(n1, n2);
    assert_eq!(c1, c2);
    assert_eq!(r1, r2);
}

/// Pre-SMP-refactor golden values for the Figure-3 blast scenario
/// (Poisson arrivals, 12 000 pkts/s offered, 1 s, three seeds). Captured
/// on the single-CPU host before `Vec<Cpu>` existed; an `ncpus = 1` host
/// must reproduce them bit-for-bit — same seeds, same event order.
/// The seed-7 Early-Demux row was recorded later, so that every
/// architecture has a pinned fig3 digest.
/// Each row: (seed, arch, delivered-rate f64 bits, FNV-1a over the full
/// host state: stats, NIC stats, charged time, rx frame count).
const FIG3_GOLDEN: &[(u64, Architecture, u64, u64)] = &[
    (7, Architecture::Bsd, 0x40ab0c0000000000, 0xc7d7a13a0dd0a888),
    (
        7,
        Architecture::SoftLrp,
        0x40be100000000000,
        0xce3168dc747137aa,
    ),
    (
        7,
        Architecture::NiLrp,
        0x40c5300000000000,
        0x2ef2de8308903242,
    ),
    (
        7,
        Architecture::EarlyDemux,
        0x40b5300000000000,
        0xbd895173fbf2ddb6,
    ),
    (
        11,
        Architecture::Bsd,
        0x40a9080000000000,
        0x7c7f96907699e4fb,
    ),
    (
        11,
        Architecture::SoftLrp,
        0x40bdbc0000000000,
        0xe48e30867580dc72,
    ),
    (
        11,
        Architecture::NiLrp,
        0x40c5310000000000,
        0x017b84eeb719f052,
    ),
    (
        23,
        Architecture::Bsd,
        0x40aca00000000000,
        0xe258b4e8907abaa3,
    ),
    (
        23,
        Architecture::SoftLrp,
        0x40be500000000000,
        0x4885ccc2f2cdf929,
    ),
    (
        23,
        Architecture::NiLrp,
        0x40c5300000000000,
        0x7e698acbf280cd9e,
    ),
];

fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Serializes the counters the goldens cover from explicit named fields,
/// with drops sorted by name. Hashing `Debug` output would silently tie
/// the goldens to `HashMap` iteration order (not stable across processes)
/// and to the exact field set of `HostStats` (which may legitimately grow).
fn host_state_string(h: &lrp::core::Host) -> String {
    let s = &h.stats;
    let mut drops: Vec<String> = s.drops.iter().map(|(k, v)| format!("{k:?}={v}")).collect();
    drops.sort();
    let n = h.nic.stats();
    format!(
        "udp={} udpB={} tcpB={} drops=[{}] hw={} soft={} ctx={} acc={} \
         nic(rx={} intr={} ring={} early={} tx={} ifq={}) charged={} rxf={}",
        s.udp_delivered,
        s.udp_delivered_bytes,
        s.tcp_delivered_bytes,
        drops.join(","),
        s.hw_chunks,
        s.soft_jobs,
        s.ctx_switches,
        s.tcp_accepted,
        n.rx_frames,
        n.interrupts,
        n.ring_drops,
        n.early_discards,
        n.tx_frames,
        n.ifq_drops,
        h.sched.total_charged(),
        h.rx_frames()
    )
}

#[test]
fn fig3_matches_pre_smp_baseline_for_three_seeds() {
    for &(seed, arch, delivered_bits, state_fnv) in FIG3_GOLDEN {
        let p = fig3::measure_seeded(arch, 12_000.0, true, seed, SimTime::from_secs(1));
        assert_eq!(
            p.delivered.to_bits(),
            delivered_bits,
            "delivered rate drifted from pre-SMP baseline (seed {seed}, {arch:?})"
        );
        let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, seed);
        world.run_until(SimTime::from_secs(1));
        let state = host_state_string(&world.hosts[0]);
        assert_eq!(
            fnv1a(&state),
            state_fnv,
            "host state drifted from pre-SMP baseline (seed {seed}, {arch:?}): {state}"
        );
    }
}

/// Frame-arena recycling is a pure allocation strategy: a fault-heavy
/// TCP run (bursty loss, retransmissions, duplicated frames) must be
/// byte-identical with pooling on and off. This pins the fault stage's
/// copy-free duplication — sharing one buffer between both deliveries
/// may not change what any host observes.
#[test]
fn fault_sweep_results_identical_with_and_without_frame_pooling() {
    use lrp::experiments::fault_sweep;
    use lrp::stack::tcp::CcAlgo;
    let run = |pooled: bool| {
        lrp::wire::set_frame_pooling(pooled);
        let mut plan = fault_sweep::burst_plan(0xB57, 0.02);
        plan.duplicate_p = 0.05;
        let (mut world, _m) =
            fault_sweep::build_cc(Architecture::Bsd, CcAlgo::NewReno, plan, 1 << 18);
        world.run_until(SimTime::from_secs(10));
        let digest = (
            host_state_string(&world.hosts[0]),
            host_state_string(&world.hosts[1]),
            world.events_processed(),
        );
        lrp::wire::set_frame_pooling(true);
        digest
    };
    assert_eq!(run(true), run(false), "frame pooling changed results");
}

#[test]
fn table2_cell_is_identical_across_runs() {
    let a = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    let b = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    assert_eq!(a.worker_elapsed_s.to_bits(), b.worker_elapsed_s.to_bits());
    assert_eq!(a.rpc_rate.to_bits(), b.rpc_rate.to_bits());
}
