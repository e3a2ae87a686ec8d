//! End-host failure and recovery: server crash/restart under a retrying
//! client, and legitimate goodput under a SYN flood.
//!
//! Two scenarios, both run for every architecture:
//!
//! * **Recovery** — a resilient UDP RPC client (per-request deadlines,
//!   capped exponential backoff with full jitter) drives a restartable
//!   server. A [`HostFaultPlan`] crashes the server process mid-run and
//!   restarts it a fixed delay later; the kernel teardown unmaps NI
//!   channels (queued frames land in the conserved `owner_dead` ledger
//!   bucket) and frees the PCB. Measured: time from the restart to the
//!   first successfully answered request — the end-to-end recovery time
//!   the retry/backoff machinery delivers.
//!
//! * **Flood** — the Figure-5 scenario (HTTP clients plus a SYN flood at
//!   a dummy port) with the minimal SYN cache enabled: on backlog
//!   overflow the oldest half-open connection is evicted instead of the
//!   new SYN being dropped. Under LRP the flood is additionally confined
//!   to the dummy socket's own channel, so legitimate HTTP goodput holds
//!   up; under BSD the shared queues and software-interrupt processing
//!   let the flood starve everyone. The headline number is the
//!   SOFT-LRP/BSD goodput ratio during the attack.

use crate::{HOST_A, HOST_B};
use lrp_apps::{
    shared, ClientStats, ResilientRpcClient, ResilientRpcServer, RetryPolicy, ServerStats, Shared,
};
use lrp_core::{Architecture, CrashEvent, DropPoint, Host, HostFaultPlan, World};
use lrp_sim::{SimDuration, SimTime};
use lrp_wire::Endpoint;

/// UDP port of the resilient RPC server.
pub const RPC_PORT: u16 = 7000;
/// Sim time of the server crash.
pub const CRASH_AT: SimTime = SimTime::from_millis(300);
/// Delay from crash to restart.
pub const RESTART_AFTER: SimDuration = SimDuration::from_millis(200);
/// SYN-flood rate of the flood scenario, packets/second.
pub const FLOOD_PPS: f64 = 10_000.0;

/// One architecture's crash/restart measurement.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPoint {
    /// Architecture under test.
    pub arch: Architecture,
    /// When the server process crashed, ms.
    pub crash_ms: f64,
    /// When its new incarnation was spawned, ms.
    pub restart_ms: f64,
    /// First successfully answered request after the restart, ms since
    /// the restart (`None`: the client never recovered).
    pub recovery_ms: Option<f64>,
    /// Client requests answered OK over the whole run.
    pub completions: u64,
    /// Client retransmissions (timeouts and Busy replies).
    pub retries: u64,
    /// Client receive deadlines that fired.
    pub timeouts: u64,
    /// Requests the client abandoned.
    pub giveups: u64,
    /// `Busy` replies from the load-shedding server.
    pub busy_replies: u64,
    /// Requests the server computed (both incarnations).
    pub served: u64,
    /// Requests the server shed above its watermark.
    pub shed: u64,
    /// Frames attributed to the `owner_dead` ledger bucket by the crash
    /// teardown.
    pub owner_dead: u64,
    /// Both hosts' packet ledgers balanced.
    pub conserved: bool,
}

/// One architecture's goodput under the SYN flood (SYN cache enabled).
#[derive(Clone, Copy, Debug)]
pub struct FloodPoint {
    /// Architecture under test.
    pub arch: Architecture,
    /// SYN flood rate, packets/second.
    pub syn_pps: f64,
    /// Legitimate HTTP transactions/second during the attack.
    pub http_tps: f64,
    /// Client-visible connect failures.
    pub failures: u64,
    /// SYNs dropped at the full listen backlog.
    pub backlog_drops: u64,
    /// Half-open connections evicted by the SYN cache.
    pub syn_cache_evictions: u64,
    /// Both hosts' packet ledgers balanced.
    pub conserved: bool,
}

/// Builds the recovery world: host 0 the client (A), host 1 the
/// restartable server (B) with the crash plan installed.
pub fn build_recovery(arch: Architecture) -> (World, Shared<ClientStats>, Shared<ServerStats>) {
    let mut world = World::with_defaults();
    let cstats = shared::<ClientStats>();
    let mut a = Host::new(crate::host_config(arch), HOST_A);
    a.spawn_app(
        "resilient-client",
        0,
        0,
        Box::new(ResilientRpcClient::new(
            Endpoint::new(HOST_B, RPC_PORT),
            5000,
            RetryPolicy::patient(0x5EED),
            SimDuration::from_millis(2),
            None,
            cstats.clone(),
        )),
    );
    let sstats = shared::<ServerStats>();
    let mut b = Host::new(crate::host_config(arch), HOST_B);
    let factory_stats = sstats.clone();
    let pid = b.spawn_app_restartable(
        "rpc-server",
        0,
        16 * 1024,
        Box::new(move || {
            Box::new(ResilientRpcServer::new(
                RPC_PORT,
                SimDuration::from_micros(200),
                16,
                factory_stats.clone(),
            ))
        }),
    );
    b.set_fault_plan(&HostFaultPlan {
        seed: 0xC0DE,
        crashes: vec![CrashEvent::crash_restart(pid, CRASH_AT, RESTART_AFTER)],
    });
    world.add_host(a);
    world.add_host(b);
    (world, cstats, sstats)
}

/// Runs the recovery scenario for one architecture until `duration`.
pub fn measure_recovery(arch: Architecture, duration: SimTime) -> RecoveryPoint {
    let (mut world, cstats, sstats) = build_recovery(arch);
    world.run_until(duration);
    collect_recovery(arch, &world, &cstats, &sstats)
}

/// Extracts the measurement from a finished recovery world (lets callers
/// that also report on the world avoid running it twice).
pub fn collect_recovery(
    arch: Architecture,
    world: &World,
    cstats: &Shared<ClientStats>,
    sstats: &Shared<ServerStats>,
) -> RecoveryPoint {
    let server = &world.hosts[1];
    let &(crash_t, _) = server.crashes().first().expect("crash executed");
    let &(restart_t, _, _) = server.restarts().first().expect("server restarted");
    let c = cstats.borrow();
    let s = sstats.borrow();
    RecoveryPoint {
        arch,
        crash_ms: crash_t.as_nanos() as f64 / 1e6,
        restart_ms: restart_t.as_nanos() as f64 / 1e6,
        recovery_ms: c
            .first_completion_since(restart_t)
            .map(|t| t.since(restart_t).as_nanos() as f64 / 1e6),
        completions: c.completions.len() as u64,
        retries: c.retries,
        timeouts: c.timeouts,
        giveups: c.giveups,
        busy_replies: c.busy_replies,
        served: s.served,
        shed: s.shed,
        owner_dead: server.packet_ledger().owner_dead,
        conserved: world.hosts[0].packet_ledger().conserved()
            && world.hosts[1].packet_ledger().conserved(),
    }
}

/// Runs the flood scenario for one architecture: Figure 5's build with
/// the SYN cache switched on.
pub fn measure_flood(arch: Architecture, syn_pps: f64, duration: SimTime) -> FloodPoint {
    let mut cfg = crate::host_config(arch);
    cfg.tcp.time_wait = SimDuration::from_millis(500);
    cfg.redundant_pcb_lookup = arch.is_lrp();
    cfg.syn_cache = true;
    let (mut world, metrics) = crate::fig5::build_with_config(cfg, syn_pps);
    world.run_until(duration);
    let span = duration.as_secs_f64() - 0.5;
    let mut tx = 0u64;
    let mut failures = 0u64;
    for m in &metrics {
        let m = m.borrow();
        tx += m.transactions;
        failures += m.failures;
    }
    let server = &world.hosts[1];
    FloodPoint {
        arch,
        syn_pps,
        http_tps: tx as f64 / span,
        failures,
        backlog_drops: server.stats.dropped(DropPoint::Backlog),
        syn_cache_evictions: server.syn_cache_evictions(),
        conserved: world.hosts[0].packet_ledger().conserved()
            && world.hosts[1].packet_ledger().conserved(),
    }
}

/// The flood scenario across all architectures at [`FLOOD_PPS`].
pub fn run_flood(duration: SimTime) -> Vec<FloodPoint> {
    crate::all_architectures()
        .into_iter()
        .map(|arch| measure_flood(arch, FLOOD_PPS, duration))
        .collect()
}

/// SOFT-LRP goodput over 4.4BSD goodput under the flood — the headline
/// resilience ratio (> 1 means LRP keeps serving legitimate clients).
pub fn goodput_ratio(flood: &[FloodPoint]) -> f64 {
    let tps = |a: Architecture| {
        flood
            .iter()
            .find(|p| p.arch == a)
            .map(|p| p.http_tps)
            .unwrap_or(0.0)
    };
    let bsd = tps(Architecture::Bsd);
    if bsd == 0.0 {
        f64::INFINITY
    } else {
        tps(Architecture::SoftLrp) / bsd
    }
}

/// Renders both scenarios as text tables.
pub fn render(recovery: &[RecoveryPoint], flood: &[FloodPoint]) -> String {
    let rec_rows: Vec<Vec<String>> = recovery
        .iter()
        .map(|p| {
            vec![
                p.arch.name().to_string(),
                format!("{:.1}", p.crash_ms),
                format!("{:.1}", p.restart_ms),
                p.recovery_ms
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "never".to_string()),
                p.completions.to_string(),
                p.retries.to_string(),
                p.timeouts.to_string(),
                p.giveups.to_string(),
                p.shed.to_string(),
                p.owner_dead.to_string(),
            ]
        })
        .collect();
    let mut out = String::from(
        "Crash recovery: server killed and restarted under a retrying client\n\
         (UDP RPC, 50ms deadline, capped exponential backoff with full jitter)\n\n",
    );
    out.push_str(&crate::plot::table(
        &[
            "arch",
            "crash ms",
            "restart ms",
            "recovery ms",
            "ok",
            "retries",
            "timeouts",
            "giveups",
            "shed",
            "ownerdead",
        ],
        &rec_rows,
    ));
    out.push_str(&format!(
        "\nSYN flood at {FLOOD_PPS:.0} pkts/s with the SYN cache enabled\n\n"
    ));
    let flood_rows: Vec<Vec<String>> = flood
        .iter()
        .map(|p| {
            vec![
                p.arch.name().to_string(),
                format!("{:.0}", p.http_tps),
                p.failures.to_string(),
                p.backlog_drops.to_string(),
                p.syn_cache_evictions.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::plot::table(
        &[
            "arch",
            "HTTP tps",
            "conn fails",
            "backlog drops",
            "evictions",
        ],
        &flood_rows,
    ));
    out.push_str(&format!(
        "\nSOFT-LRP / 4.4BSD goodput ratio under flood: {:.2}\n",
        goodput_ratio(flood)
    ));
    out
}
