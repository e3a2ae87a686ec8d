//! The three workloads, their probes and their output checks.
//!
//! Each workload is the same traffic run in turn on all four receive
//! architectures. The seed reaches only the traffic generators (injector
//! arrivals, link loss, spoofed flood sources); the hosts, apps and cost
//! model are the repository's own. Probes wrap the `lrp-apps` apps and
//! record each application operation's completion without changing what
//! the app does.

use crate::alloc::{self, Snapshot};
use lrp_apps::{
    shared, BlastSink, HttpClient, HttpMetrics, HttpWorker, Shared, SharedListener, SinkMetrics,
    TcpBulkMetrics, TcpBulkReceiver, TcpBulkSender,
};
use lrp_core::{AppCtx, AppLogic, Architecture, DropPoint, Host, SyscallOp, SyscallRet, World};
use lrp_experiments::{host_config, syn_flood, HOST_A, HOST_B};
use lrp_net::{FaultPlan, Injector, LinkConfig, LossModel, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_wire::{tcp, udp, Endpoint, Frame, Ipv4Addr};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

/// The four receive architectures, in the paper's order of discussion.
pub const ARCHS: [(Architecture, &str); 4] = [
    (Architecture::Bsd, "bsd"),
    (Architecture::SoftLrp, "soft-lrp"),
    (Architecture::NiLrp, "ni-lrp"),
    (Architecture::EarlyDemux, "early-demux"),
];

/// Simulated length of one traced slice.
pub const SLICE: SimDuration = SimDuration::from_millis(10);
/// Simulated length of the pieces an untraced window runs in. The harness
/// takes each piece's fastest host time over the repetitions.
pub const CHUNK: SimDuration = SimDuration::from_secs(1);
/// The world's statclock tick: one `Tick` event per host this often.
pub const TICK: SimDuration = SimDuration::from_millis(10);

pub const UDP_PORT: u16 = 9000;
pub const UDP_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
pub const UDP_PPS: f64 = 20_000.0;
/// Figure 3's datagram size.
pub const UDP_PAYLOAD: usize = 14;
const TCP_PORT: u16 = 5001;
/// TCP bulk write size.
pub const TCP_WRITE: usize = 16_384;
const TCP_LOSS: f64 = 0.001;
/// Far more than any window delivers, so the transfer never finishes.
const TCP_TOTAL: usize = 1 << 40;
pub const HTTP_PORT: u16 = syn_flood::HTTP_PORT;
const HTTP_CLIENTS: usize = 8;
const HTTP_WORKERS: usize = 8;
const HTTP_BACKLOG: usize = 32;
const HTTP_REQUEST: usize = 100;
/// Response document size, as in Figure 5.
pub const HTTP_DOC: usize = 1300;
pub const SYN_PPS: f64 = 2_500.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    UdpOverload,
    TcpBulk,
    HttpSynflood,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "udp_overload" => Some(Workload::UdpOverload),
            "tcp_bulk" => Some(Workload::TcpBulk),
            "http_synflood" => Some(Workload::HttpSynflood),
            _ => None,
        }
    }

    /// End of the warm-up: handshakes done, slow start over, frame arena
    /// and telemetry buffers filled.
    pub fn warm_end(self) -> SimTime {
        match self {
            Workload::UdpOverload => SimTime::from_millis(500),
            Workload::TcpBulk | Workload::HttpSynflood => SimTime::from_secs(1),
        }
    }

    /// Simulated length of the measured window on each architecture.
    pub fn window(self) -> SimDuration {
        match self {
            Workload::UdpOverload => SimDuration::from_secs(3),
            Workload::TcpBulk => SimDuration::from_secs(30),
            Workload::HttpSynflood => SimDuration::from_secs(8),
        }
    }

    pub fn window_end(self) -> SimTime {
        self.warm_end() + self.window()
    }

    /// Traffic injectors in each of the workload's worlds.
    pub fn injectors(self) -> usize {
        match self {
            Workload::TcpBulk => 0,
            Workload::UdpOverload | Workload::HttpSynflood => 1,
        }
    }
}

/// One completed application operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Completion time, simulated ns.
    pub done_ns: u64,
    /// Latency in simulated ns; for datagrams, the sequence number until
    /// [`resolve_udp_latency`] replaces it.
    pub lat_ns: u64,
}

/// What the probes record, shared with the harness.
#[derive(Default)]
pub struct OpLog {
    /// Reserved up front for every operation the run can complete, so the
    /// probe never allocates inside a measured window.
    pub ops: Vec<Op>,
    reserved: usize,
    /// Operations offered so far (datagrams injected, writes issued,
    /// connects issued).
    pub offered: u64,
    /// Application payload bytes consumed so far.
    pub bytes: u64,
    /// Output-check failures seen while running.
    pub errors: Vec<String>,
}

impl OpLog {
    /// An empty log with room for more operations than the workload can
    /// complete by the window's end, whatever the seed: the injector's
    /// Poisson count with 20 % to spare, a link that carries nothing but
    /// the 16 KiB writes, or clients whose every connect-to-response takes
    /// only the two round trips it needs at the least.
    pub fn for_workload(w: Workload) -> Shared<OpLog> {
        let end = w.window_end().as_nanos();
        let link = LinkConfig::default();
        let n = match w {
            Workload::UdpOverload => (UDP_PPS * w.window_end().as_secs_f64() * 1.2) as u64,
            Workload::TcpBulk => end / link.tx_time(TCP_WRITE).as_nanos() + 1,
            Workload::HttpSynflood => HTTP_CLIENTS as u64 * end / (4 * link.latency.as_nanos()) + 1,
        } as usize;
        let ops = Vec::with_capacity(n);
        Rc::new(RefCell::new(OpLog {
            reserved: ops.capacity(),
            ops,
            ..OpLog::default()
        }))
    }

    fn error(&mut self, msg: String) {
        // One report per kind is enough; do not grow without bound.
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// The workload-specific handles a harness needs after the run.
enum Handles {
    Udp {
        seed: u64,
    },
    Tcp {
        rx: Shared<TcpBulkMetrics>,
        seed: u64,
    },
    Http {
        clients: Vec<Shared<HttpMetrics>>,
    },
}

/// One built world with its probes.
pub struct Scenario {
    pub world: World,
    pub log: Shared<OpLog>,
    handles: Handles,
}

impl Scenario {
    /// Runs the warm-up. The bulk transfer's link loss starts with the
    /// measured window, so the warm-up (handshake, slow start) does the
    /// same work whatever the seed.
    pub fn warm_up(&mut self, w: Workload) {
        self.world.run_until(w.warm_end());
        if let Handles::Tcp { seed, .. } = self.handles {
            let plan = FaultPlan {
                seed,
                loss: LossModel::Bernoulli { p: TCP_LOSS },
                ..FaultPlan::none()
            };
            // Host 1 is the receiver.
            self.world.set_link_faults(1, plan);
        }
    }
}

/// Builds the workload's world on `arch`; the probes record into `log`
/// (from [`OpLog::for_workload`]).
pub fn build(w: Workload, arch: Architecture, seed: u64, log: Shared<OpLog>) -> Scenario {
    match w {
        Workload::UdpOverload => build_udp(arch, seed, log),
        Workload::TcpBulk => build_tcp(arch, seed, log),
        Workload::HttpSynflood => build_http(arch, seed, log),
    }
}

/// The Figure 3 blast: Poisson datagrams whose payload starts with their
/// sequence number. It stops at the end of the measured window so that a
/// short drain can account for every datagram offered.
pub fn udp_injector(seed: u64) -> Injector {
    Injector::new(
        Pattern::Poisson { pps: UDP_PPS },
        SimTime::from_millis(50),
        seed,
        move |seq| {
            let mut payload = [0u8; UDP_PAYLOAD];
            payload[..8].copy_from_slice(&seq.to_be_bytes());
            Frame::ipv4(udp::build_datagram(
                UDP_SRC,
                HOST_B,
                6000,
                UDP_PORT,
                (seq & 0xFFFF) as u16,
                &payload,
                false,
            ))
        },
    )
    .stop_at(Workload::UdpOverload.window_end())
}

/// The spoofed SYN flood: Poisson arrivals (independent attackers) from a
/// pool of addresses that belong to no host (third octet never 0), salted
/// by the seed.
pub fn flood_injector(seed: u64) -> Injector {
    let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    Injector::new(
        Pattern::Poisson { pps: SYN_PPS },
        SimTime::from_millis(100),
        seed,
        move |seq| {
            let x = seq.wrapping_add(salt);
            let src = Ipv4Addr::new(10, 0, 1 + ((x >> 8) % 250) as u8, x as u8);
            let h = tcp::TcpHeader {
                src_port: 1024 + (x % 60_000) as u16,
                dst_port: HTTP_PORT,
                seq: (x as u32).wrapping_mul(2_654_435_761),
                ack: 0,
                flags: tcp::flags::SYN,
                window: 8_192,
                mss: Some(1_460),
            };
            Frame::ipv4(tcp::build_datagram(
                src,
                HOST_B,
                &h,
                (seq & 0xFFFF) as u16,
                &[],
            ))
        },
    )
}

/// Wraps the blast sink: records each consumed datagram's sequence number.
struct UdpProbe {
    inner: BlastSink,
    log: Shared<OpLog>,
}

impl AppLogic for UdpProbe {
    fn start(&mut self, ctx: AppCtx) -> SyscallOp {
        self.inner.start(ctx)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::DataFrom(_, data) = &ret {
            let mut log = self.log.borrow_mut();
            match data.get(..8) {
                Some(b) if data.len() == UDP_PAYLOAD => {
                    let seq = u64::from_be_bytes(b.try_into().expect("8 bytes"));
                    if log.ops.last().is_some_and(|o| o.lat_ns >= seq) {
                        log.error(format!("datagram {seq} consumed out of order"));
                    }
                    log.ops.push(Op {
                        done_ns: ctx.now.as_nanos(),
                        lat_ns: seq,
                    });
                    log.bytes += data.len() as u64;
                }
                _ => log.error(format!("datagram of {} bytes", data.len())),
            }
        }
        self.inner.resume(ctx, ret)
    }
}

fn build_udp(arch: Architecture, seed: u64, log: Shared<OpLog>) -> Scenario {
    let mut world = World::with_defaults();
    let mut server = Host::new(host_config(arch), HOST_B);
    server.spawn_app(
        "blast-sink",
        0,
        0,
        Box::new(UdpProbe {
            inner: BlastSink::new(UDP_PORT, shared::<SinkMetrics>()),
            log: log.clone(),
        }),
    );
    let b = world.add_host(server);
    world.add_injector(b, udp_injector(seed));
    Scenario {
        world,
        log,
        handles: Handles::Udp { seed },
    }
}

/// Write issue times awaiting delivery, shared by the two TCP probes.
#[derive(Default)]
struct Writes {
    /// `(stream offset just past the write, issue time)`.
    pending: VecDeque<(u64, SimTime)>,
    issued: u64,
    /// Bytes written so far.
    bytes: u64,
}

/// Wraps the bulk sender: stamps each 16 KiB write with its index (the
/// receiver checks the stream order with it) and notes its issue time.
struct TcpSendProbe {
    inner: TcpBulkSender,
    writes: Shared<Writes>,
    log: Shared<OpLog>,
}

impl TcpSendProbe {
    fn stamp(&mut self, now: SimTime, mut op: SyscallOp) -> SyscallOp {
        if let SyscallOp::Send { data, .. } = &mut op {
            let mut w = self.writes.borrow_mut();
            if data.len() >= 8 {
                data[..8].copy_from_slice(&w.issued.to_be_bytes());
            }
            w.issued += 1;
            w.bytes += data.len() as u64;
            let end = w.bytes;
            w.pending.push_back((end, now));
            self.log.borrow_mut().offered += 1;
        }
        op
    }
}

impl AppLogic for TcpSendProbe {
    fn start(&mut self, ctx: AppCtx) -> SyscallOp {
        let op = self.inner.start(ctx);
        self.stamp(ctx.now, op)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        let op = self.inner.resume(ctx, ret);
        self.stamp(ctx.now, op)
    }
}

/// Wraps the bulk receiver: checks that each write's index arrives at its
/// stream offset, and completes writes as their last byte is read.
struct TcpRecvProbe {
    inner: TcpBulkReceiver,
    writes: Shared<Writes>,
    log: Shared<OpLog>,
    /// Stream offset of the next byte.
    offset: u64,
    /// The index bytes of the current write seen so far.
    header: [u8; 8],
}

impl AppLogic for TcpRecvProbe {
    fn start(&mut self, ctx: AppCtx) -> SyscallOp {
        self.inner.start(ctx)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::Data(d) = &ret {
            let mut log = self.log.borrow_mut();
            // Visit only the 8 index bytes at the head of each write.
            let (start, end) = (self.offset, self.offset + d.len() as u64);
            let mut head = start / TCP_WRITE as u64 * TCP_WRITE as u64;
            while head < end {
                for pos in head.max(start)..(head + 8).min(end) {
                    let k = (pos - head) as usize;
                    self.header[k] = d[(pos - start) as usize];
                    if k == 7 {
                        let got = u64::from_be_bytes(self.header);
                        let want = head / TCP_WRITE as u64;
                        if got != want {
                            log.error(format!("write {got} arrived at the offset of write {want}"));
                        }
                    }
                }
                head += TCP_WRITE as u64;
            }
            self.offset += d.len() as u64;
            log.bytes += d.len() as u64;
            let mut w = self.writes.borrow_mut();
            while let Some(&(end, issued)) = w.pending.front() {
                if end > self.offset {
                    break;
                }
                w.pending.pop_front();
                log.ops.push(Op {
                    done_ns: ctx.now.as_nanos(),
                    lat_ns: ctx.now.since(issued).as_nanos(),
                });
            }
        }
        self.inner.resume(ctx, ret)
    }
}

fn build_tcp(arch: Architecture, seed: u64, log: Shared<OpLog>) -> Scenario {
    let writes: Shared<Writes> = Rc::new(RefCell::new(Writes {
        pending: VecDeque::with_capacity(64),
        ..Writes::default()
    }));
    let rx = shared::<TcpBulkMetrics>();
    let mut cfg = host_config(arch);
    cfg.tcp_cc = lrp_stack::tcp::CcAlgo::NewReno;
    let mut world = World::with_defaults();
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "tcp-src",
        0,
        0,
        Box::new(TcpSendProbe {
            inner: TcpBulkSender::new(Endpoint::new(HOST_B, TCP_PORT), TCP_TOTAL, TCP_WRITE),
            writes: writes.clone(),
            log: log.clone(),
        }),
    );
    let mut b = Host::new(cfg, HOST_B);
    b.spawn_app(
        "tcp-sink",
        0,
        0,
        Box::new(TcpRecvProbe {
            inner: TcpBulkReceiver::new(TCP_PORT, rx.clone()),
            writes,
            log: log.clone(),
            offset: 0,
            header: [0; 8],
        }),
    );
    world.add_host(a);
    world.add_host(b);
    Scenario {
        world,
        log,
        handles: Handles::Tcp { rx, seed },
    }
}

/// Wraps an HTTP client: times each connect-to-response and checks the
/// size of every completed response.
struct HttpProbe {
    inner: HttpClient,
    metrics: Shared<HttpMetrics>,
    log: Shared<OpLog>,
    started: SimTime,
    got: usize,
}

impl HttpProbe {
    fn note(&mut self, now: SimTime, op: &SyscallOp) {
        if let SyscallOp::Connect { .. } = op {
            self.started = now;
            self.got = 0;
            self.log.borrow_mut().offered += 1;
        }
    }
}

impl AppLogic for HttpProbe {
    fn start(&mut self, ctx: AppCtx) -> SyscallOp {
        let op = self.inner.start(ctx);
        self.note(ctx.now, &op);
        op
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::Data(d) = &ret {
            self.got += d.len();
        }
        let before = self.metrics.borrow().transactions;
        let op = self.inner.resume(ctx, ret);
        if self.metrics.borrow().transactions > before {
            let mut log = self.log.borrow_mut();
            if self.got != HTTP_DOC {
                log.error(format!("response of {} bytes", self.got));
            }
            log.bytes += self.got as u64;
            log.ops.push(Op {
                done_ns: ctx.now.as_nanos(),
                lat_ns: ctx.now.since(self.started).as_nanos(),
            });
        }
        self.note(ctx.now, &op);
        op
    }
}

fn build_http(arch: Architecture, seed: u64, log: Shared<OpLog>) -> Scenario {
    let cfg = syn_flood::config(arch, syn_flood::Defense::Cookies);
    let mut world = World::with_defaults();
    let mut server = Host::new(cfg, HOST_B);
    let listener: SharedListener = Rc::new(RefCell::new(None));
    for i in 0..HTTP_WORKERS {
        server.spawn_app(
            &format!("httpd-{i}"),
            0,
            64 * 1024,
            Box::new(HttpWorker::new(
                HTTP_PORT,
                HTTP_BACKLOG,
                HTTP_DOC,
                SimDuration::from_micros(500),
                i == 0,
                listener.clone(),
            )),
        );
    }
    let mut client_host = Host::new(cfg, HOST_A);
    let mut clients = Vec::new();
    for i in 0..HTTP_CLIENTS {
        let m = shared::<HttpMetrics>();
        client_host.spawn_app(
            &format!("client-{i}"),
            0,
            0,
            Box::new(HttpProbe {
                inner: HttpClient::new(
                    Endpoint::new(HOST_B, HTTP_PORT),
                    HTTP_REQUEST,
                    HTTP_DOC,
                    m.clone(),
                ),
                metrics: m.clone(),
                log: log.clone(),
                started: SimTime::ZERO,
                got: 0,
            }),
        );
        clients.push(m);
    }
    world.add_host(client_host);
    let b = world.add_host(server);
    world.add_injector(b, flood_injector(seed));
    Scenario {
        world,
        log,
        handles: Handles::Http { clients },
    }
}

/// Per-layer operation counters summed over a world's hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub events: u64,
    pub rx_frames: u64,
    /// Frames the host classifies in software (SOFT-LRP and Early-Demux;
    /// NI-LRP classifies in the adaptor's firmware, which the NIC's own
    /// receive cost covers, and BSD does not classify).
    pub classified: u64,
    pub interrupts: u64,
    pub early_discards: u64,
    /// Frames put on a link: the hosts' transmissions plus injected ones.
    pub tx_frames: u64,
    pub injected: u64,
    /// Statclock `Tick` events the world has dispatched.
    pub ticks: u64,
    /// Simulated time the CPUs spent running work chunks, ns.
    pub cpu_busy_ns: u64,
    /// Frames discarded after protocol processing: full socket buffer or
    /// full listen backlog.
    pub late_drops: u64,
    pub segs_in: u64,
    pub segs_out: u64,
    pub retransmits: u64,
    pub cookies_sent: u64,
    pub cookies_validated: u64,
    pub ctx_switches: u64,
    /// Simulated CPU time charged in interrupt context, ns.
    pub interrupt_ns: u64,
    /// Simulated CPU time available (hosts × CPUs × elapsed), ns.
    pub cpu_ns: u64,
    pub arena_checkouts: u64,
    pub arena_reuses: u64,
    pub modelled_failures: u64,
}

impl Counters {
    pub fn sample(sc: &Scenario) -> Counters {
        let w = &sc.world;
        let mut c = Counters {
            events: w.events_processed(),
            ..Counters::default()
        };
        for h in &w.hosts {
            let nic = h.nic.stats();
            c.rx_frames += nic.rx_frames;
            if matches!(h.cfg.arch, Architecture::SoftLrp | Architecture::EarlyDemux) {
                c.classified += nic.rx_frames;
            }
            c.interrupts += nic.interrupts;
            c.early_discards += nic.early_discards;
            c.tx_frames += nic.tx_frames;
            c.late_drops +=
                h.stats.dropped(DropPoint::SockBuf) + h.stats.dropped(DropPoint::Backlog);
            let t = h.tcp_totals();
            c.segs_in += t.segs_in;
            c.segs_out += t.segs_out;
            c.retransmits += t.retransmits;
            let (sent, validated, _) = h.cookie_totals();
            c.cookies_sent += sent;
            c.cookies_validated += validated;
            c.ctx_switches += h.stats.ctx_switches;
            c.interrupt_ns += h.sched.account_totals().interrupt.as_nanos();
            c.cpu_ns += w.now.as_nanos() * h.ncpus() as u64;
            c.cpu_busy_ns += (0..h.ncpus())
                .map(|i| h.cpu_busy(i).as_nanos())
                .sum::<u64>();
            c.ticks += w.now.as_nanos() / TICK.as_nanos();
            // Host statistics count ring overruns (as `RxRing`) but not
            // the NI firmware's early discards, which the host never sees.
            c.modelled_failures += h.stats.total_drops() + nic.early_discards;
        }
        c.injected = (0..injector_count(sc)).map(|i| w.injector_emitted(i)).sum();
        c.tx_frames += c.injected;
        let arena = lrp_wire::frame_arena_stats();
        c.arena_checkouts = arena.checkouts;
        c.arena_reuses = arena.reuses;
        match &sc.handles {
            Handles::Udp { .. } => {}
            // A write not yet delivered is not a failure until the run
            // ends; the harness counts those separately.
            Handles::Tcp { .. } => c.modelled_failures = 0,
            Handles::Http { clients } => {
                c.modelled_failures = clients.iter().map(|m| m.borrow().failures).sum()
            }
        }
        c
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, e: Counters) -> Counters {
        Counters {
            events: self.events - e.events,
            rx_frames: self.rx_frames - e.rx_frames,
            classified: self.classified - e.classified,
            interrupts: self.interrupts - e.interrupts,
            early_discards: self.early_discards - e.early_discards,
            tx_frames: self.tx_frames - e.tx_frames,
            injected: self.injected - e.injected,
            ticks: self.ticks - e.ticks,
            cpu_busy_ns: self.cpu_busy_ns - e.cpu_busy_ns,
            late_drops: self.late_drops - e.late_drops,
            segs_in: self.segs_in - e.segs_in,
            segs_out: self.segs_out - e.segs_out,
            retransmits: self.retransmits - e.retransmits,
            cookies_sent: self.cookies_sent - e.cookies_sent,
            cookies_validated: self.cookies_validated - e.cookies_validated,
            ctx_switches: self.ctx_switches - e.ctx_switches,
            interrupt_ns: self.interrupt_ns - e.interrupt_ns,
            cpu_ns: self.cpu_ns - e.cpu_ns,
            arena_checkouts: self.arena_checkouts - e.arena_checkouts,
            arena_reuses: self.arena_reuses - e.arena_reuses,
            modelled_failures: self.modelled_failures - e.modelled_failures,
        }
    }
}

fn injector_count(sc: &Scenario) -> usize {
    match sc.handles {
        Handles::Udp { .. } => Workload::UdpOverload.injectors(),
        Handles::Tcp { .. } => Workload::TcpBulk.injectors(),
        Handles::Http { .. } => Workload::HttpSynflood.injectors(),
    }
}

/// How a run is observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The timed run: the window in [`CHUNK`]-long `run_until` calls.
    Plain,
    /// The traced run: the window in [`SLICE`]-long `run_until` calls,
    /// with one span per slice.
    Sliced,
    /// As `Plain`, with host telemetry switched off.
    TelemetryOff,
}

/// One `run_until` call of a window: a slice of a traced run, or a chunk
/// of an untraced one.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub slice: u32,
    pub host_ns: u64,
    pub events: u64,
    pub allocs: u64,
}

/// Everything one architecture's run produced.
pub struct ArchRun {
    pub setup_ns: u64,
    pub host_ns: u64,
    /// Peak live heap over the heap in use before the world was built,
    /// from the build to the end of the measured window.
    pub heap_peak: u64,
    pub alloc: Snapshot,
    pub counters: Counters,
    /// Latencies of operations completed in the window, simulated ns.
    pub latencies: Vec<u64>,
    pub window_bytes: u64,
    pub offered: u64,
    /// Offered operations the model dropped, refused or left undelivered
    /// (the paper's overload behaviour, not a program error).
    pub modelled_failures: u64,
    pub spans: Vec<Span>,
    /// Simulated statistics; equal across modes and repetitions.
    pub digest: String,
    pub errors: Vec<String>,
}

pub fn run_arch(w: Workload, arch: Architecture, seed: u64, mode: Mode) -> ArchRun {
    // Every architecture starts from an empty frame arena, as in a fresh
    // process: switching recycling off frees the buffers an earlier
    // world left in the thread's cache.
    lrp_wire::set_frame_pooling(false);
    lrp_wire::set_frame_pooling(true);
    // The probe log and the span list are reserved before the heap
    // baseline, so only the simulator's own storage is in the peak.
    let log = OpLog::for_workload(w);
    let mut spans = Vec::with_capacity((w.window().as_nanos() / SLICE.as_nanos()) as usize + 1);
    let heap0 = alloc::reset_peak();
    let t0 = Instant::now();
    let mut sc = build(w, arch, seed, log);
    if mode == Mode::TelemetryOff {
        for h in &mut sc.world.hosts {
            h.set_telemetry(false);
        }
    }
    sc.warm_up(w);
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let (bytes0, offered0) = {
        let log = sc.log.borrow();
        (log.bytes, log.offered)
    };
    let c0 = Counters::sample(&sc);
    let end = w.window_end();
    let step = if mode == Mode::Sliced { SLICE } else { CHUNK };
    let a0 = Snapshot::now();
    let t1 = Instant::now();
    let mut at = w.warm_end();
    while at < end {
        at = (at + step).min(end);
        let (s0, e0, sa) = (Instant::now(), sc.world.events_processed(), Snapshot::now());
        sc.world.run_until(at);
        spans.push(Span {
            slice: spans.len() as u32,
            host_ns: s0.elapsed().as_nanos() as u64,
            events: sc.world.events_processed() - e0,
            allocs: Snapshot::now().since(sa).allocs,
        });
    }
    let host_ns = t1.elapsed().as_nanos() as u64;
    let heap_peak = alloc::peak_bytes() - heap0;

    let alloc = Snapshot::now().since(a0);
    let counters = Counters::sample(&sc).since(c0);
    let (window_bytes, offered) = {
        let log = sc.log.borrow();
        (log.bytes - bytes0, log.offered - offered0)
    };
    let run = ArchRun {
        setup_ns,
        host_ns,
        heap_peak,
        alloc,
        counters,
        latencies: Vec::new(),
        window_bytes,
        offered,
        modelled_failures: counters.modelled_failures,
        spans,
        digest: String::new(),
        errors: Vec::new(),
    };
    finish(&mut sc, w, mode, run)
}

/// Checks the run's outputs and collects its latencies and digest.
fn finish(sc: &mut Scenario, w: Workload, mode: Mode, mut run: ArchRun) -> ArchRun {
    let (t0, t1) = (w.warm_end().as_nanos(), w.window_end().as_nanos());
    let errors = &mut run.errors;
    match &sc.handles {
        Handles::Udp { seed } => {
            // The injector stopped at the window's end: let the frames on
            // the wire arrive, then every offered datagram is accounted.
            sc.world
                .run_until(w.window_end() + SimDuration::from_millis(5));
            resolve_udp_latency(&mut sc.log.borrow_mut(), *seed);
            run.offered = run.counters.injected;
            let h = &sc.world.hosts[0];
            let emitted = sc.world.injector_emitted(0);
            let l = h.packet_ledger();
            if mode != Mode::TelemetryOff {
                let accounted = l.delivered_udp
                    + l.nic_ring_drops
                    + l.nic_early_discards
                    + l.host_dropped()
                    + l.in_flight;
                if emitted != l.accepted || emitted != accounted {
                    errors.push(format!(
                        "offered {emitted} datagrams, NIC accepted {}, delivered plus drops \
                         plus queued {accounted}",
                        l.accepted
                    ));
                }
                if (sc.log.borrow().ops.len() as u64) > l.delivered_udp {
                    errors.push("the sink consumed more datagrams than were delivered".into());
                }
            }
        }
        Handles::Tcp { rx, .. } => {
            let m = rx.borrow();
            if m.aborted || m.done {
                errors.push(format!(
                    "bulk transfer ended early (aborted {}, done {})",
                    m.aborted, m.done
                ));
            }
            // Writes issued in the window and not yet delivered.
            let delivered_in_window = sc
                .log
                .borrow()
                .ops
                .iter()
                .filter(|o| o.done_ns >= t0 && o.done_ns < t1 && o.done_ns - o.lat_ns >= t0)
                .count() as u64;
            run.modelled_failures = run.offered.saturating_sub(delivered_in_window);
        }
        Handles::Http { .. } => {}
    }
    if mode != Mode::TelemetryOff {
        for (i, h) in sc.world.hosts.iter().enumerate() {
            if !h.packet_ledger().conserved() {
                errors.push(format!("host {i}: packet ledger not conserved"));
            }
        }
    }
    let log = sc.log.borrow();
    errors.extend(log.errors.iter().cloned());
    if log.ops.capacity() != log.reserved {
        errors.push(format!(
            "{} operations outgrew the probe log's reservation of {}, so its storage \
             counted in the heap and allocation figures",
            log.ops.len(),
            log.reserved
        ));
    }
    run.latencies = log
        .ops
        .iter()
        .filter(|o| o.done_ns >= t0 && o.done_ns < t1)
        .map(|o| o.lat_ns)
        .collect();
    run.digest = digest(&sc.world, &run.counters, &run.latencies, run.window_bytes);
    run
}

/// Replaces each consumed datagram's sequence number by its latency from
/// injection, replaying the seeded injector schedule.
fn resolve_udp_latency(log: &mut OpLog, seed: u64) {
    let Some(last) = log.ops.last().map(|o| o.lat_ns) else {
        return;
    };
    let mut twin = udp_injector(seed);
    let mut sent_at = Vec::with_capacity(last as usize + 1);
    while sent_at.len() as u64 <= last {
        sent_at.push(
            twin.next_fire()
                .expect("twin injector runs as long")
                .as_nanos(),
        );
        drop(twin.fire());
    }
    for o in &mut log.ops {
        o.lat_ns = o.done_ns - sent_at[o.lat_ns as usize];
    }
}

/// The simulated outcome of a run, as text: equal digests mean equal
/// simulations. Everything here is kernel state, independent of telemetry.
fn digest(world: &World, c: &Counters, latencies: &[u64], bytes: u64) -> String {
    let mut s = format!("events={} ops={} bytes={bytes}", c.events, latencies.len());
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    s += &format!(
        " p50={} p99={}",
        percentile(&sorted, 0.5),
        percentile(&sorted, 0.99)
    );
    for (i, h) in world.hosts.iter().enumerate() {
        let mut drops: Vec<(&str, u64)> =
            h.stats.drops.iter().map(|(p, n)| (p.name(), *n)).collect();
        drops.sort_unstable();
        s += &format!(
            " | host{i} nic={:?} drops={drops:?} tcp={:?} cookies={:?} udp={} tcp_bytes={}",
            h.nic.stats(),
            h.tcp_totals(),
            h.cookie_totals(),
            h.stats.udp_delivered,
            h.stats.tcp_delivered_bytes
        );
    }
    s
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
