//! Per-layer costs: timed calls into each layer's public functions.
//!
//! Inputs come from the workload's own generators with the run's seed:
//! the injectors' frames, and the segments a `TcpConn` pair emits for the
//! workload's TCP pattern. A layer the workload does not use is still
//! timed on the nearest generated input, so every metric is a real
//! measurement; the harness scales each cost by the workload's operation
//! counts, so such a layer's share comes out as zero.

use crate::alloc::Snapshot;
use crate::workload::{
    self, flood_injector, udp_injector, OpLog, Workload, HTTP_DOC, HTTP_PORT, TCP_WRITE, TICK,
    UDP_PORT,
};
use lrp_core::Architecture;
use lrp_demux::{ChannelId, DemuxTable};
use lrp_experiments::{HOST_A, HOST_B};
use lrp_net::{Injector, LinkConfig};
use lrp_nic::{DemuxMode, Nic};
use lrp_sched::{SchedConfig, Scheduler};
use lrp_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use lrp_stack::tcp::{cookie, Actions, Segment, TcpConfig, TcpConn};
use lrp_wire::{ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per layer; the median is reported.
const REPS: usize = 9;
/// Frames drawn from the workload's generators.
const FRAMES: usize = 4096;
/// Queue operations per timed repetition.
const QUEUE_OPS: usize = 100_000;
const PICKS: usize = 100_000;

/// Median over [`REPS`] timed calls of `f` (after one untimed warm-up
/// call), in ns per operation; `f` returns how many operations it did.
fn time_ns(mut f: impl FnMut() -> usize) -> f64 {
    black_box(f());
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

/// Allocations per operation of one call of `f` (after a warm-up call,
/// so pooled storage is primed).
fn allocs_per_op(mut f: impl FnMut() -> usize) -> f64 {
    black_box(f());
    let a = Snapshot::now();
    let ops = f();
    Snapshot::now().since(a).allocs as f64 / ops.max(1) as f64
}

fn fire(mut inj: Injector, n: usize) -> Vec<Frame> {
    (0..n).map(|_| inj.fire()).collect()
}

/// A connected `TcpConn` pair that shuttles segments between its ends.
/// Delayed ACKs are off: nothing here runs timers.
struct Pair {
    a: TcpConn,
    b: TcpConn,
    now: SimTime,
    /// Segments fed to `on_segment` (or `accept_syn`).
    segs: usize,
    /// Every segment as an IP frame, when capturing inputs.
    capture: Option<Vec<Frame>>,
}

fn tcp_cfg() -> TcpConfig {
    TcpConfig {
        delack: None,
        ..TcpConfig::default()
    }
}

impl Pair {
    fn open(port: u16, server_port: u16, iss: u32, capture: bool) -> Pair {
        let (ea, eb) = (
            Endpoint::new(HOST_A, port),
            Endpoint::new(HOST_B, server_port),
        );
        let now = SimTime::from_millis(1);
        let mut a = TcpConn::new(tcp_cfg(), ea, eb, iss);
        let syn = a.connect(now).segments.remove(0);
        let (b, synack) = TcpConn::accept_syn(tcp_cfg(), eb, ea, iss ^ 0x5555, &syn.hdr, now);
        let mut p = Pair {
            a,
            b,
            now,
            segs: 1,
            capture: capture.then(Vec::new),
        };
        p.record(true, &syn);
        p.deliver(false, synack);
        p
    }

    fn record(&mut self, to_b: bool, seg: &Segment) {
        if let Some(frames) = &mut self.capture {
            let (src, dst) = if to_b {
                (HOST_A, HOST_B)
            } else {
                (HOST_B, HOST_A)
            };
            frames.push(Frame::ipv4(tcp::build_datagram(
                src,
                dst,
                &seg.hdr,
                frames.len() as u16,
                &seg.payload,
            )));
        }
    }

    /// Delivers `acts`' segments (towards `b` if `to_b`) and every reply,
    /// until the pair is quiet.
    fn deliver(&mut self, to_b: bool, acts: Actions) {
        let mut q: VecDeque<(bool, Segment)> =
            acts.segments.into_iter().map(|s| (to_b, s)).collect();
        while let Some((to_b, seg)) = q.pop_front() {
            self.record(to_b, &seg);
            self.segs += 1;
            let end = if to_b { &mut self.b } else { &mut self.a };
            let out = end.on_segment(self.now, &seg.hdr, &seg.payload);
            q.extend(out.segments.into_iter().map(|s| (!to_b, s)));
        }
    }

    /// One bulk write from `a`, delivered and read by `b`.
    fn bulk_write(&mut self, data: &[u8]) {
        self.now += SimDuration::from_micros(100);
        let (_, acts) = self.a.write(self.now, data);
        self.deliver(true, acts);
        let (got, acts) = self.b.read(usize::MAX);
        black_box(got);
        self.deliver(false, acts);
    }
}

/// One HTTP connection's TCP life: handshake, request, response, close.
/// Returns the segments processed.
fn http_connection(i: u32, capture: Option<&mut Vec<Frame>>) -> usize {
    let mut p = Pair::open(
        40_000 + (i % 20_000) as u16,
        HTTP_PORT,
        i.wrapping_mul(64_009),
        capture.is_some(),
    );
    let (_, acts) = p.a.write(p.now, &[0x47; 100]);
    p.deliver(true, acts);
    let (req, acts) = p.b.read(usize::MAX);
    black_box(req);
    p.deliver(false, acts);
    let (_, acts) = p.b.write(p.now, &[0x48; HTTP_DOC]);
    p.deliver(false, acts);
    let (doc, acts) = p.a.read(usize::MAX);
    black_box(doc);
    p.deliver(true, acts);
    let acts = p.a.close(p.now);
    p.deliver(true, acts);
    let acts = p.b.close(p.now);
    p.deliver(false, acts);
    if let (Some(out), Some(frames)) = (capture, p.capture.take()) {
        out.extend(frames);
    }
    p.segs
}

/// The frames the workload's generators produce: the injectors' frames
/// first, then the ones the hosts' TCP connections transmit. Returns the
/// frames and how many of them are injected.
fn sample_frames(w: Workload, seed: u64) -> (Vec<Frame>, usize) {
    match w {
        Workload::UdpOverload => (fire(udp_injector(seed), FRAMES), FRAMES),
        Workload::TcpBulk => {
            let mut p = Pair::open(40_000, 5001, seed as u32, true);
            let data = vec![0xBB; TCP_WRITE];
            while p.capture.as_ref().map_or(0, Vec::len) < FRAMES {
                p.bulk_write(&data);
            }
            (p.capture.take().expect("capturing"), 0)
        }
        Workload::HttpSynflood => {
            let mut frames = fire(flood_injector(seed), FRAMES / 2);
            let mut i = seed as u32;
            while frames.len() < FRAMES {
                http_connection(i, Some(&mut frames));
                i = i.wrapping_add(1);
            }
            (frames, FRAMES / 2)
        }
    }
}

/// What a generated frame was built from, so building can be timed.
enum Spec {
    Udp {
        h: ipv4::Ipv4Header,
        uh: udp::UdpHeader,
        payload: Vec<u8>,
    },
    Tcp {
        h: ipv4::Ipv4Header,
        th: tcp::TcpHeader,
        payload: Vec<u8>,
    },
}

fn spec_of(f: &Frame) -> Spec {
    let (h, body) = ipv4::parse(f.bytes()).expect("generated frames parse");
    match h.proto {
        proto::UDP => {
            let (uh, payload) = udp::parse(body).expect("generated UDP parses");
            Spec::Udp {
                h,
                uh,
                payload: payload.to_vec(),
            }
        }
        _ => {
            let (th, payload) = tcp::parse(body).expect("generated TCP parses");
            Spec::Tcp {
                h,
                th,
                payload: payload.to_vec(),
            }
        }
    }
}

fn build(s: &Spec) -> Frame {
    Frame::ipv4(match s {
        Spec::Udp { h, uh, payload } => udp::build_datagram(
            h.src,
            h.dst,
            uh.src_port,
            uh.dst_port,
            h.ident,
            payload,
            uh.checksum != 0,
        ),
        Spec::Tcp { h, th, payload } => tcp::build_datagram(h.src, h.dst, th, h.ident, payload),
    })
}

/// The receive path's parse: IP header, transport header, checksum.
fn parse(f: &Frame) -> bool {
    let Ok((h, body)) = ipv4::parse(f.bytes()) else {
        return false;
    };
    match h.proto {
        proto::UDP => udp::parse(body).is_ok() && udp::verify_checksum(h.src, h.dst, body),
        proto::TCP => tcp::parse(body).is_ok() && tcp::verify_checksum(h.src, h.dst, body),
        _ => false,
    }
}

/// The listening flow the workload's server registers.
fn server_key(w: Workload) -> FlowKey {
    match w {
        Workload::UdpOverload => FlowKey::listening(proto::UDP, Endpoint::new(HOST_B, UDP_PORT)),
        Workload::TcpBulk => FlowKey::listening(proto::TCP, Endpoint::new(HOST_B, 5001)),
        Workload::HttpSynflood => FlowKey::listening(proto::TCP, Endpoint::new(HOST_B, HTTP_PORT)),
    }
}

/// NIC receive cost per frame in each architecture's adaptor mode: ring
/// DMA and an interrupt for BSD, SOFT-LRP and Early-Demux (their hosts
/// classify in software, timed as `demux`), firmware demux into an NI
/// channel for NI-LRP.
fn nic_rx_ns(w: Workload, inbound: &[Frame]) -> Vec<(String, f64)> {
    workload::ARCHS
        .iter()
        .map(|&(arch, tag)| {
            let mode = match arch {
                Architecture::Bsd => DemuxMode::None,
                Architecture::NiLrp => DemuxMode::Ni,
                Architecture::SoftLrp | Architecture::EarlyDemux => DemuxMode::Soft,
            };
            let mut nic = Nic::new(mode, HOST_B, 64);
            let chan = nic.create_default_channel();
            nic.demux
                .register(server_key(w), chan)
                .expect("fresh table has room");
            let mut scratch = Vec::with_capacity(64);
            let ns = time_ns(|| {
                for (i, f) in inbound.iter().enumerate() {
                    black_box(nic.rx_frame_at(i as u64, f.clone()));
                    if let Some(c) = nic.last_rx_channel() {
                        black_box(nic.channel_mut(c).dequeue());
                    }
                    if i % 8 == 7 {
                        nic.ring_drain_into(0, 64, &mut scratch);
                        scratch.clear();
                    }
                }
                nic.ring_drain_into(0, 64, &mut scratch);
                scratch.clear();
                inbound.len()
            });
            (format!("nic.{tag}.rx_ns_per_frame"), ns)
        })
        .collect()
}

/// Event rates of one world per simulated second, from the workload's
/// plain run (the mean over the four architectures' worlds).
#[derive(Clone, Copy, Debug)]
pub struct QueueRates {
    pub events: f64,
    pub injected: f64,
    /// Frames the hosts put on their links.
    pub host_tx: f64,
    pub ticks: f64,
    /// Simulated CPU time spent in work chunks, ns.
    pub cpu_busy_ns: f64,
}

impl QueueRates {
    /// Parses `events,injected,host_tx,ticks,cpu_busy_ns`.
    pub fn parse(s: &str) -> Option<QueueRates> {
        let v: Vec<f64> = s
            .split(',')
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let &[events, injected, host_tx, ticks, cpu_busy_ns] = v.as_slice() else {
            return None;
        };
        Some(QueueRates {
            events,
            injected,
            host_tx,
            ticks,
            cpu_busy_ns,
        })
    }
}

/// How long an event waits in the queue, from its scheduling to its pop.
#[derive(Clone, Copy, Debug)]
enum Delay {
    Fixed(u64),
    Exp(f64),
}

/// The world's event sources, as `(events per simulated second, delay)`.
///
/// The rates are the run's own counts. Each injected frame is two events:
/// its `Inject` (scheduled one inter-arrival gap ahead) and its arrival
/// (one link latency ahead). Each frame a host transmits is two: the link's
/// `LinkFree` (one serialisation time ahead) and the arrival (serialisation
/// plus latency), at the mean length of the frames the hosts' connections
/// send. Each host has a statclock `Tick` every [`TICK`]. The remaining
/// events are CPU completions and kernel timers, which the world's public
/// counters do not tell apart: they are modelled as CPU completions whose
/// mean delay is the CPU time busy per remaining event.
fn queue_sources(w: Workload, r: QueueRates, host_frame_len: usize) -> Vec<(f64, Delay)> {
    let link = LinkConfig::default();
    let latency = link.latency.as_nanos();
    let tx = link.tx_time(host_frame_len).as_nanos();
    let rest = r.events - 2.0 * r.injected - 2.0 * r.host_tx - r.ticks;
    let mut sources = vec![
        (
            r.injected,
            Delay::Exp(w.injectors() as f64 * 1e9 / r.injected),
        ),
        (r.injected, Delay::Fixed(latency)),
        (r.host_tx, Delay::Fixed(tx)),
        (r.host_tx, Delay::Fixed(tx + latency)),
        (r.ticks, Delay::Fixed(TICK.as_nanos())),
        (rest, Delay::Exp(r.cpu_busy_ns / rest)),
    ];
    sources.retain(|&(rate, _)| rate > 0.0);
    sources
}

/// Events pending in the world's queue on average, by Little's law: each
/// source's rate times its mean delay.
fn queue_depth(sources: &[(f64, Delay)]) -> usize {
    let held: f64 = sources
        .iter()
        .map(|&(rate, d)| {
            rate * match d {
                Delay::Fixed(ns) => ns as f64,
                Delay::Exp(mean) => mean,
            } / 1e9
        })
        .sum();
    (held.round() as usize).max(1)
}

/// `EventQueue` pop + schedule in a hold model: [`queue_depth`] events
/// pending, each popped event rescheduled with a delay drawn from the
/// sources in proportion to their rates. Returns the cost per event and
/// the depth.
fn queue_ns(w: Workload, seed: u64, rates: QueueRates, host_frame_len: usize) -> (f64, usize) {
    let sources = queue_sources(w, rates, host_frame_len);
    let depth = queue_depth(&sources);
    let total: f64 = sources.iter().map(|&(rate, _)| rate).sum();
    let mut rng = SplitMix64::new(seed);
    let delays: Vec<u64> = (0..4096)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            let mut pick = sources[sources.len() - 1].1;
            for &(rate, d) in &sources {
                if u < rate {
                    pick = d;
                    break;
                }
                u -= rate;
            }
            match pick {
                Delay::Fixed(ns) => ns,
                Delay::Exp(mean) => rng.next_exp(mean) as u64,
            }
            .max(1)
        })
        .collect();
    let ns = time_ns(|| {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..depth {
            q.schedule(SimTime::from_nanos(delays[i % delays.len()]), i as u32);
        }
        for k in 0..QUEUE_OPS {
            let (t, e) = q.pop().expect("the hold model keeps its events pending");
            q.schedule(
                t + SimDuration::from_nanos(delays[(k + depth) % delays.len()]),
                black_box(e),
            );
        }
        QUEUE_OPS
    });
    (ns, depth)
}

/// Scheduler pick + requeue with the workload's server process count.
fn sched_ns(w: Workload, seed: u64) -> f64 {
    let mut sc = workload::build(w, Architecture::NiLrp, seed, OpLog::for_workload(w));
    sc.world.run_until(SimTime::from_millis(1));
    let nprocs = sc
        .world
        .hosts
        .iter()
        .map(|h| h.sched.procs().len())
        .max()
        .unwrap_or(1);
    let mut s = Scheduler::new(SchedConfig::default());
    for i in 0..nprocs {
        s.spawn(&format!("p{i}"), 0, SimDuration::ZERO);
    }
    time_ns(|| {
        for _ in 0..PICKS {
            let pid = s.pick_next().expect("all processes runnable");
            s.requeue(black_box(pid), false);
        }
        PICKS
    })
}

/// Segments processed per call of the workload's TCP pattern: bulk writes
/// for `tcp_bulk` (and, as the nearest input, `udp_overload`), connection
/// lifecycles for `http_synflood`.
fn tcp_pattern(w: Workload) -> impl FnMut() -> usize {
    let data = vec![0xBB; TCP_WRITE];
    let mut i = 0u32;
    move || match w {
        Workload::HttpSynflood => (0..64)
            .map(|_| {
                i = i.wrapping_add(1);
                http_connection(i, None)
            })
            .sum(),
        Workload::UdpOverload | Workload::TcpBulk => {
            let mut p = Pair::open(40_000, 5001, 1, false);
            for _ in 0..256 {
                p.bulk_write(&data);
            }
            p.segs
        }
    }
}

/// `Host::next_timer_deadline`, which the world calls after every event
/// it dispatches to a host: a scan over the host's live sockets. Timed on
/// each architecture's world at the middle of its measured window, so the
/// socket population is the one the window sees; the architectures are
/// weighted by the events they dispatched.
fn timer_scan_ns(w: Workload, seed: u64) -> f64 {
    const CALLS: usize = 2_000;
    let (mut weighted, mut events) = (0.0, 0.0);
    for (arch, _) in workload::ARCHS {
        let mut sc = workload::build(w, arch, seed, OpLog::for_workload(w));
        sc.warm_up(w);
        sc.world
            .run_until(w.warm_end() + SimDuration::from_nanos(w.window().as_nanos() / 2));
        let hosts = &sc.world.hosts;
        let per_call = hosts
            .iter()
            .map(|h| {
                time_ns(|| {
                    for _ in 0..CALLS {
                        black_box(black_box(h).next_timer_deadline());
                    }
                    CALLS
                })
            })
            .sum::<f64>()
            / hosts.len() as f64;
        let n = sc.world.events_processed() as f64;
        weighted += per_call * n;
        events += n;
    }
    weighted / events
}

fn cookie_ns(seed: u64) -> f64 {
    let key = cookie::host_key(HOST_B);
    let syns: Vec<(Endpoint, Endpoint, Option<u16>)> = fire(flood_injector(seed), FRAMES)
        .iter()
        .map(|f| {
            let (h, body) = ipv4::parse(f.bytes()).expect("flood frames parse");
            let (th, _) = tcp::parse(body).expect("flood SYNs parse");
            (
                Endpoint::new(h.dst, th.dst_port),
                Endpoint::new(h.src, th.src_port),
                th.mss,
            )
        })
        .collect();
    let now = SimTime::from_secs(1);
    time_ns(|| {
        for &(local, remote, mss) in &syns {
            let c = cookie::encode(key, local, remote, mss, now);
            black_box(cookie::decode(key, local, remote, black_box(c), now));
        }
        syns.len()
    })
}

/// Every layer's cost. Besides the per-layer metrics, the result holds
/// `nic.<arch>.rx_ns_per_frame` for each architecture and
/// `sim.queue_pending`, the hold model's depth.
pub fn run(w: Workload, seed: u64, rates: QueueRates) -> Vec<(String, f64)> {
    let (frames, injected) = sample_frames(w, seed);
    let host_sent = &frames[injected..];
    let host_frame_len = host_sent.iter().map(Frame::len).sum::<usize>() / host_sent.len().max(1);
    let (queue, depth) = queue_ns(w, seed, rates, host_frame_len);
    let specs: Vec<Spec> = frames.iter().map(spec_of).collect();
    let inbound: Vec<Frame> = frames
        .iter()
        .filter(|f| ipv4::parse(f.bytes()).is_ok_and(|(h, _)| h.dst == HOST_B))
        .cloned()
        .collect();
    let build_all = || {
        for s in &specs {
            black_box(build(s));
        }
        specs.len()
    };
    let parse_all = || {
        for f in &frames {
            assert!(parse(black_box(f)), "generated frames are well formed");
        }
        frames.len()
    };
    let mut table = DemuxTable::new(64, HOST_B);
    table
        .register(server_key(w), ChannelId(0))
        .expect("fresh table has room");
    let fixed = [
        ("sim.queue_ns_per_event", queue),
        ("sim.queue_pending", depth as f64),
        ("wire.parse_ns_per_frame", time_ns(parse_all)),
        ("wire.build_ns_per_frame", time_ns(build_all)),
        (
            "wire.allocs_per_frame",
            allocs_per_op(|| {
                build_all();
                parse_all()
            }),
        ),
        (
            "demux.classify_ns_per_frame",
            time_ns(|| {
                for f in &inbound {
                    black_box(table.classify(black_box(f)));
                }
                inbound.len()
            }),
        ),
        ("stack.tcp_ns_per_segment", time_ns(tcp_pattern(w))),
        (
            "stack.tcp_allocs_per_segment",
            allocs_per_op(tcp_pattern(w)),
        ),
        ("stack.cookie_ns_per_syn", cookie_ns(seed)),
        ("sched.ns_per_pick", sched_ns(w, seed)),
        ("core.timer_scan_ns", timer_scan_ns(w, seed)),
    ];
    fixed
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(nic_rx_ns(w, &inbound))
        .collect()
}
