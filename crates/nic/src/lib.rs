//! The network interface model: receive ring, NI channels, interface
//! queue, and the three demultiplexing placements of the paper.
//!
//! A [`Nic`] sits between the simulated link and the host:
//!
//! - In **BSD** mode the NIC is dumb: every received frame lands in the
//!   receive DMA ring and raises a host interrupt; the driver moves it to
//!   the shared IP queue.
//! - In **soft-demux** mode (SOFT-LRP and Early-Demux) the NIC is equally
//!   dumb, but the *host interrupt handler* runs the demux function and
//!   places frames directly on per-socket [`NiChannel`]s, discarding early
//!   when a channel is full. The host pays the demux cost per packet.
//! - In **NI-demux** mode (NI-LRP) the NIC itself runs the demux function
//!   "in firmware": classification, channel placement and early discard
//!   consume **no host CPU at all**, and a host interrupt is raised only
//!   on an empty→non-empty channel transition when the receiver asked for
//!   one.
//!
//! This crate is pure mechanism: costs and timing are attached by the host
//! model in `lrp-core`.

#![warn(missing_docs)]

use lrp_demux::{ChannelId, DemuxTable, Verdict};
use lrp_wire::{Frame, Ipv4Addr};

/// Where the demultiplexing function executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemuxMode {
    /// No early demux: frames go to the rx ring; the driver and softirq
    /// implement the BSD path.
    None,
    /// Demux in the host interrupt handler (SOFT-LRP / Early-Demux).
    Soft,
    /// Demux in NIC firmware (NI-LRP).
    Ni,
}

/// Why a frame was dropped at the NIC layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicDrop {
    /// The receive DMA ring overflowed (host not servicing interrupts).
    RingOverrun,
    /// Early discard: the destination channel was full.
    ChannelFull,
    /// Early discard: no endpoint matched (NI-demux mode only).
    NoMatch,
    /// Early discard: malformed packet (NI-demux mode only).
    Malformed,
    /// The device was stalled by an injected fault window.
    Stalled,
}

/// Injected device misbehavior (see `FaultPlan` in `lrp-net` for the
/// wire-level counterpart). Times are raw nanoseconds since simulation
/// start so this crate stays free of the simulator's time types.
#[derive(Clone, Debug, Default)]
pub struct NicFaultPlan {
    /// Transient stall windows `(from_ns, until_ns)`: frames arriving
    /// while the device is stalled are dropped on the floor (counted in
    /// [`NicStats::stall_drops`]), whatever the demux mode — a wedged DMA
    /// engine does not classify packets either.
    pub stall_ns: Vec<(u64, u64)>,
    /// Interrupt coalescing delay: after raising a host interrupt, the
    /// device raises no further interrupts for this many nanoseconds;
    /// frames keep landing in the receive ring and are picked up by the
    /// next interrupt's batch. `0` disables coalescing. Applies to the
    /// per-frame interrupt modes (BSD / soft-demux) only: NI-demux
    /// channels already coalesce by design — at most one demand
    /// interrupt per queue-empty episode.
    pub coalesce_ns: u64,
}

impl NicFaultPlan {
    /// The inert plan.
    pub fn none() -> Self {
        NicFaultPlan::default()
    }

    /// True if this plan can never affect a frame.
    pub fn is_none(&self) -> bool {
        self.stall_ns.is_empty() && self.coalesce_ns == 0
    }

    fn stalled_at(&self, now_ns: u64) -> bool {
        self.stall_ns
            .iter()
            .any(|&(from, until)| now_ns >= from && now_ns < until)
    }
}

/// The outcome of frame reception, telling the host what to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxOutcome {
    /// Frame queued (ring or channel); raise a host interrupt. The payload
    /// is the RX queue that raised it — the host steers the interrupt to
    /// that queue's target CPU. Always 0 on a single-queue NIC.
    Interrupt(usize),
    /// Frame queued silently (channel already non-empty, or interrupts not
    /// requested). No host work.
    Queued,
    /// Frame dropped at the NIC with no host work.
    Dropped(NicDrop),
}

/// Per-channel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames enqueued.
    pub enqueued: u64,
    /// Frames dropped because the queue was full (early packet discard).
    pub dropped_full: u64,
    /// Frames dequeued by the host.
    pub dequeued: u64,
    /// High-water mark of queue depth.
    pub peak_depth: usize,
}

/// A network-interface channel (§3.1): a receive queue shared between the
/// NIC and the kernel, with a demand-interrupt flag.
#[derive(Debug)]
pub struct NiChannel {
    /// This channel's id.
    pub id: ChannelId,
    queue: std::collections::VecDeque<Frame>,
    limit: usize,
    /// When true, the NIC raises a host interrupt on the empty→non-empty
    /// transition (a blocked receiver is waiting).
    pub intr_requested: bool,
    /// Protocol processing enabled? Cleared for listening sockets whose
    /// backlog is exceeded (§3.4): the channel then fills and the NIC
    /// discards SYNs with no host work.
    pub processing_enabled: bool,
    stats: ChannelStats,
}

impl NiChannel {
    fn new(id: ChannelId, limit: usize) -> Self {
        NiChannel {
            id,
            queue: std::collections::VecDeque::new(),
            limit,
            intr_requested: false,
            processing_enabled: true,
            stats: ChannelStats::default(),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// True if no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True if the queue is at its limit.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.limit
    }

    /// Queue capacity.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Enqueues a frame; returns false (and counts a drop) if full.
    pub fn enqueue(&mut self, frame: Frame) -> bool {
        if self.is_full() {
            self.stats.dropped_full += 1;
            return false;
        }
        self.queue.push_back(frame);
        self.stats.enqueued += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.queue.len());
        true
    }

    /// Dequeues the oldest frame.
    pub fn dequeue(&mut self) -> Option<Frame> {
        let f = self.queue.pop_front();
        if f.is_some() {
            self.stats.dequeued += 1;
        }
        f
    }

    /// Peeks at the oldest frame without removing it.
    pub fn peek(&self) -> Option<&Frame> {
        self.queue.front()
    }
}

/// NIC-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames received from the link.
    pub rx_frames: u64,
    /// Host interrupts raised.
    pub interrupts: u64,
    /// Frames dropped at the rx ring.
    pub ring_drops: u64,
    /// Frames discarded early by NI-demux (channel full / no match /
    /// malformed).
    pub early_discards: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Frames dropped at the interface (tx) queue.
    pub ifq_drops: u64,
    /// Frames dropped because the device was stalled (injected fault).
    pub stall_drops: u64,
    /// Host interrupts suppressed by the coalescing window.
    pub coalesced_intrs: u64,
}

/// The simulated network adaptor.
///
/// # Examples
///
/// ```
/// use lrp_nic::{DemuxMode, Nic, RxOutcome};
/// use lrp_wire::{udp, Endpoint, FlowKey, Frame, Ipv4Addr, proto};
///
/// let local = Ipv4Addr::new(10, 0, 0, 2);
/// let mut nic = Nic::new(DemuxMode::Ni, local, 16);
/// let chan = nic.create_default_channel();
/// nic.demux
///     .register(FlowKey::listening(proto::UDP, Endpoint::new(local, 7)), chan)
///     .unwrap();
/// let frame = Frame::ipv4(udp::build_datagram(
///     Ipv4Addr::new(10, 0, 0, 1), local, 9, 7, 1, b"hi", true,
/// ));
/// // Queued silently: no interrupt was requested for this channel.
/// assert_eq!(nic.rx_frame(frame), RxOutcome::Queued);
/// assert_eq!(nic.channel(chan).depth(), 1);
/// ```
#[derive(Debug)]
pub struct Nic {
    mode: DemuxMode,
    /// The demux table; owned by the NIC in NI mode, used by the host's
    /// interrupt handler in Soft mode (the structure is identical — only
    /// who pays for classification differs).
    pub demux: DemuxTable,
    /// One receive DMA ring per RX queue; a single-queue NIC has exactly
    /// one. Frames are steered by the RSS flow hash so a flow's frames
    /// always land on the same ring.
    rx_rings: Vec<std::collections::VecDeque<Frame>>,
    rx_ring_limit: usize,
    channels: Vec<Option<NiChannel>>,
    /// The special channel for non-first IP fragments (always present).
    pub fragment_channel: ChannelId,
    ifq: std::collections::VecDeque<Frame>,
    ifq_limit: usize,
    default_channel_limit: usize,
    proxy: ProxyChannels,
    stats: NicStats,
    /// Channel the most recent `rx_frame` enqueued into (NI mode only);
    /// `None` if the frame was dropped, ring-queued, or not yet received.
    last_rx_chan: Option<ChannelId>,
    /// Injected device faults (inert by default).
    faults: NicFaultPlan,
    /// When the last host interrupt was raised (for coalescing).
    last_intr_ns: Option<u64>,
}

/// Default receive ring size (FORE SBA-200-ish).
pub const DEFAULT_RX_RING: usize = 256;
/// Default interface (tx) queue limit (BSD `ifq_maxlen`).
pub const DEFAULT_IFQ_LIMIT: usize = 50;
/// Default NI channel queue limit, in packets.
pub const DEFAULT_CHANNEL_LIMIT: usize = 64;

impl Nic {
    /// Creates a NIC for a host with address `local_addr`.
    pub fn new(mode: DemuxMode, local_addr: Ipv4Addr, max_channels: usize) -> Self {
        let mut nic = Nic {
            mode,
            demux: DemuxTable::new(max_channels.max(4), local_addr),
            rx_rings: vec![std::collections::VecDeque::new()],
            rx_ring_limit: DEFAULT_RX_RING,
            channels: Vec::new(),
            fragment_channel: ChannelId(0),
            ifq: std::collections::VecDeque::new(),
            ifq_limit: DEFAULT_IFQ_LIMIT,
            default_channel_limit: DEFAULT_CHANNEL_LIMIT,
            proxy: ProxyChannels::default(),
            stats: NicStats::default(),
            last_rx_chan: None,
            faults: NicFaultPlan::none(),
            last_intr_ns: None,
        };
        // Channel 0 is reserved for misordered fragments.
        let frag = nic.create_channel(DEFAULT_CHANNEL_LIMIT);
        debug_assert_eq!(frag, ChannelId(0));
        nic.fragment_channel = frag;
        nic
    }

    /// The demux placement mode.
    pub fn mode(&self) -> DemuxMode {
        self.mode
    }

    /// Overrides the default per-channel queue limit for future channels.
    pub fn set_default_channel_limit(&mut self, limit: usize) {
        self.default_channel_limit = limit;
    }

    /// Configures `n` RX queues (each with its own DMA ring), dropping any
    /// frames currently queued. Call once at host construction.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn set_rx_queues(&mut self, n: usize) {
        assert!(n > 0, "a NIC has at least one RX queue");
        self.rx_rings = (0..n).map(|_| std::collections::VecDeque::new()).collect();
    }

    /// The RX queue a frame steers to: the RSS hash of its flow key, or
    /// queue 0 for traffic with no transport flow (fragments, ARP, ICMP,
    /// forwarded and malformed frames).
    pub fn rx_queue_of(&self, frame: &Frame) -> usize {
        if self.rx_rings.len() == 1 {
            return 0;
        }
        match lrp_demux::rss_flow_key(frame, self.demux.local_addr()) {
            Some(key) => lrp_demux::rss_queue(&key, self.rx_rings.len()),
            None => 0,
        }
    }

    /// The default per-channel queue limit.
    pub fn default_channel_limit(&self) -> usize {
        self.default_channel_limit
    }

    /// NIC statistics snapshot.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Creates a channel with an explicit queue limit.
    pub fn create_channel(&mut self, limit: usize) -> ChannelId {
        // Reuse a freed slot if available (NI resources are finite).
        for (i, slot) in self.channels.iter_mut().enumerate() {
            if slot.is_none() {
                let id = ChannelId(i as u32);
                *slot = Some(NiChannel::new(id, limit));
                return id;
            }
        }
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Some(NiChannel::new(id, limit)));
        id
    }

    /// Creates a channel with the default queue limit.
    pub fn create_default_channel(&mut self) -> ChannelId {
        self.create_channel(self.default_channel_limit)
    }

    /// Destroys a channel (e.g. TIME_WAIT reclamation, §4.2), dropping any
    /// queued frames.
    ///
    /// # Panics
    ///
    /// Panics if asked to destroy the fragment channel.
    pub fn destroy_channel(&mut self, id: ChannelId) {
        assert_ne!(id, self.fragment_channel, "fragment channel is permanent");
        if let Some(slot) = self.channels.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// Number of live channels (including the fragment channel).
    pub fn channel_count(&self) -> usize {
        self.channels.iter().filter(|c| c.is_some()).count()
    }

    /// The ids of all live channels, in id order (includes the permanent
    /// fragment channel). Used by whole-host reboot to flush every
    /// channel coherently.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        self.channels
            .iter()
            .filter_map(|c| c.as_ref().map(|c| c.id))
            .collect()
    }

    /// Accesses a channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn channel(&self, id: ChannelId) -> &NiChannel {
        self.channels[id.0 as usize]
            .as_ref()
            .expect("channel exists")
    }

    /// Mutable access to a channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut NiChannel {
        self.channels[id.0 as usize]
            .as_mut()
            .expect("channel exists")
    }

    /// True if the channel id refers to a live channel.
    pub fn channel_exists(&self, id: ChannelId) -> bool {
        self.channels
            .get(id.0 as usize)
            .is_some_and(|c| c.is_some())
    }

    /// Installs an injected-fault plan on the device.
    pub fn set_faults(&mut self, plan: NicFaultPlan) {
        self.faults = plan;
    }

    /// The device's injected-fault plan.
    pub fn faults(&self) -> &NicFaultPlan {
        &self.faults
    }

    /// True if the coalescing window allows raising an interrupt at
    /// `now_ns`.
    fn intr_allowed(&self, now_ns: u64) -> bool {
        match self.last_intr_ns {
            None => true,
            Some(t) => self.faults.coalesce_ns == 0 || now_ns >= t + self.faults.coalesce_ns,
        }
    }

    /// Delivers a frame from the link to the NIC.
    ///
    /// Timeless wrapper around [`Nic::rx_frame_at`] for callers that do
    /// not inject device faults (the fault windows are evaluated at
    /// simulation start).
    pub fn rx_frame(&mut self, frame: Frame) -> RxOutcome {
        self.rx_frame_at(0, frame)
    }

    /// Delivers a frame from the link to the NIC at `now_ns` nanoseconds
    /// of simulated time (used by the injected-fault windows; everything
    /// else is time-free mechanism).
    ///
    /// The returned [`RxOutcome`] tells the host whether an interrupt was
    /// raised. In NI-demux mode classification happens here, on the NIC's
    /// own processor; the host learns nothing about discarded frames.
    pub fn rx_frame_at(&mut self, now_ns: u64, frame: Frame) -> RxOutcome {
        self.stats.rx_frames += 1;
        self.last_rx_chan = None;
        if self.faults.stalled_at(now_ns) {
            self.stats.stall_drops += 1;
            return RxOutcome::Dropped(NicDrop::Stalled);
        }
        let rxq = self.rx_queue_of(&frame);
        match self.mode {
            DemuxMode::None | DemuxMode::Soft => {
                // Dumb adaptor: DMA into the steered ring, interrupt per
                // frame (unless the coalescing window holds it back — the
                // frame then rides along with the next interrupt's ring
                // batch).
                if self.rx_rings[rxq].len() >= self.rx_ring_limit {
                    self.stats.ring_drops += 1;
                    return RxOutcome::Dropped(NicDrop::RingOverrun);
                }
                self.rx_rings[rxq].push_back(frame);
                if !self.intr_allowed(now_ns) {
                    self.stats.coalesced_intrs += 1;
                    return RxOutcome::Queued;
                }
                self.last_intr_ns = Some(now_ns);
                self.stats.interrupts += 1;
                RxOutcome::Interrupt(rxq)
            }
            DemuxMode::Ni => {
                let verdict = self.demux.classify(&frame);
                let chan = match verdict {
                    Verdict::Endpoint(c) => c,
                    Verdict::Fragment => self.fragment_channel,
                    // Proxy daemon channels must be registered by the host
                    // via `register_proxy`; unregistered protocols drop.
                    Verdict::IcmpDaemon => match self.proxy.icmp {
                        Some(c) => c,
                        None => {
                            self.stats.early_discards += 1;
                            return RxOutcome::Dropped(NicDrop::NoMatch);
                        }
                    },
                    Verdict::ArpDaemon => match self.proxy.arp {
                        Some(c) => c,
                        None => {
                            self.stats.early_discards += 1;
                            return RxOutcome::Dropped(NicDrop::NoMatch);
                        }
                    },
                    Verdict::Forward => match self.proxy.forward {
                        Some(c) => c,
                        None => {
                            self.stats.early_discards += 1;
                            return RxOutcome::Dropped(NicDrop::NoMatch);
                        }
                    },
                    Verdict::NoMatch => {
                        self.stats.early_discards += 1;
                        return RxOutcome::Dropped(NicDrop::NoMatch);
                    }
                    Verdict::Malformed => {
                        self.stats.early_discards += 1;
                        return RxOutcome::Dropped(NicDrop::Malformed);
                    }
                };
                if !self.channel_exists(chan) {
                    self.stats.early_discards += 1;
                    return RxOutcome::Dropped(NicDrop::NoMatch);
                }
                let ch = self.channels[chan.0 as usize].as_mut().expect("checked");
                let was_empty = ch.is_empty();
                if !ch.enqueue(frame) {
                    self.stats.early_discards += 1;
                    return RxOutcome::Dropped(NicDrop::ChannelFull);
                }
                self.last_rx_chan = Some(chan);
                if was_empty && ch.intr_requested {
                    ch.intr_requested = false;
                    self.last_intr_ns = Some(now_ns);
                    self.stats.interrupts += 1;
                    RxOutcome::Interrupt(rxq)
                } else {
                    RxOutcome::Queued
                }
            }
        }
    }

    /// Drains up to `max` frames from RX queue `rxq` into `out`,
    /// preserving arrival order (the driver's per-interrupt ring batch).
    /// `out` is a caller-owned scratch buffer so the hot path reuses its
    /// capacity instead of allocating.
    pub fn ring_drain_into(&mut self, rxq: usize, max: usize, out: &mut Vec<Frame>) {
        let ring = &mut self.rx_rings[rxq];
        let n = max.min(ring.len());
        out.extend(ring.drain(..n));
    }

    /// Frames currently waiting across all receive rings.
    pub fn ring_depth(&self) -> usize {
        self.rx_rings.iter().map(|r| r.len()).sum()
    }

    /// Enqueues a frame for transmission; returns false (counting a drop)
    /// if the interface queue is full.
    pub fn ifq_enqueue(&mut self, frame: Frame) -> bool {
        if self.ifq.len() >= self.ifq_limit {
            self.stats.ifq_drops += 1;
            return false;
        }
        self.ifq.push_back(frame);
        true
    }

    /// Takes the next frame for the link to transmit.
    pub fn ifq_dequeue(&mut self) -> Option<Frame> {
        let f = self.ifq.pop_front();
        if f.is_some() {
            self.stats.tx_frames += 1;
        }
        f
    }

    /// Discards every frame queued for transmission (whole-host reboot:
    /// power fails before the link takes them). Returns the count; unlike
    /// [`ifq_dequeue`](Self::ifq_dequeue) nothing is counted transmitted.
    pub fn ifq_clear(&mut self) -> usize {
        let n = self.ifq.len();
        self.ifq.clear();
        n
    }

    /// The channel the most recent [`Nic::rx_frame`] enqueued into, if any
    /// (NI mode). Lets the host's telemetry observe firmware-side channel
    /// placement without paying any modelled host cost.
    pub fn last_rx_channel(&self) -> Option<ChannelId> {
        self.last_rx_chan
    }

    /// Total frames queued across all live channels (telemetry: in-flight
    /// frames for the packet-conservation ledger).
    pub fn channel_depth_total(&self) -> usize {
        self.channels
            .iter()
            .filter_map(|c| c.as_ref().map(|c| c.depth()))
            .sum()
    }

    /// The deepest single live channel right now (telemetry gauge: a hot
    /// channel backing up shows here before the total does).
    pub fn channel_depth_max(&self) -> usize {
        self.channels
            .iter()
            .filter_map(|c| c.as_ref().map(|c| c.depth()))
            .max()
            .unwrap_or(0)
    }
}

/// Proxy-daemon channel registrations (§3.5).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyChannels {
    /// ICMP daemon channel.
    pub icmp: Option<ChannelId>,
    /// ARP daemon channel.
    pub arp: Option<ChannelId>,
    /// IP-forwarding daemon channel.
    pub forward: Option<ChannelId>,
}

impl Nic {
    /// Registers a proxy daemon channel for ICMP.
    pub fn set_icmp_proxy(&mut self, c: ChannelId) {
        self.proxy.icmp = Some(c);
    }

    /// Registers a proxy daemon channel for IP forwarding.
    pub fn set_forward_proxy(&mut self, c: ChannelId) {
        self.proxy.forward = Some(c);
    }

    /// Current proxy registrations.
    pub fn proxies(&self) -> ProxyChannels {
        self.proxy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_wire::{proto, udp, Endpoint, FlowKey};

    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn udp_frame(dport: u16) -> Frame {
        Frame::ipv4(udp::build_datagram(PEER, LOCAL, 5, dport, 1, b"hi", true))
    }

    #[test]
    fn bsd_mode_ring_and_interrupt() {
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        assert_eq!(nic.rx_frame(udp_frame(80)), RxOutcome::Interrupt(0));
        assert_eq!(nic.ring_depth(), 1);
        let mut batch = Vec::new();
        nic.ring_drain_into(0, 16, &mut batch);
        assert_eq!(batch.len(), 1);
        assert_eq!(nic.ring_depth(), 0);
        assert_eq!(nic.stats().interrupts, 1);
    }

    #[test]
    fn ring_drain_into_batches_in_arrival_order() {
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        for port in [1u16, 2, 3, 4] {
            nic.rx_frame(udp_frame(port));
        }
        assert_eq!(nic.ring_depth(), 4);
        let mut out = vec![udp_frame(99)]; // pre-existing contents survive
        nic.ring_drain_into(0, 3, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(nic.ring_depth(), 1, "only `max` frames drained");
        let ports: Vec<u16> = out
            .iter()
            .map(|f| {
                let (_, p) = lrp_wire::ipv4::parse(f.bytes()).unwrap();
                lrp_wire::udp::parse(p).unwrap().0.dst_port
            })
            .collect();
        assert_eq!(ports, [99, 1, 2, 3], "arrival order preserved");
        out.clear();
        nic.ring_drain_into(0, 16, &mut out);
        assert_eq!(out.len(), 1, "drain is bounded by ring depth");
    }

    #[test]
    fn ring_overrun_drops() {
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        nic.rx_ring_limit = 2;
        assert_eq!(nic.rx_frame(udp_frame(1)), RxOutcome::Interrupt(0));
        assert_eq!(nic.rx_frame(udp_frame(1)), RxOutcome::Interrupt(0));
        assert_eq!(
            nic.rx_frame(udp_frame(1)),
            RxOutcome::Dropped(NicDrop::RingOverrun)
        );
        assert_eq!(nic.stats().ring_drops, 1);
    }

    #[test]
    fn ni_mode_demux_to_channel() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let chan = nic.create_default_channel();
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                chan,
            )
            .unwrap();
        // No interrupt requested: frame queued silently.
        assert_eq!(nic.rx_frame(udp_frame(9000)), RxOutcome::Queued);
        assert_eq!(nic.channel(chan).depth(), 1);
        assert_eq!(nic.stats().interrupts, 0);
    }

    #[test]
    fn ni_mode_interrupt_on_empty_transition_only() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let chan = nic.create_default_channel();
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                chan,
            )
            .unwrap();
        nic.channel_mut(chan).intr_requested = true;
        assert_eq!(nic.rx_frame(udp_frame(9000)), RxOutcome::Interrupt(0));
        // Flag auto-clears; queue non-empty => no further interrupts.
        assert_eq!(nic.rx_frame(udp_frame(9000)), RxOutcome::Queued);
        assert_eq!(nic.stats().interrupts, 1);
    }

    #[test]
    fn ni_mode_early_discard_when_full() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let chan = nic.create_channel(2);
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                chan,
            )
            .unwrap();
        assert_eq!(nic.rx_frame(udp_frame(9000)), RxOutcome::Queued);
        assert_eq!(nic.rx_frame(udp_frame(9000)), RxOutcome::Queued);
        assert_eq!(
            nic.rx_frame(udp_frame(9000)),
            RxOutcome::Dropped(NicDrop::ChannelFull)
        );
        assert_eq!(nic.channel(chan).stats().dropped_full, 1);
        assert_eq!(nic.stats().early_discards, 1);
    }

    #[test]
    fn ni_mode_unmatched_discard() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        assert_eq!(
            nic.rx_frame(udp_frame(12345)),
            RxOutcome::Dropped(NicDrop::NoMatch)
        );
        // Malformed packets die on the NIC too.
        assert_eq!(
            nic.rx_frame(Frame::ipv4(vec![0u8; 5])),
            RxOutcome::Dropped(NicDrop::Malformed)
        );
        assert_eq!(nic.stats().early_discards, 2);
    }

    #[test]
    fn fragment_channel_receives_fragments() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let chan = nic.create_default_channel();
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                chan,
            )
            .unwrap();
        let seg = udp::build(PEER, LOCAL, 5, 9000, &[0u8; 3000], false);
        let frags = lrp_wire::ipv4::fragment(PEER, LOCAL, proto::UDP, 3, &seg, 1500);
        nic.rx_frame(Frame::ipv4(frags[1].clone()));
        assert_eq!(nic.channel(nic.fragment_channel).depth(), 1);
        nic.rx_frame(Frame::ipv4(frags[0].clone()));
        assert_eq!(nic.channel(chan).depth(), 1);
    }

    #[test]
    fn proxy_channels_route() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let icmp_chan = nic.create_default_channel();
        nic.set_icmp_proxy(icmp_chan);
        let pkt = lrp_wire::icmp::build_datagram(
            PEER,
            LOCAL,
            3,
            &lrp_wire::icmp::IcmpMessage {
                kind: lrp_wire::icmp::IcmpType::EchoRequest,
                ident: 1,
                seq: 1,
                payload: vec![],
            },
        );
        assert_eq!(nic.rx_frame(Frame::ipv4(pkt)), RxOutcome::Queued);
        assert_eq!(nic.channel(icmp_chan).depth(), 1);
    }

    #[test]
    fn channel_destroy_and_reuse() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let a = nic.create_default_channel();
        assert_eq!(nic.channel_count(), 2); // Fragment channel + a.
        nic.destroy_channel(a);
        assert!(!nic.channel_exists(a));
        assert_eq!(nic.channel_count(), 1);
        let b = nic.create_default_channel();
        assert_eq!(b, a, "slot reused");
    }

    #[test]
    fn ifq_limit_enforced() {
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        for _ in 0..DEFAULT_IFQ_LIMIT {
            assert!(nic.ifq_enqueue(udp_frame(1)));
        }
        assert!(!nic.ifq_enqueue(udp_frame(1)));
        assert_eq!(nic.stats().ifq_drops, 1);
        let mut n = 0;
        while nic.ifq_dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, DEFAULT_IFQ_LIMIT);
        assert_eq!(nic.stats().tx_frames, DEFAULT_IFQ_LIMIT as u64);
    }

    #[test]
    fn channel_stats_track_lifecycle() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let c = nic.create_channel(4);
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                c,
            )
            .unwrap();
        for _ in 0..6 {
            nic.rx_frame(udp_frame(9000));
        }
        let ch = nic.channel_mut(c);
        assert_eq!(ch.stats().enqueued, 4);
        assert_eq!(ch.stats().dropped_full, 2);
        assert_eq!(ch.stats().peak_depth, 4);
        assert!(ch.peek().is_some());
        let _ = ch.dequeue();
        assert_eq!(ch.stats().dequeued, 1);
        assert_eq!(ch.depth(), 3);
        assert_eq!(ch.limit(), 4);
    }

    #[test]
    fn last_rx_channel_tracks_ni_enqueue() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let chan = nic.create_default_channel();
        nic.demux
            .register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
                chan,
            )
            .unwrap();
        assert_eq!(nic.last_rx_channel(), None);
        nic.rx_frame(udp_frame(9000));
        assert_eq!(nic.last_rx_channel(), Some(chan));
        assert_eq!(nic.channel_depth_total(), 1);
        // A discarded frame clears the marker.
        nic.rx_frame(udp_frame(12345));
        assert_eq!(nic.last_rx_channel(), None);
    }

    #[test]
    fn processing_enabled_flag_defaults_true() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let c = nic.create_default_channel();
        assert!(nic.channel(c).processing_enabled);
        nic.channel_mut(c).processing_enabled = false;
        assert!(!nic.channel(c).processing_enabled);
    }

    #[test]
    #[should_panic]
    fn fragment_channel_cannot_be_destroyed() {
        let mut nic = Nic::new(DemuxMode::Ni, LOCAL, 8);
        let frag = nic.fragment_channel;
        nic.destroy_channel(frag);
    }

    #[test]
    fn stall_window_drops_in_every_mode() {
        for mode in [DemuxMode::None, DemuxMode::Soft, DemuxMode::Ni] {
            let mut nic = Nic::new(mode, LOCAL, 8);
            nic.set_faults(NicFaultPlan {
                stall_ns: vec![(1_000, 2_000)],
                coalesce_ns: 0,
            });
            assert_ne!(
                nic.rx_frame_at(500, udp_frame(9000)),
                RxOutcome::Dropped(NicDrop::Stalled)
            );
            assert_eq!(
                nic.rx_frame_at(1_500, udp_frame(9000)),
                RxOutcome::Dropped(NicDrop::Stalled)
            );
            // End boundary is exclusive.
            assert_ne!(
                nic.rx_frame_at(2_000, udp_frame(9000)),
                RxOutcome::Dropped(NicDrop::Stalled)
            );
            assert_eq!(nic.stats().stall_drops, 1, "{mode:?}");
            assert_eq!(nic.stats().rx_frames, 3, "stalled frames still count");
        }
    }

    #[test]
    fn coalescing_suppresses_interrupts_but_keeps_frames() {
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        nic.set_faults(NicFaultPlan {
            stall_ns: vec![],
            coalesce_ns: 1_000,
        });
        assert_eq!(nic.rx_frame_at(0, udp_frame(1)), RxOutcome::Interrupt(0));
        // Inside the window: queued silently, ring keeps the frame.
        assert_eq!(nic.rx_frame_at(400, udp_frame(1)), RxOutcome::Queued);
        assert_eq!(nic.rx_frame_at(900, udp_frame(1)), RxOutcome::Queued);
        // Window over: next frame raises again.
        assert_eq!(
            nic.rx_frame_at(1_000, udp_frame(1)),
            RxOutcome::Interrupt(0)
        );
        assert_eq!(nic.ring_depth(), 4);
        assert_eq!(nic.stats().interrupts, 2);
        assert_eq!(nic.stats().coalesced_intrs, 2);
    }

    #[test]
    fn inert_nic_fault_plan_changes_nothing() {
        assert!(NicFaultPlan::none().is_none());
        let mut nic = Nic::new(DemuxMode::None, LOCAL, 8);
        nic.set_faults(NicFaultPlan::none());
        assert_eq!(nic.rx_frame_at(0, udp_frame(1)), RxOutcome::Interrupt(0));
        assert_eq!(nic.rx_frame_at(1, udp_frame(1)), RxOutcome::Interrupt(0));
        assert_eq!(nic.stats().coalesced_intrs, 0);
        assert_eq!(nic.stats().stall_drops, 0);
    }
}
