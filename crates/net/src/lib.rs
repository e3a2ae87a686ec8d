//! The network fabric: ATM-like links and rate-controlled packet
//! injectors.
//!
//! The paper's testbed is a 155 Mbit/s ATM LAN. A [`TxLink`] models one
//! direction of a host's link: serialization at the configured bandwidth
//! with the ATM cell tax (48 payload bytes per 53-byte cell) and AAL5
//! framing overhead, plus propagation/switch latency. Aggregate
//! rate-limiting at the switch is not modelled — the paper's workloads
//! never exceed the receiver's link rate (20 000 small packets/s is about
//! 10 Mbit/s).
//!
//! An [`Injector`] is the equivalent of the paper's in-kernel packet
//! source: it emits crafted frames at a precise rate (fixed-interval or
//! Poisson), used to generate offered loads beyond what a simulated sender
//! host could produce through its own stack.
//!
//! The [`fault`] module injects deterministic adversity (loss, corruption,
//! duplication, reordering, link pauses) at delivery time.

#![warn(missing_docs)]

pub mod fault;

pub use fault::{FaultPlan, FaultStats, LinkFaults, LossModel};

use lrp_sim::{SimDuration, SimTime, SplitMix64};
use lrp_wire::Frame;

/// Configuration of one link direction.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Raw signalling rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation plus switch latency.
    pub latency: SimDuration,
    /// Per-cell payload bytes (ATM: 48 of 53).
    pub cell_payload: usize,
    /// Per-cell total bytes on the wire.
    pub cell_size: usize,
    /// Fixed per-frame overhead before cell division (AAL5 trailer + LLC).
    pub frame_overhead: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 155_520_000,
            // One-way latency: ATM switch plus the SBA-200's cell
            // segmentation/reassembly pipeline, which dominated
            // small-message latency on the paper's platform.
            latency: SimDuration::from_micros(280),
            cell_payload: 48,
            cell_size: 53,
            frame_overhead: 16,
        }
    }
}

impl LinkConfig {
    /// Time to serialize a frame of `len` payload bytes.
    pub fn tx_time(&self, len: usize) -> SimDuration {
        let padded = len + self.frame_overhead;
        let cells = padded.div_ceil(self.cell_payload).max(1);
        let wire_bits = (cells * self.cell_size * 8) as u64;
        SimDuration::from_nanos(wire_bits.saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Effective goodput in bits/s for frames of `len` bytes.
    pub fn goodput_bps(&self, len: usize) -> f64 {
        let t = self.tx_time(len).as_secs_f64();
        (len * 8) as f64 / t
    }
}

/// One direction of a host's link: FIFO serialization then delivery.
#[derive(Debug)]
pub struct TxLink {
    cfg: LinkConfig,
    busy_until: SimTime,
    /// Frames transmitted.
    pub tx_count: u64,
    /// Bytes transmitted (payload).
    pub tx_bytes: u64,
}

impl TxLink {
    /// Creates an idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        TxLink {
            cfg,
            busy_until: SimTime::ZERO,
            tx_count: 0,
            tx_bytes: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// True if the transmitter is idle at `now` (the NIC can start a new
    /// frame).
    pub fn idle_at(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// Accepts a frame for transmission at `now` (must be idle — the NIC
    /// holds frames in its interface queue until then) and returns
    /// `(tx_done, arrival)`: when the transmitter frees up and when the
    /// frame arrives at the destination.
    ///
    /// # Panics
    ///
    /// Panics if the link is still busy at `now`.
    pub fn transmit(&mut self, now: SimTime, frame: &Frame) -> (SimTime, SimTime) {
        assert!(self.idle_at(now), "transmit on busy link");
        let t = self.cfg.tx_time(frame.len());
        self.busy_until = now + t;
        self.tx_count += 1;
        self.tx_bytes += frame.len() as u64;
        (self.busy_until, self.busy_until + self.cfg.latency)
    }
}

/// Arrival pattern for an injector.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// Exactly `pps` packets/second at fixed intervals.
    FixedRate {
        /// Packets per second.
        pps: f64,
    },
    /// Poisson arrivals with mean rate `pps`.
    Poisson {
        /// Mean packets per second.
        pps: f64,
    },
}

/// A rate-controlled packet source (the paper's in-kernel packet source).
///
/// The caller drives it: [`Injector::next_fire`] yields the next emission
/// time; [`Injector::fire`] produces the frame.
pub struct Injector {
    pattern: Pattern,
    builder: Box<dyn FnMut(u64) -> Frame>,
    rng: SplitMix64,
    next_at: SimTime,
    seq: u64,
    /// Stop emitting at this time (exclusive). `SimTime::NEVER` = forever.
    pub until: SimTime,
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("pattern", &self.pattern)
            .field("seq", &self.seq)
            .field("next_at", &self.next_at)
            .finish()
    }
}

impl Injector {
    /// Creates an injector starting at `start`; `builder` is called with a
    /// sequence number to produce each frame.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn new(
        pattern: Pattern,
        start: SimTime,
        seed: u64,
        builder: impl FnMut(u64) -> Frame + 'static,
    ) -> Self {
        let pps = match pattern {
            Pattern::FixedRate { pps } | Pattern::Poisson { pps } => pps,
        };
        assert!(pps > 0.0, "injector rate must be positive");
        Injector {
            pattern,
            builder: Box::new(builder),
            rng: SplitMix64::new(seed),
            next_at: start,
            seq: 0,
            until: SimTime::NEVER,
        }
    }

    /// Stops emission at `until` (exclusive). Builder-style.
    #[must_use]
    pub fn stop_at(mut self, until: SimTime) -> Self {
        self.until = until;
        self
    }

    /// Number of frames emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// The time of the next emission, or `None` if past `until`.
    pub fn next_fire(&self) -> Option<SimTime> {
        (self.next_at < self.until).then_some(self.next_at)
    }

    /// Emits the frame due at `next_fire` and advances the schedule.
    pub fn fire(&mut self) -> Frame {
        let frame = (self.builder)(self.seq);
        self.seq += 1;
        let gap = match self.pattern {
            Pattern::FixedRate { pps } => SimDuration::from_secs_f64(1.0 / pps),
            Pattern::Poisson { pps } => SimDuration::from_secs_f64(self.rng.next_exp(1.0 / pps)),
        };
        // Guarantee progress even if an exponential sample rounds to zero.
        self.next_at += gap.max(SimDuration::from_nanos(1));
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atm_cell_tax() {
        let cfg = LinkConfig::default();
        // A 48-byte payload + 16 overhead = 64 bytes = 2 cells = 106 wire
        // bytes at 155.52 Mb/s.
        let t = cfg.tx_time(48);
        let expect = (106 * 8) as f64 / 155_520_000.0;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9, "{t}");
    }

    #[test]
    fn goodput_less_than_line_rate() {
        let cfg = LinkConfig::default();
        let g = cfg.goodput_bps(9180);
        assert!(g < 155_520_000.0 * 48.0 / 53.0);
        assert!(g > 120_000_000.0, "large frames approach line rate: {g}");
    }

    #[test]
    fn link_serializes_fifo() {
        let cfg = LinkConfig::default();
        let mut link = TxLink::new(cfg);
        let f = Frame::ipv4(vec![0; 1000]);
        assert!(link.idle_at(SimTime::ZERO));
        let (done, arrival) = link.transmit(SimTime::ZERO, &f);
        assert!(done > SimTime::ZERO);
        assert_eq!(arrival, done + cfg.latency);
        assert!(!link.idle_at(SimTime::ZERO));
        assert!(link.idle_at(done));
        assert_eq!(link.tx_count, 1);
        assert_eq!(link.tx_bytes, 1000);
    }

    #[test]
    #[should_panic]
    fn transmit_on_busy_link_panics() {
        let mut link = TxLink::new(LinkConfig::default());
        let f = Frame::ipv4(vec![0; 1000]);
        link.transmit(SimTime::ZERO, &f);
        link.transmit(SimTime::ZERO, &f);
    }

    #[test]
    fn fixed_rate_injector_precise() {
        let mut inj = Injector::new(
            Pattern::FixedRate { pps: 10_000.0 },
            SimTime::ZERO,
            1,
            |_| Frame::ipv4(vec![0; 14]),
        );
        let mut last = None;
        for _ in 0..100 {
            let t = inj.next_fire().unwrap();
            let _ = inj.fire();
            if let Some(prev) = last {
                let gap = t.since(prev);
                assert_eq!(gap, SimDuration::from_micros(100));
            }
            last = Some(t);
        }
        assert_eq!(inj.emitted(), 100);
    }

    #[test]
    fn poisson_injector_mean_rate() {
        let mut inj = Injector::new(Pattern::Poisson { pps: 5_000.0 }, SimTime::ZERO, 2, |_| {
            Frame::ipv4(vec![0; 14])
        });
        let mut t = SimTime::ZERO;
        let n = 50_000;
        for _ in 0..n {
            t = inj.next_fire().unwrap();
            let _ = inj.fire();
        }
        let rate = n as f64 / t.as_secs_f64();
        assert!((rate - 5_000.0).abs() < 150.0, "rate was {rate}");
    }

    #[test]
    fn injector_stops_at_until() {
        let mut inj = Injector::new(Pattern::FixedRate { pps: 1000.0 }, SimTime::ZERO, 3, |_| {
            Frame::ipv4(vec![0; 14])
        });
        inj.until = SimTime::from_millis(10);
        let mut count = 0;
        while inj.next_fire().is_some() {
            let _ = inj.fire();
            count += 1;
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn builder_sees_sequence() {
        let mut inj = Injector::new(
            Pattern::FixedRate { pps: 1000.0 },
            SimTime::ZERO,
            4,
            |seq| Frame::ipv4(vec![seq as u8; 14]),
        );
        let _ = inj.fire();
        let f = inj.fire();
        assert_eq!(f.bytes()[0], 1);
    }
}
