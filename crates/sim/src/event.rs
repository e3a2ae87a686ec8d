//! The event queue at the heart of the simulation.
//!
//! [`EventQueue`](crate::EventQueue) is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with ties broken by insertion order (FIFO). Every scheduled event
//! gets an [`EventKey`] that can be used to cancel it later — cancellation
//! is how the CPU model revokes a "work completes at T" event when an
//! interrupt preempts the work.
//!
//! The queue is a hierarchical timer wheel (see [`crate::wheel`]) with
//! O(1) schedule and a cancel that *removes* the entry, so cancelled
//! timers cost nothing afterwards.

use crate::time::SimTime;

/// A handle identifying one scheduled event, usable for cancellation.
///
/// Carries the event's sequence number and due time; the queue
/// recomputes the entry's slot from the time, which is what makes its
/// cancel O(1) without a per-entry index map.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    seq: u64,
    time: SimTime,
}

impl EventKey {
    pub(crate) fn new(seq: u64, time: SimTime) -> Self {
        EventKey { seq, time }
    }

    pub(crate) fn seq(self) -> u64 {
        self.seq
    }

    pub(crate) fn time(self) -> SimTime {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use crate::time::{SimDuration, SimTime};
    use crate::EventQueue;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q: EventQueue<i32> = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        let k1 = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double cancel must fail");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_fails() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        let k = q.schedule(t(10), "a");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert!(!q.cancel(k));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        let k = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q: EventQueue<i32> = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        let _b = q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule(t(10), 1);
        let (now, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.schedule(now + SimDuration::from_micros(5), 2);
        q.schedule(now + SimDuration::from_micros(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    /// The lazy-cancel bloat regression: schedule and cancel 100k timers
    /// (the TCP rexmt churn pattern) and require the physical size to
    /// stay bounded by the live population, not the churn count.
    #[test]
    fn cancel_churn_keeps_internal_size_bounded() {
        let mut q: EventQueue<i32> = EventQueue::new();
        // A small stable population, like a host's standing timers.
        for i in 0..8 {
            q.schedule(t(1_000_000 + i as u64), i);
        }
        for i in 0..100_000u64 {
            let k = q.schedule(t(100 + (i % 50)), 42);
            assert!(q.cancel(k));
            assert_eq!(q.len(), 8);
            assert!(
                q.internal_len() <= 2 * q.len() + 64,
                "internal size {} ballooned past bound at churn {}",
                q.internal_len(),
                i
            );
        }
        // Everything still pops, in order.
        for i in 0..8 {
            assert_eq!(q.pop(), Some((t(1_000_000 + i as u64), i)));
        }
        assert_eq!(q.pop(), None);
    }
}
