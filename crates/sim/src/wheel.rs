//! Hierarchical timer wheel: the [`EventQueue`] implementation.
//!
//! Seven levels of 64 slots each, with slot width growing by 64× per
//! level (level 0 is 1 ns per slot), cover ~73 simulated minutes of
//! lookahead; anything further sits in a sorted **overflow level** that
//! cascades into the near wheels as the cursor advances. Schedule and
//! cancel are O(1) amortized and cancellation *removes* the entry — no
//! dead weight survives timer churn.
//!
//! Determinism contract: pops come out in `(time, seq)` order — earliest
//! time first, FIFO among equal times. The property test
//! `event_queue_matches_reference` in `tests/prop.rs` drives the queue
//! with random schedule/cancel/pop interleavings and checks its pops,
//! peeks and lengths against a naive sorted reference.
//!
//! Placement uses the classic XOR rule: an entry due at `T` lives at the
//! level of the highest 6-bit group in which `T` differs from the wheel
//! cursor (`elapsed`), in slot `(T >> 6·level) & 63`. This keeps an
//! entry's location a pure function of `(elapsed, T)`, so `cancel` can
//! recompute it from the time stored in the [`EventKey`] instead of
//! maintaining a per-entry index map on the hot path.

use std::collections::{BTreeMap, VecDeque};

use crate::event::EventKey;
use crate::time::SimTime;

/// Slots per level (64 = one 6-bit group of the time).
const SLOTS: usize = 64;
/// Bits per level.
const BITS: u32 = 6;
/// Wheel levels; beyond `64^LEVELS` ns of lookahead entries overflow.
const LEVELS: usize = 7;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// One level: 64 slot buckets. Occupancy bitmaps live in a packed
/// array on the wheel itself so the per-pop level scan reads one cache
/// line instead of seven ~1.5 KB-apart ones.
struct Level<E> {
    slots: [Vec<Entry<E>>; SLOTS],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A deterministic discrete-event queue backed by a hierarchical timer
/// wheel.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which keeps multi-component simulations reproducible.
pub struct EventQueue<E> {
    /// Per-level occupancy bitmaps: bit i set = slot i non-empty, so
    /// finding the next occupied slot is a mask + trailing-zero count.
    occupied: [u64; LEVELS],
    levels: Vec<Level<E>>,
    /// Entries beyond the wheel horizon, ordered by `(time, seq)`.
    overflow: BTreeMap<(u64, u64), E>,
    /// Due entries in pop order: the drained earliest slot, sorted.
    ready: VecDeque<Entry<E>>,
    /// The wheel cursor: all entries still stored have `time >= elapsed`
    /// (entries scheduled in the past are clamped into `ready`).
    elapsed: u64,
    next_seq: u64,
    len: usize,
    /// Reusable drain buffer: slot `Vec`s are swapped through it so
    /// their capacity survives instead of being reallocated per drain.
    scratch: Vec<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The level an entry due at `when` occupies with the cursor at
/// `elapsed`: the highest 6-bit group where they differ. `LEVELS` means
/// overflow.
#[inline]
fn level_for(elapsed: u64, when: u64) -> usize {
    let masked = elapsed ^ when;
    if masked == 0 {
        return 0;
    }
    let sig = 63 - masked.leading_zeros();
    ((sig / BITS) as usize).min(LEVELS)
}

#[inline]
fn slot_of(when: u64, level: usize) -> usize {
    ((when >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// The absolute start time of `slot` at `level`, relative to the
/// cursor's position (higher groups are taken from `elapsed`).
#[inline]
fn slot_start(elapsed: u64, level: usize, slot: usize) -> u64 {
    let shift = BITS * level as u32;
    let block = 1u64 << (shift + BITS); // width of the whole level
    (elapsed & !(block - 1)) | ((slot as u64) << shift)
}

impl<E> EventQueue<E> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        EventQueue {
            occupied: [0; LEVELS],
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BTreeMap::new(),
            ready: VecDeque::new(),
            elapsed: 0,
            next_seq: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules `event` at absolute `time`; returns its cancellation key.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = EventKey::new(seq, time);
        let t = time.as_nanos();
        // Entries at or before the cursor — or interleaving with already
        // drained-but-unpopped entries — go straight into the sorted
        // ready buffer so `(time, seq)` pop order is preserved.
        let into_ready = t <= self.elapsed
            || self
                .ready
                .back()
                .is_some_and(|b| t < b.time.as_nanos() || t == b.time.as_nanos());
        if into_ready {
            let entry = Entry { time, seq, event };
            // Find the insertion point from the back: almost always the
            // end (same-time FIFO), occasionally a few steps in.
            let mut i = self.ready.len();
            while i > 0 && self.ready[i - 1].time > time {
                i -= 1;
            }
            self.ready.insert(i, entry);
        } else {
            self.insert(Entry { time, seq, event });
        }
        self.len += 1;
        key
    }

    /// Places an entry into the wheel proper (or overflow). Caller
    /// guarantees `time > elapsed` and no ready-buffer interleaving.
    fn insert(&mut self, entry: Entry<E>) {
        let t = entry.time.as_nanos();
        let level = level_for(self.elapsed, t);
        if level >= LEVELS {
            self.overflow.insert((t, entry.seq), entry.event);
            return;
        }
        let slot = slot_of(t, level);
        self.levels[level].slots[slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancels a scheduled entry, removing it outright. Returns `true`
    /// if it was still pending.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let (seq, time) = (key.seq(), key.time());
        let t = time.as_nanos();
        // Overflow first: an entry may still sit there even if the
        // cursor has since advanced to within wheel range of it.
        if self.overflow.remove(&(t, seq)).is_some() {
            self.len -= 1;
            return true;
        }
        if t > self.elapsed {
            let level = level_for(self.elapsed, t);
            if level < LEVELS {
                let slot = slot_of(t, level);
                let bucket = &mut self.levels[level].slots[slot];
                if let Some(i) = bucket.iter().position(|e| e.seq == seq) {
                    bucket.swap_remove(i);
                    if bucket.is_empty() {
                        self.occupied[level] &= !(1 << slot);
                    }
                    self.len -= 1;
                    return true;
                }
            }
        }
        // Already drained into the ready buffer (or clamped there).
        if let Some(i) = self.ready.iter().position(|e| e.seq == seq) {
            self.ready.remove(i);
            self.len -= 1;
            return true;
        }
        false
    }

    /// First occupied slot at `level` at or after the cursor's position,
    /// if any. The XOR placement invariant guarantees no occupied slot
    /// precedes the cursor within a level.
    #[inline]
    fn next_slot(&self, level: usize) -> Option<usize> {
        let cur = slot_of(self.elapsed, level);
        let masked = self.occupied[level] & (!0u64 << cur);
        (masked != 0).then(|| masked.trailing_zeros() as usize)
    }

    /// Moves overflow entries that now fit the wheel into it.
    fn migrate_overflow(&mut self) {
        while let Some((&(t, _), _)) = self.overflow.first_key_value() {
            if level_for(self.elapsed, t) >= LEVELS {
                break;
            }
            let ((t, seq), event) = self.overflow.pop_first().expect("checked");
            self.insert(Entry {
                time: SimTime::from_nanos(t),
                seq,
                event,
            });
        }
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::NEVER)
    }

    /// Removes and returns the earliest pending entry if it is due at or
    /// before `limit` — one scan instead of a peek/pop pair. The common
    /// case (one entry in the due slot, empty ready buffer) pops straight
    /// out of the slot without a buffer round-trip.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if let Some(front) = self.ready.front() {
            if front.time > limit {
                return None;
            }
            let e = self.ready.pop_front().expect("checked");
            self.len -= 1;
            return Some((e.time, e.event));
        }
        loop {
            self.migrate_overflow();
            // Lowest non-empty level holds the earliest wheel entry.
            let Some(level) = self.occupied.iter().position(|&o| o != 0) else {
                // Wheel empty: jump the cursor to the far future — unless
                // even the nearest overflow entry is past the limit.
                let (&(t, _), _) = self.overflow.first_key_value()?;
                if SimTime::from_nanos(t) > limit {
                    return None;
                }
                self.elapsed = t;
                continue;
            };
            let slot = self.next_slot(level).expect("level occupied");
            let start = slot_start(self.elapsed, level, slot);
            // Every entry in the earliest slot is at or after its start;
            // if even that is past the limit, nothing is due.
            if SimTime::from_nanos(start) > limit {
                return None;
            }
            self.elapsed = start;
            if level == 0 {
                let bucket = &mut self.levels[0].slots[slot];
                if bucket.len() == 1 {
                    // Fast path: the due slot holds exactly one entry.
                    let e = bucket.pop().expect("len checked");
                    self.occupied[0] &= !(1 << slot);
                    if e.time > limit {
                        // Not due yet: park it in the (empty) ready
                        // buffer rather than un-draining the slot.
                        self.ready.push_back(e);
                        return None;
                    }
                    self.len -= 1;
                    return Some((e.time, e.event));
                }
                // Swap the slot through the scratch buffer so Vec
                // capacity is recycled instead of reallocated per drain.
                std::mem::swap(&mut self.scratch, bucket);
                self.occupied[0] &= !(1 << slot);
                // Due: order by (time, seq). Times only differ here when
                // past-clamped entries were folded in.
                self.scratch.sort_unstable_by_key(|e| (e.time, e.seq));
                self.ready.extend(self.scratch.drain(..));
                let front = self.ready.front().expect("slot was occupied");
                if front.time > limit {
                    return None;
                }
                let e = self.ready.pop_front().expect("checked");
                self.len -= 1;
                return Some((e.time, e.event));
            }
            // Cascade one slot down toward level 0, putting the buffer
            // back afterwards so its capacity survives.
            std::mem::swap(&mut self.scratch, &mut self.levels[level].slots[slot]);
            self.occupied[level] &= !(1 << slot);
            let mut entries = std::mem::take(&mut self.scratch);
            for e in entries.drain(..) {
                self.insert(e);
            }
            self.scratch = entries;
        }
    }

    /// The earliest pending time, without removing anything.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        let mut consider = |t: SimTime| match best {
            Some(b) if b <= t => {}
            _ => best = Some(t),
        };
        if let Some(e) = self.ready.front() {
            // Sorted: the front is the buffer minimum, and everything in
            // the wheel is later than the drained slot.
            return Some(e.time);
        }
        if let Some((&(t, _), _)) = self.overflow.first_key_value() {
            consider(SimTime::from_nanos(t));
        }
        if let Some(level) = self.occupied.iter().position(|&o| o != 0) {
            if let Some(slot) = self.next_slot(level) {
                for e in &self.levels[level].slots[slot] {
                    consider(e.time);
                }
            }
        }
        best
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries physically stored (slots + ready + overflow). Equals
    /// [`Self::len`] because cancellation removes entries — the
    /// schedule+cancel churn test pins this.
    pub fn internal_len(&self) -> usize {
        let in_slots: usize = self
            .levels
            .iter()
            .map(|l| l.slots.iter().map(Vec::len).sum::<usize>())
            .sum();
        in_slots + self.ready.len() + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn level_placement() {
        assert_eq!(level_for(0, 0), 0);
        assert_eq!(level_for(0, 63), 0);
        assert_eq!(level_for(0, 64), 1);
        assert_eq!(level_for(0, 64 * 64 - 1), 1);
        assert_eq!(level_for(0, 64 * 64), 2);
        assert_eq!(level_for(100, 100), 0);
        // Same 64-block: level 0 regardless of cursor.
        assert_eq!(level_for(130, 131), 0);
        // Far future: overflow.
        assert_eq!(level_for(0, u64::MAX), LEVELS);
    }

    #[test]
    fn pops_across_levels_in_order() {
        let mut w = EventQueue::new();
        // One entry per level, plus overflow.
        let times = [
            5u64,
            70,
            5000,
            300_000,
            20_000_000,
            1 << 33,
            1 << 40,
            1 << 45,
        ];
        for (i, &ns) in times.iter().enumerate() {
            w.schedule(t(ns), i);
        }
        for (i, &ns) in times.iter().enumerate() {
            assert_eq!(w.pop(), Some((t(ns), i)), "entry {i}");
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn same_time_fifo_across_placement_paths() {
        let mut w = EventQueue::new();
        // Entry placed at level 1 that will cascade into the same level-0
        // slot as a directly placed one — FIFO by seq must survive.
        w.schedule(t(100), "first"); // seq 0
        w.schedule(t(40), "early"); // seq 1
        assert_eq!(w.pop(), Some((t(40), "early")));
        // Cursor has advanced; 100 is now level-0-close.
        w.schedule(t(100), "second"); // seq 2
        assert_eq!(w.pop(), Some((t(100), "first")));
        assert_eq!(w.pop(), Some((t(100), "second")));
    }

    #[test]
    fn past_schedule_pops_first() {
        let mut w = EventQueue::new();
        w.schedule(t(1000), "late");
        assert_eq!(w.pop(), Some((t(1000), "late")));
        // Cursor is near 1000 now; schedule into the past.
        w.schedule(t(2000), "future");
        w.schedule(t(50), "past");
        assert_eq!(w.pop(), Some((t(50), "past")));
        assert_eq!(w.pop(), Some((t(2000), "future")));
    }

    #[test]
    fn cancel_removes_from_every_region() {
        let mut w = EventQueue::new();
        let near = w.schedule(t(10), "near");
        let mid = w.schedule(t(100_000), "mid");
        let far = w.schedule(t(1 << 50), "far");
        assert_eq!(w.len(), 3);
        assert!(w.cancel(mid));
        assert!(w.cancel(far));
        assert!(!w.cancel(far), "double cancel fails");
        assert_eq!(w.internal_len(), 1);
        assert!(w.cancel(near));
        assert_eq!(w.internal_len(), 0);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_in_ready_buffer() {
        let mut w = EventQueue::new();
        let a = w.schedule(t(5), 1);
        let b = w.schedule(t(5), 2);
        let _ = a;
        // Drain the slot via peek+pop of the first, then cancel the
        // second while it sits in the ready buffer.
        assert_eq!(w.pop(), Some((t(5), 1)));
        assert!(w.cancel(b));
        assert_eq!(w.pop(), None);
        assert_eq!(w.internal_len(), 0);
    }

    #[test]
    fn overflow_cascades_in() {
        let mut w = EventQueue::new();
        let horizon = 1u64 << 42; // 64^7 = 2^42
        w.schedule(t(horizon + 500), "far");
        // Nothing near: pop jumps the cursor and cascades overflow in.
        assert_eq!(w.pop(), Some((t(horizon + 500), "far")));
        // Now schedule near the new cursor.
        w.schedule(t(horizon + 600), "near");
        assert_eq!(w.peek_time(), Some(t(horizon + 600)));
        assert_eq!(w.pop(), Some((t(horizon + 600), "near")));
    }

    #[test]
    fn cancel_overflow_entry_after_cursor_advances() {
        let mut w = EventQueue::new();
        let far = w.schedule(t((1 << 42) + 77), "far");
        w.schedule(t(10), "near");
        assert_eq!(w.pop(), Some((t(10), "near")));
        // The far entry is still in overflow though it would now fit the
        // wheel only after more cursor movement; cancel must find it.
        assert!(w.cancel(far));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = EventQueue::new();
        for ns in [9u64, 3, 77, 3, 4096, 1 << 43] {
            w.schedule(t(ns), ns);
        }
        while let Some(pt) = w.peek_time() {
            let (at, _) = w.pop().expect("peeked");
            assert_eq!(pt, at);
        }
        assert!(w.is_empty());
    }
}
