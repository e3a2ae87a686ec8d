//! Arena-backed frame storage: a freelist pool of reference-counted
//! byte buffers with generation-checked handles.
//!
//! The simulator's hot path used to allocate (and free) one `Vec` per
//! frame per hop. [`FrameArena`] recycles both halves of a frame's
//! storage — the byte vector *and* the `Rc` box around it — so
//! steady-state frame traffic does no allocator work at all. Every
//! checkout is tagged with a [`BufHandle`] — a `(slot, generation)`
//! pair validated when the buffer returns — which turns double-return
//! and stale-handle bugs into loud panics instead of silent corruption.
//!
//! The arena is single-threaded (`Rc<RefCell>`), like the rest of the
//! simulator, and holds no back-pointers: a checked-out
//! `Rc<PooledBuf>` is plain data, so the `RefCell` is touched only at
//! checkout/return time, never on the data path. The owner of the
//! thread-local arena ([`crate::FrameBuf`]) is responsible for calling
//! [`FrameArena::reclaim`] when a buffer's last reference drops.

use std::cell::RefCell;
use std::rc::Rc;

/// Returned buffers kept for reuse, per arena. Beyond this the storage
/// is simply dropped — a bound, not a limit.
const MAX_CACHED: usize = 1024;

/// Identity of one checked-out buffer: which slot it came from and the
/// slot's generation at checkout. Returning with a stale generation
/// (double return, forged handle) panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufHandle {
    slot: u32,
    gen: u32,
}

impl BufHandle {
    /// The slot id (for tests).
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// The generation at checkout (for tests).
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// Per-arena counters, for tests and the bench report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out.
    pub checkouts: u64,
    /// Checkouts whose `Rc` box came from the recycle cache.
    pub reuses: u64,
    /// Checkouts that had to allocate a fresh `Rc` box.
    pub fresh_allocs: u64,
    /// Buffers returned to the arena.
    pub returns: u64,
    /// Buffers currently checked out.
    pub live: usize,
    /// Recycled `Rc` boxes currently cached.
    pub cached: usize,
}

/// An arena-owned byte buffer: storage plus its checkout identity.
///
/// Plain data — no destructor, no arena pointer. Wrap it in `Rc` for
/// sharing; hand the `Rc` back via [`FrameArena::reclaim`] when done.
#[derive(Debug)]
pub struct PooledBuf {
    storage: Vec<u8>,
    handle: BufHandle,
}

impl PooledBuf {
    /// The buffer contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.storage
    }

    /// Mutable access to the underlying vector.
    #[inline]
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.storage
    }

    /// The buffer's arena identity.
    pub fn handle(&self) -> BufHandle {
        self.handle
    }
}

#[derive(Debug, Default)]
struct ArenaInner {
    /// Generation per slot id; bumped on every return.
    generations: Vec<u32>,
    /// Slot ids not currently associated with a live buffer.
    free_slots: Vec<u32>,
    /// Recycled raw storage (builder scratch), ready to hand out.
    raw_cache: Vec<Vec<u8>>,
    /// Recycled `Rc` boxes (strong count 1), ready to wrap new bytes.
    rc_cache: Vec<Rc<PooledBuf>>,
    /// When false, returned storage is dropped and checkouts always
    /// allocate (see [`FrameArena::set_recycling`]).
    recycle: bool,
    stats: ArenaStats,
}

impl ArenaInner {
    fn claim_slot(&mut self) -> BufHandle {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.generations.len()).expect("arena slot overflow");
                self.generations.push(0);
                s
            }
        };
        self.stats.checkouts += 1;
        self.stats.live += 1;
        BufHandle {
            slot,
            gen: self.generations[slot as usize],
        }
    }

    /// Validates the handle against the slot's generation and retires it.
    fn retire(&mut self, handle: BufHandle) {
        let gen = &mut self.generations[handle.slot as usize];
        assert_eq!(
            *gen, handle.gen,
            "stale or double buffer return (slot {})",
            handle.slot
        );
        *gen = gen.wrapping_add(1);
        self.free_slots.push(handle.slot);
        self.stats.returns += 1;
        self.stats.live -= 1;
    }

    fn take_storage(&mut self, capacity: usize) -> Vec<u8> {
        if let Some(mut v) = self.raw_cache.pop() {
            v.clear();
            if v.capacity() < capacity {
                v.reserve(capacity - v.len());
            }
            v
        } else {
            Vec::with_capacity(capacity)
        }
    }

    fn give_storage(&mut self, storage: Vec<u8>) {
        if self.recycle && self.raw_cache.len() < MAX_CACHED {
            self.raw_cache.push(storage);
        }
    }
}

/// A freelist arena of reusable frame buffers.
///
/// Cloning the handle shares the same underlying arena.
#[derive(Clone, Debug, Default)]
pub struct FrameArena {
    inner: Rc<RefCell<ArenaInner>>,
}

impl FrameArena {
    /// Creates an empty arena with recycling enabled.
    pub fn new() -> Self {
        let arena = FrameArena::default();
        arena.inner.borrow_mut().recycle = true;
        arena
    }

    /// Turns storage recycling on or off. Off means every checkout
    /// allocates and every return frees, and drops the cached storage:
    /// tests use it to show pooling changes no result, benchmarks to
    /// start from an empty cache.
    pub fn set_recycling(&self, on: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.recycle = on;
        if !on {
            inner.raw_cache.clear();
            inner.rc_cache.clear();
            inner.stats.cached = 0;
        }
    }

    /// Wraps a byte vector in an arena-tracked shared buffer without
    /// copying it. Reuses a cached `Rc` box when one is available, so in
    /// steady state this allocates nothing.
    pub fn adopt(&self, storage: Vec<u8>) -> Rc<PooledBuf> {
        let mut inner = self.inner.borrow_mut();
        let handle = inner.claim_slot();
        match inner.rc_cache.pop() {
            Some(mut rc) => {
                inner.stats.reuses += 1;
                inner.stats.cached = inner.rc_cache.len();
                let buf = Rc::get_mut(&mut rc).expect("cached Rc is unique");
                let old = std::mem::replace(&mut buf.storage, storage);
                buf.handle = handle;
                inner.give_storage(old);
                rc
            }
            None => {
                inner.stats.fresh_allocs += 1;
                Rc::new(PooledBuf { storage, handle })
            }
        }
    }

    /// Returns a buffer whose caller-side references are gone.
    ///
    /// If `rc` is the last reference, the handle is generation-checked
    /// and retired and the box joins the recycle cache; otherwise only
    /// this reference is released (the eventual last holder reclaims).
    pub fn reclaim(&self, mut rc: Rc<PooledBuf>) {
        if Rc::get_mut(&mut rc).is_none() {
            return; // Still shared: just drop this reference.
        }
        let mut inner = self.inner.borrow_mut();
        inner.retire(rc.handle);
        if inner.recycle && inner.rc_cache.len() < MAX_CACHED {
            inner.rc_cache.push(rc);
            inner.stats.cached = inner.rc_cache.len();
        }
    }

    /// Takes empty scratch storage with `cap` capacity (no slot
    /// bookkeeping) — for builders that assemble bytes before handing
    /// the vector to [`Self::adopt`].
    pub fn take_storage(&self, capacity: usize) -> Vec<u8> {
        self.inner.borrow_mut().take_storage(capacity)
    }

    /// Returns scratch storage taken with [`Self::take_storage`] that
    /// never became a buffer (e.g. an intermediate builder layer).
    pub fn give_storage(&self, storage: Vec<u8>) {
        self.inner.borrow_mut().give_storage(storage);
    }

    /// Current counters.
    pub fn stats(&self) -> ArenaStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopt_wraps_without_copying() {
        let arena = FrameArena::new();
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let buf = arena.adopt(v);
        assert_eq!(buf.bytes(), &[1, 2, 3]);
        assert_eq!(buf.bytes().as_ptr(), ptr);
        let s = arena.stats();
        assert_eq!((s.checkouts, s.live, s.fresh_allocs), (1, 1, 1));
    }

    #[test]
    fn reclaim_recycles_the_rc_box() {
        let arena = FrameArena::new();
        let a = arena.adopt(vec![0u8; 64]);
        let box_addr = Rc::as_ptr(&a) as usize;
        arena.reclaim(a);
        let s = arena.stats();
        assert_eq!((s.returns, s.live, s.cached), (1, 0, 1));
        let b = arena.adopt(vec![9u8]);
        assert_eq!(Rc::as_ptr(&b) as usize, box_addr, "Rc box reused");
        assert_eq!(b.bytes(), &[9]);
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn shared_reclaim_releases_without_retiring() {
        let arena = FrameArena::new();
        let a = arena.adopt(vec![1u8, 2]);
        let b = Rc::clone(&a);
        arena.reclaim(a);
        assert_eq!(arena.stats().returns, 0, "still shared — no retire");
        assert_eq!(b.bytes(), &[1, 2]);
        arena.reclaim(b);
        let s = arena.stats();
        assert_eq!((s.returns, s.live, s.cached), (1, 0, 1));
    }

    #[test]
    fn generations_advance_per_slot() {
        let arena = FrameArena::new();
        let a = arena.adopt(vec![1]);
        let h1 = a.handle();
        arena.reclaim(a);
        let b = arena.adopt(vec![2]);
        let h2 = b.handle();
        assert_eq!(
            (h1.slot(), h1.generation() + 1),
            (h2.slot(), h2.generation()),
            "same slot, bumped generation"
        );
    }

    #[test]
    #[should_panic(expected = "stale or double buffer return")]
    fn double_return_panics() {
        let arena = FrameArena::new();
        let a = arena.adopt(vec![1]);
        let handle = a.handle();
        arena.reclaim(a);
        // Forge a second return of the same (slot, generation).
        let forged = Rc::new(PooledBuf {
            storage: Vec::new(),
            handle,
        });
        arena.reclaim(forged);
    }

    #[test]
    fn recycling_off_drops_everything() {
        let arena = FrameArena::new();
        arena.set_recycling(false);
        let a = arena.adopt(vec![1]);
        arena.reclaim(a);
        let s = arena.stats();
        assert_eq!(s.cached, 0);
        let _b = arena.adopt(vec![2]);
        assert_eq!(arena.stats().fresh_allocs, 2);
        assert_eq!(arena.stats().reuses, 0);
    }

    #[test]
    fn take_and_give_storage_round_trip() {
        let arena = FrameArena::new();
        let mut v = arena.take_storage(32);
        assert!(v.is_empty() && v.capacity() >= 32);
        v.extend_from_slice(b"abc");
        arena.give_storage(v);
        let w = arena.take_storage(4);
        assert!(w.is_empty(), "recycled scratch comes back empty");
    }

    #[test]
    fn live_and_returns_balance() {
        let arena = FrameArena::new();
        let bufs: Vec<Rc<PooledBuf>> = (0..10).map(|i| arena.adopt(vec![i as u8])).collect();
        assert_eq!(arena.stats().live, 10);
        for b in bufs {
            arena.reclaim(b);
        }
        let s = arena.stats();
        assert_eq!((s.live, s.returns, s.cached), (0, 10, 10));
    }
}
