//! Arena-backed frame bytes.
//!
//! [`FrameBuf`] is the byte storage behind [`crate::Frame`]: an
//! `Rc<PooledBuf>` drawn from a thread-local [`FrameArena`]. Cloning a
//! frame — fan-out, duplication faults, capture — is a reference-count
//! bump instead of a full byte copy, and when the last reference drops
//! both the byte vector and the `Rc` box go back to the arena for the
//! next packet, so steady-state traffic leaves the allocator alone.
//!
//! The buffer is immutable through `Deref`; the rare writer (fault
//! injection corrupting a byte) goes through [`FrameBuf::make_mut`],
//! which copies only when the bytes are shared. Equality is by content,
//! so swapping `Vec<u8>` for `FrameBuf` changes no observable
//! behaviour.

use crate::arena::{ArenaStats, FrameArena, PooledBuf};
use std::rc::Rc;

thread_local! {
    static ARENA: FrameArena = FrameArena::new();
}

/// Turns frame-storage recycling on or off for this thread's arena.
///
/// On (the default), dropped frame buffers are cached and reused by
/// later frames. Off restores per-frame alloc/free and empties the
/// cache: tests use it to show pooling changes no result, benchmarks to
/// start from an empty cache.
pub fn set_frame_pooling(on: bool) {
    ARENA.with(|a| a.set_recycling(on));
}

/// Counters for this thread's frame arena (reuse rate, live buffers).
pub fn frame_arena_stats() -> ArenaStats {
    ARENA.with(|a| a.stats())
}

/// Takes empty scratch storage with `cap` capacity from the arena.
///
/// Packet builders use this instead of `Vec::with_capacity` so their
/// scratch storage participates in recycling. Hand the result to a
/// [`FrameBuf`] (via `into()`) or back to [`recycle`].
pub(crate) fn storage(cap: usize) -> Vec<u8> {
    ARENA.with(|a| a.take_storage(cap))
}

/// Returns builder scratch storage that did not become a frame.
pub(crate) fn recycle(v: Vec<u8>) {
    ARENA.with(|a| a.give_storage(v));
}

/// Shared, arena-backed, content-compared frame bytes.
///
/// The inner `Option` is an implementation detail of the destructor
/// (it moves the `Rc` out to reclaim it); it is `Some` at every other
/// moment of the buffer's life.
pub struct FrameBuf(Option<Rc<PooledBuf>>);

impl FrameBuf {
    /// Wraps a byte vector without copying; the storage joins the
    /// arena's recycle cache when the last clone drops.
    pub fn from_vec(v: Vec<u8>) -> Self {
        FrameBuf(Some(ARENA.with(|a| a.adopt(v))))
    }

    #[inline]
    fn inner(&self) -> &Rc<PooledBuf> {
        self.0.as_ref().expect("live FrameBuf always holds its Rc")
    }

    /// The frame bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.inner().bytes()
    }

    /// Mutable access, copy-on-write: clones the bytes first if any
    /// other `FrameBuf` shares them.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        let unique = Rc::get_mut(self.0.as_mut().expect("live")).is_some();
        if !unique {
            let mut copy = storage(self.bytes().len());
            copy.extend_from_slice(self.bytes());
            *self = FrameBuf::from_vec(copy);
        }
        Rc::get_mut(self.0.as_mut().expect("live"))
            .expect("unique after copy")
            .vec_mut()
    }

    /// True if both handles share the same storage (for tests asserting
    /// that a clone did not copy).
    pub fn ptr_eq(a: &FrameBuf, b: &FrameBuf) -> bool {
        Rc::ptr_eq(a.inner(), b.inner())
    }
}

impl Clone for FrameBuf {
    #[inline]
    fn clone(&self) -> Self {
        FrameBuf(Some(Rc::clone(self.inner())))
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Some(rc) = self.0.take() {
            // During thread teardown the arena may already be gone; the
            // buffer then just frees normally.
            let _ = ARENA.try_with(|a| a.reclaim(rc));
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.inner().bytes()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> Self {
        FrameBuf::from_vec(v)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(s: &[u8]) -> Self {
        let mut v = storage(s.len());
        v.extend_from_slice(s);
        FrameBuf::from_vec(v)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(self.inner(), other.inner()) || self.bytes() == other.bytes()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes() == other.as_slice()
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Same rendering as Vec<u8> so debug output is unchanged.
        std::fmt::Debug::fmt(self.bytes(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a: FrameBuf = vec![1u8, 2, 3].into();
        let b = a.clone();
        assert!(FrameBuf::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(&*a, &[1, 2, 3]);
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut a: FrameBuf = vec![1u8, 2, 3].into();
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(&*a, &[9, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3], "shared clone untouched");
        assert!(!FrameBuf::ptr_eq(&a, &b));
        // Unshared: mutation in place, no copy.
        let p = a.bytes().as_ptr();
        a.make_mut()[1] = 8;
        assert_eq!(a.bytes().as_ptr(), p);
    }

    #[test]
    fn equality_is_by_content() {
        let a: FrameBuf = vec![5u8, 6].into();
        let b: FrameBuf = vec![5u8, 6].into();
        assert_eq!(a, b);
        assert!(!FrameBuf::ptr_eq(&a, &b));
        let c: FrameBuf = vec![7u8].into();
        assert_ne!(a, c);
    }

    #[test]
    fn debug_matches_vec_rendering() {
        let a: FrameBuf = vec![1u8, 2].into();
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![1u8, 2]));
    }

    #[test]
    fn dropped_frames_recycle_their_rc_box() {
        let before = frame_arena_stats();
        let a: FrameBuf = vec![0u8; 256].into();
        drop(a);
        let _b: FrameBuf = vec![1u8, 2].into();
        let after = frame_arena_stats();
        assert!(
            after.reuses > before.reuses,
            "second frame reused the first frame's Rc box"
        );
        assert_eq!(after.live as i64 - before.live as i64, 1);
    }

    #[test]
    fn shared_drop_keeps_buffer_live() {
        let before = frame_arena_stats();
        let a: FrameBuf = vec![1u8].into();
        let b = a.clone();
        drop(a);
        assert_eq!(&*b, &[1], "still readable after co-owner dropped");
        let mid = frame_arena_stats();
        assert_eq!(mid.returns, before.returns, "no retire while shared");
        drop(b);
        let after = frame_arena_stats();
        assert_eq!(after.returns, before.returns + 1);
    }
}
