//! Workspace shim for `bytes`: cheaply-cloneable immutable [`Bytes`], a
//! growable [`BytesMut`] with a consuming front cursor, and the
//! [`Buf`]/[`BufMut`] trait subset the HTTP layer uses.
//!
//! `Bytes` is an `Arc<[u8]>` plus a sub-range, so `clone` is O(1) and
//! `freeze`/`split_to` never copy more than once.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply-cloneable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copies once; upstream is zero-copy, but
    /// no caller here is on a hot path with static data).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer: one exact-size allocation
    /// (going through a `Vec` would allocate twice, since an
    /// `Arc<[u8]>` cannot adopt a `Vec`'s buffer).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-range sharing the same allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let range = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        }..match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the
    /// rest. Both halves share the original allocation (no copy), like
    /// upstream `Bytes::split_to`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// How many `Bytes` handles share this allocation (upstream exposes
    /// this only indirectly via `try_into_mut`; the reproduction needs
    /// it directly as the refcount-hygiene observability hook: a cache
    /// that is the sole owner of a body reads 1 here).
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl FromIterator<u8> for Bytes {
    /// Collects through `Arc<[u8]>`'s own `FromIterator`, which
    /// allocates once, at the exact size, when the iterator knows its
    /// length (`(0..n).map(..)`) — no staging `Vec`, no second copy.
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let data: Arc<[u8]> = iter.into_iter().collect();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Read-side cursor operations.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// The readable byte slice.
    fn chunk(&self) -> &[u8];
    /// Discards the first `n` readable bytes.
    fn advance(&mut self, n: usize);
}

/// Write-side append operations.
pub trait BufMut {
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends one byte.
    fn put_u8(&mut self, b: u8) {
        self.put_slice(&[b]);
    }
    /// Appends a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// Growable byte buffer with an amortized-O(1) consuming front cursor.
///
/// `advance`/`split_to` move a read offset instead of shifting the tail;
/// the spent prefix is reclaimed when it outgrows the live region.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Read offset: `buf[off..]` is the live region.
    off: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
            off: 0,
        }
    }

    /// Live length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Whether the live region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a byte slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.compact_if_sparse();
        self.buf.extend_from_slice(src);
    }

    /// Removes and returns the first `n` live bytes as a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of bounds");
        let head = self.buf[self.off..self.off + n].to_vec();
        self.off += n;
        self.compact_if_sparse();
        BytesMut { buf: head, off: 0 }
    }

    /// Freezes into an immutable [`Bytes`] (one copy of the live region
    /// at most — none when nothing has been consumed).
    pub fn freeze(mut self) -> Bytes {
        if self.off > 0 {
            self.buf.drain(..self.off);
        }
        Bytes::from(self.buf)
    }

    /// Drops all content.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.off = 0;
    }

    /// Reclaims the consumed prefix once it dominates the allocation.
    fn compact_if_sparse(&mut self) {
        if self.off > 4096 && self.off * 2 >= self.buf.len() {
            self.buf.drain(..self.off);
            self.off = 0;
        }
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.buf[self.off..]
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.off += n;
        self.compact_if_sparse();
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.off..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_shares_and_compares() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.slice(1..3), Bytes::from(vec![2, 3]));
    }

    // The next three tests pin the aliasing semantics the upstream
    // `bytes` crate documents: `clone`, `slice`, and `split_to` are all
    // O(1) views over one shared allocation — no copies — and dropping
    // views releases ownership until the last one frees the data.

    #[test]
    fn clone_and_slice_share_one_allocation() {
        let a = Bytes::from(vec![9u8; 64]);
        assert_eq!(a.strong_count(), 1, "fresh buffer has one owner");
        let b = a.clone();
        let c = a.slice(8..32);
        assert_eq!(a.strong_count(), 3, "clone and slice are views, not copies");
        assert_eq!(b.strong_count(), 3);
        assert_eq!(c.strong_count(), 3);
        // Views alias the same memory, not equal-but-separate copies.
        assert!(std::ptr::eq(&a[8], &c[0]));
        assert!(std::ptr::eq(&a[0], &b[0]));
        drop(b);
        drop(c);
        assert_eq!(a.strong_count(), 1, "dropping views releases ownership");
    }

    #[test]
    fn split_to_is_zero_copy_and_exact() {
        let mut rest = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let head = rest.split_to(40);
        assert_eq!(head.len(), 40);
        assert_eq!(rest.len(), 60);
        assert_eq!(&head[..], &(0u8..40).collect::<Vec<u8>>()[..]);
        assert_eq!(&rest[..], &(40u8..100).collect::<Vec<u8>>()[..]);
        // Both halves alias the original allocation.
        assert_eq!(head.strong_count(), 2);
        assert_eq!(
            &head[39] as *const u8 as usize + 1,
            &rest[0] as *const u8 as usize,
            "halves are adjacent views of one allocation"
        );
        // Degenerate splits: empty head, then the whole remainder.
        let empty = rest.split_to(0);
        assert!(empty.is_empty());
        let all = rest.split_to(rest.len());
        assert!(rest.is_empty());
        assert_eq!(all.len(), 60);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn bytes_split_to_past_end_panics() {
        let mut b = Bytes::from(vec![1, 2, 3]);
        let _ = b.split_to(4);
    }

    #[test]
    fn slice_of_slice_composes_offsets() {
        let a = Bytes::from((0u8..50).collect::<Vec<u8>>());
        let mid = a.slice(10..40);
        let inner = mid.slice(5..10);
        assert_eq!(&inner[..], &[15, 16, 17, 18, 19]);
        assert_eq!(a.strong_count(), 3);
    }

    #[test]
    fn bytesmut_append_advance_split_freeze() {
        let mut m = BytesMut::new();
        m.put_slice(b"HTTP/1.1 200 OK\r\n");
        m.put_u8(b'x');
        assert_eq!(m.len(), 18);
        m.advance(9);
        assert_eq!(&m[..6], b"200 OK");
        let head = m.split_to(6);
        assert_eq!(&head[..], b"200 OK");
        assert_eq!(head.freeze(), Bytes::from_static(b"200 OK"));
        assert_eq!(&m.freeze()[..], b"\r\nx");
    }

    #[test]
    fn compaction_preserves_live_bytes() {
        let mut m = BytesMut::new();
        for i in 0..10_000u32 {
            m.put_u32(i);
        }
        m.advance(39_996);
        assert_eq!(m.len(), 4);
        m.put_slice(b"tail");
        assert_eq!(&m[..4], &9999u32.to_be_bytes());
        assert_eq!(&m[4..], b"tail");
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_past_end_panics() {
        let mut m = BytesMut::new();
        m.put_slice(b"ab");
        m.advance(3);
    }
}
