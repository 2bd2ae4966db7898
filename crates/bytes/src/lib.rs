//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment for this repository has no access to a crate
//! registry, so the handful of external dependencies are vendored as
//! minimal API-compatible implementations. This crate provides the
//! subset of `bytes` 1.x the workspace actually uses:
//!
//! * [`Bytes`] — an immutable, cheaply cloneable, sliceable byte
//!   buffer (reference counting via `Arc`, zero-copy `slice`/`split_to`,
//!   allocation-free `from_static` and `clone`);
//! * [`BytesMut`] — a growable buffer that freezes into [`Bytes`];
//! * [`Buf`] / [`BufMut`] — the big-endian cursor read/write traits.
//!
//! Semantics follow the real crate where the workspace depends on them
//! (content equality/hashing, FIFO `split_to`, BE integer encoding).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Shared immutable storage: either borrowed `'static` memory (so
/// `Bytes::from_static` and `Bytes::new` never allocate) or an
/// `Arc`-owned heap buffer.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Repr {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }
}

/// A cheaply cloneable, immutable slice of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub const fn new() -> Bytes {
        Bytes { repr: Repr::Static(&[]), start: 0, end: 0 }
    }

    /// Wrap borrowed static memory (no allocation, clones are free).
    #[inline]
    pub const fn from_static(s: &'static [u8]) -> Bytes {
        Bytes { repr: Repr::Static(s), start: 0, end: s.len() }
    }

    /// Copy a slice into a new shared buffer: one allocation of
    /// exactly `s.len()` bytes (plus the reference counts) and one copy,
    /// as in the real crate.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes { repr: Repr::Shared(Arc::from(s)), start: 0, end: s.len() }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.repr.as_slice()[self.start..self.end]
    }

    /// A zero-copy sub-slice sharing the same storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice {begin}..{end} out of bounds of {len}");
        Bytes { repr: self.repr.clone(), start: self.start + begin, end: self.start + end }
    }

    /// Split off and return the first `at` bytes, advancing `self` past
    /// them (zero-copy).
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to {at} out of bounds of {}", self.len());
        let head = Bytes { repr: self.repr.clone(), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    /// Split off and return the bytes after `at`, truncating `self` to
    /// the first `at` bytes (zero-copy).
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off {at} out of bounds of {}", self.len());
        let tail = Bytes { repr: self.repr.clone(), start: self.start + at, end: self.end };
        self.end = self.start + at;
        tail
    }

    /// Shorten the buffer to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { repr: Repr::Shared(Arc::from(v)), start: 0, end }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        let end = v.len();
        Bytes { repr: Repr::Shared(Arc::from(v)), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Read cursor for the `Buf` impl.
    read: usize,
}

impl BytesMut {
    /// Empty buffer (no allocation).
    #[inline]
    pub const fn new() -> BytesMut {
        BytesMut { buf: Vec::new(), read: 0 }
    }

    /// Empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap), read: 0 }
    }

    /// Unread length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Bytes the buffer can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.read = 0;
    }

    /// Reserve space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Convert into an immutable [`Bytes`] (consumes the buffer).
    pub fn freeze(mut self) -> Bytes {
        if self.read > 0 {
            self.buf.drain(..self.read);
        }
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Big-endian cursor reads over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advance the read cursor.
    fn advance(&mut self, cnt: usize);

    /// Any bytes left?
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copy bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_be_bytes(b)
    }

    /// Read a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} out of bounds of {}", self.len());
        self.start += cnt;
    }
}

impl Buf for BytesMut {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} out of bounds of {}", self.len());
        self.read += cnt;
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Big-endian appends to a growable byte buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_clone_share_storage() {
        let b = Bytes::from_static(b"hello world");
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..5], b"hello");
    }

    #[test]
    fn slice_and_split_are_zero_copy_views() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        let s = b.slice(1..3);
        assert_eq!(&s[..], &[4, 5]);
        let tail = b.split_off(1);
        assert_eq!(&b[..], &[3]);
        assert_eq!(&tail[..], &[4, 5]);
    }

    #[test]
    fn buf_round_trip_big_endian() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u8(7);
        m.put_u16(0xBEEF);
        m.put_u32(0xDEAD_BEEF);
        m.put_u64(42);
        m.put_i64(-42);
        m.put_f64(1.5);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0xBEEF);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.get_i64(), -42);
        assert_eq!(b.get_f64(), 1.5);
        assert!(!b.has_remaining());
    }

    #[test]
    fn content_equality_and_hash() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from_static(&[1, 2, 3]);
        assert_eq!(a, b);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from_static(b"ab");
        let _ = b.split_to(3);
    }
}
