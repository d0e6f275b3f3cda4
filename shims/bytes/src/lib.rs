//! Offline shim for `bytes`.
//!
//! [`Bytes`] is a cheaply-cloneable, sliceable view over an
//! `Arc<[u8]>`; [`BytesMut`] is a growable buffer that freezes into
//! one. The [`Buf`]/[`BufMut`] traits cover the big-endian integer and
//! slice accessors the workspace codecs use. Semantics match the real
//! crate for this subset (including `split_to` advancing the source and
//! content-based equality/ordering, so `Bytes` works as an ordered map
//! key).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer.
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

    /// Wraps a static slice (copied once into shared storage).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new buffer: one allocation, the shared
    /// storage itself (as in the real crate), not a `Vec` that is then
    /// copied a second time into an `Arc`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Returns a sub-view sharing the same storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to({at}) out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Splits off and returns everything from `at` on, truncating `self`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off({at}) out of bounds");
        let tail = Bytes {
            data: Arc::clone(&self.data),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        tail
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
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

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.buf.extend_from_slice(other);
    }

    /// Clears the buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.buf).fmt(f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

macro_rules! get_be {
    ($(($fn:ident, $t:ty)),*) => {$(
        /// Reads a big-endian integer, advancing the cursor.
        ///
        /// # Panics
        ///
        /// Panics if fewer than `size_of::<Self>()` bytes remain.
        fn $fn(&mut self) -> $t {
            const N: usize = std::mem::size_of::<$t>();
            let mut raw = [0u8; N];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
    )*};
}

/// Read access to a cursor-like byte buffer (big-endian accessors).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];

    /// Advances the cursor by `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > self.remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if not enough bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads one signed byte, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    get_be!(
        (get_u16, u16),
        (get_u32, u32),
        (get_u64, u64),
        (get_i16, i16),
        (get_i32, i32),
        (get_i64, i64)
    );
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance({cnt}) out of bounds");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! put_be {
    ($(($fn:ident, $t:ty)),*) => {$(
        /// Appends a big-endian integer.
        fn $fn(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Append access to a growable byte buffer (big-endian accessors).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    put_be!(
        (put_u16, u16),
        (put_u32, u32),
        (put_u64, u64),
        (put_i16, i16),
        (put_i32, i32),
        (put_i64, i64)
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_big_endian() {
        let mut w = BytesMut::new();
        w.put_u32(0xDEAD_BEEF);
        w.put_i64(-9);
        w.put_u8(7);
        assert_eq!(w.as_ref()[0], 0xDE, "big-endian layout");
        let mut r = w.freeze();
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_i64(), -9);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn split_and_slice_share_storage() {
        let mut b = Bytes::from(b"hello world".to_vec());
        let head = b.split_to(5);
        assert_eq!(head.as_slice(), b"hello");
        assert_eq!(b.as_slice(), b" world");
        let tail = b.slice(1..);
        assert_eq!(tail.as_slice(), b"world");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Bytes::from("abc");
        let b = Bytes::from("abd");
        assert!(a < b);
        let mut m = std::collections::BTreeMap::new();
        m.insert(a.clone(), 1);
        m.insert(b, 2);
        assert_eq!(m.range(a..).count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from_static(b"xy");
        b.advance(3);
    }
}
