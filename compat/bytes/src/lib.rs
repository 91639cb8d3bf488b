//! Minimal API-compatible shim for the `bytes` crate surface this workspace
//! uses. Vendored because the build environment has no registry access.
//!
//! [`Bytes`] is a refcounted view (`Arc<Vec<u8>>` + range), so `clone`,
//! `slice` and `split_to` are zero-copy exactly like the real crate —
//! the property the engine's zero-copy hot paths rely on. Taking ownership
//! of a `Vec<u8>` (or freezing a [`BytesMut`]) keeps its heap buffer: the
//! only allocation is the small refcount block that holds the `Vec`.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Read cursor over a contiguous byte region. Integer reads are big-endian,
/// matching the real `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The readable region.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True when bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }

    /// Copies bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
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

/// Write cursor. Integer writes are big-endian.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
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

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Repr {
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        }
    }
}

/// Cheaply clonable, sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Self {
        Bytes { repr: Repr::Static(&[]), start: 0, end: 0 }
    }

    /// Zero-copy view of a static slice.
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(s), start: 0, end: s.len() }
    }

    /// Copies `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.repr.as_slice()[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view.
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
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of 0..{}", self.len());
        Bytes { repr: self.repr.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns the first `at` bytes (zero-copy); `self`
    /// keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to {at} out of {}", self.len());
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    /// Copies out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
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
    /// Takes over `v`'s heap buffer: no byte is copied and the data pointer
    /// is preserved.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { repr: Repr::Shared(Arc::new(v)), start: 0, end: len }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
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

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "... ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} out of {}", self.len());
        self.start += cnt;
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Reserves additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts to an immutable [`Bytes`] that owns this buffer's
    /// allocation: no byte is copied (see `From<Vec<u8>>`).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Copies out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Clears the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_are_views() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = b.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        let mut rest = b.clone();
        let head = rest.split_to(3);
        assert_eq!(&head[..], &[0, 1, 2]);
        assert_eq!(&rest[..], &[3, 4, 5, 6, 7]);
        // The original is untouched.
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        // The zero-copy proof: the data pointer survives the conversion.
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(100..200).as_ptr(), ptr.wrapping_add(100));

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[9u8; 1000]);
        let ptr = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(&b[..], &[9u8; 1000][..]);

        let boxed: Box<[u8]> = vec![1u8; 64].into_boxed_slice();
        let ptr = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), ptr);
    }

    #[test]
    fn buf_reads_are_big_endian() {
        let mut m = BytesMut::new();
        m.put_u8(0xAB);
        m.put_u32(0x01020304);
        m.put_u64(0x1122334455667788);
        m.put_bytes(0, 2);
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 15);
        assert_eq!(b.get_u8(), 0xAB);
        assert_eq!(b.get_u32(), 0x01020304);
        assert_eq!(b.get_u64(), 0x1122334455667788);
        assert_eq!(b.remaining(), 2);
        b.advance(2);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_buf_impl_works() {
        let raw = [1u8, 0, 0, 0, 2];
        let mut s: &[u8] = &raw;
        assert_eq!(s.get_u8(), 1);
        assert_eq!(s.get_u32(), 2);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn equality_and_static() {
        let a = Bytes::from_static(b"hello");
        assert_eq!(a, Bytes::copy_from_slice(b"hello"));
        assert_eq!(a, *b"hello");
        assert_eq!(&a[..], b"hello");
    }
}
