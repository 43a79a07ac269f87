//! In-tree subset of the `bytes` crate.
//!
//! Provides [`Bytes`], [`BytesMut`], and the [`Buf`]/[`BufMut`] traits
//! with exactly the methods this workspace uses. `Bytes` is a
//! cheaply-cloneable immutable byte buffer backed by `Arc<[u8]>`;
//! `BytesMut` is a growable buffer that freezes into `Bytes`.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::ops::Deref;
use std::sync::Arc;

/// Cheaply cloneable immutable contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }

    /// Buffer borrowing a static slice (copied into shared storage;
    /// the real crate keeps the pointer, which callers cannot observe
    /// through this API).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Arc::from(bytes),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer; freezes into an immutable [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// Empty buffer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write access to a byte buffer (little-endian helpers included, as
/// the codec in `lgv-middleware` uses the `_le` family exclusively).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append an `i8`.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

macro_rules! get_le {
    ($(#[$doc:meta] $fn:ident -> $ty:ty, $n:expr;)*) => {
        $(
            #[$doc]
            fn $fn(&mut self) -> $ty {
                let mut buf = [0u8; $n];
                buf.copy_from_slice(&self.chunk()[..$n]);
                self.advance($n);
                <$ty>::from_le_bytes(buf)
            }
        )*
    };
}

/// Read access to a byte buffer. Reads panic on underflow, matching the
/// real crate; callers (the codec) bounds-check first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Read a `u8`.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }
    /// Read an `i8`.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    get_le! {
        /// Read a little-endian `u32`.
        get_u32_le -> u32, 4;
        /// Read a little-endian `u64`.
        get_u64_le -> u64, 8;
        /// Read a little-endian `f64`.
        get_f64_le -> f64, 8;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        let rest = self.data[n..].to_vec();
        self.data = Arc::from(rest.into_boxed_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut m = BytesMut::with_capacity(64);
        m.put_u8(7);
        m.put_i8(-2);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_f64_le(1.5);
        m.put_slice(b"xyz");
        let b = m.freeze();
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i8(), -2);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r, b"xyz");
    }

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.len(), 3);
        assert_eq!(&c[..], &[1, 2, 3]);
    }

    #[test]
    fn from_static_and_to_vec() {
        let b = Bytes::from_static(b"hi");
        assert_eq!(b.to_vec(), vec![b'h', b'i']);
        assert!(!b.is_empty());
    }
}
