//! Compact binary codec for the messages that cross the link.
//!
//! The paper serializes ROS messages with protobuf for efficient
//! transmission (§VII). Only a handful of message types ever cross the
//! robot–cloud link, so this module encodes exactly those through one
//! hand-written [`Wire`] trait, in a little-endian, non-self-describing
//! format:
//!
//! * fixed-width little-endian integers and floats;
//! * `u64` length prefixes for strings and sequences, checked against
//!   the remaining input before anything is allocated;
//! * one tag byte for `Option`;
//! * `u32` declaration indices for enums;
//! * struct fields in declaration order, no field names on the wire;
//! * trailing bytes after a complete value are an error.
//!
//! Because the format is non-self-describing, both ends must agree on
//! the message type — which the topic name guarantees, as in ROS.
//! Encoded sizes feed the bandwidth, UDP-buffer and energy models, so
//! the golden-byte tests in `tests/golden.rs` pin the format.
//!
//! A `Vec<T>` encodes its elements through [`Wire::encode_all`] and
//! [`Wire::decode_all`], which default to one element at a time. The
//! fixed-width scalars override them with bulk paths: `u8`s are copied
//! as one slice (an envelope's payload), and the others are converted
//! through a stack buffer and read with `chunks_exact` (a map's `i8`
//! cells, a scan's `f64` ranges). The bytes are the same, and so is
//! the error on truncated input: the run is cut at the last whole
//! value and the error names the width the next value needed and the
//! bytes left, as the element-by-element decode reports them.

pub use bytes::BytesMut;

use bytes::{Buf, BufMut, Bytes};
use lgv_types::prelude::*;
use std::fmt;

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A type with a wire encoding.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut BytesMut);

    /// Decode one value from the front of `input`, advancing it past
    /// the bytes consumed.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Append the encodings of `items` back to back: the body of a
    /// `Vec<Self>`. Fixed-width scalars override it with bulk copies
    /// of the same bytes.
    fn encode_all(items: &[Self], out: &mut BytesMut) {
        for x in items {
            x.encode(out);
        }
    }

    /// Decode `n` values back to back from the front of `input`: the
    /// body of a `Vec<Self>`. Fixed-width scalars override it with
    /// bulk reads that give the same values, and on truncated input
    /// the same error, as `n` calls to [`Wire::decode`].
    fn decode_all(input: &mut &[u8], n: usize) -> Result<Vec<Self>, CodecError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::decode(input)?);
        }
        Ok(v)
    }
}

/// Encode a value into bytes.
///
/// ```
/// use lgv_middleware::{to_bytes, from_bytes};
/// use lgv_types::Twist;
///
/// let cmd = Twist::new(0.22, -0.8);
/// let wire = to_bytes(&cmd).unwrap();
/// let back: Twist = from_bytes(&wire).unwrap();
/// assert_eq!(back, cmd);
/// ```
pub fn to_bytes<T: Wire>(value: &T) -> Result<Bytes, CodecError> {
    let mut out = BytesMut::with_capacity(128);
    value.encode(&mut out);
    Ok(out.freeze())
}

/// Decode a value from bytes, requiring the buffer to be fully
/// consumed (trailing garbage indicates a framing bug).
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> Result<T, CodecError> {
    let v = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(CodecError(format!("{} trailing bytes", bytes.len())));
    }
    Ok(v)
}

/// Implement [`Wire`] for a struct with named fields: the fields are
/// encoded in the order listed, which must be declaration order. The
/// struct is destructured without `..`, so a field added to the type
/// but not to the list fails to compile.
///
/// ```
/// use lgv_middleware::{from_bytes, to_bytes, wire_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     seq: u64,
///     label: String,
/// }
/// wire_struct!(Probe { seq, label });
///
/// let p = Probe { seq: 7, label: "up".into() };
/// assert_eq!(from_bytes::<Probe>(&to_bytes(&p).unwrap()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(<$param:ident>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$param: $crate::codec::Wire>)? $crate::codec::Wire for $ty$(<$param>)? {
            fn encode(&self, out: &mut $crate::codec::BytesMut) {
                let $ty { $($field),+ } = self;
                $($crate::codec::Wire::encode($field, out);)+
            }

            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty {
                    $($field: $crate::codec::Wire::decode(input)?),+
                })
            }
        }
    };
}

fn need(input: &[u8], n: usize) -> Result<(), CodecError> {
    if input.len() < n {
        return Err(eof(n, input.len()));
    }
    Ok(())
}

fn eof(need: usize, have: usize) -> CodecError {
    CodecError(format!("unexpected EOF: need {need}, have {have}"))
}

/// A `u64` length prefix, rejected when it claims more elements than
/// there are bytes left (every element takes at least one byte).
fn decode_len(input: &mut &[u8]) -> Result<usize, CodecError> {
    let n = u64::decode(input)?;
    if n > input.len() as u64 {
        return Err(CodecError(format!("length {n} exceeds remaining input")));
    }
    Ok(n as usize)
}

fn encode_len(len: usize, out: &mut BytesMut) {
    out.put_u64_le(len as u64);
}

macro_rules! wire_scalar {
    ($($ty:ty => $put:ident, $get:ident;)+) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut BytesMut) {
                out.$put(*self);
            }

            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                need(input, std::mem::size_of::<$ty>())?;
                Ok(input.$get())
            }

            fn encode_all(items: &[Self], out: &mut BytesMut) {
                put_all(items, out, <$ty>::to_le_bytes);
            }

            fn decode_all(input: &mut &[u8], n: usize) -> Result<Vec<Self>, CodecError> {
                take_all(input, n, <$ty>::from_le_bytes)
            }
        }
    )+};
}

wire_scalar! {
    i8 => put_i8, get_i8;
    u32 => put_u32_le, get_u32_le;
    u64 => put_u64_le, get_u64_le;
    f64 => put_f64_le, get_f64_le;
}

/// Bytes need no conversion: the bulk paths copy the slice itself.
impl Wire for u8 {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u8(*self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        need(input, 1)?;
        Ok(input.get_u8())
    }

    fn encode_all(items: &[Self], out: &mut BytesMut) {
        out.put_slice(items);
    }

    fn decode_all(input: &mut &[u8], n: usize) -> Result<Vec<Self>, CodecError> {
        take_run(input, n, 1).map(<[u8]>::to_vec)
    }
}

/// Append fixed-width values `N` bytes each, converted through a stack
/// buffer so that each `put_slice` copies up to 512 bytes.
fn put_all<T: Copy, const N: usize>(items: &[T], out: &mut BytesMut, le: fn(T) -> [u8; N]) {
    let mut buf = [0u8; 512];
    for chunk in items.chunks(buf.len() / N) {
        let len = chunk.len() * N;
        for (dst, &x) in buf[..len].chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&le(x));
        }
        out.put_slice(&buf[..len]);
    }
}

/// Read `n` fixed-width values `N` bytes each.
fn take_all<T, const N: usize>(
    input: &mut &[u8],
    n: usize,
    le: fn([u8; N]) -> T,
) -> Result<Vec<T>, CodecError> {
    let run = take_run(input, n, N)?;
    Ok(run
        .chunks_exact(N)
        .map(|c| le(c.try_into().expect("chunks_exact yields N bytes")))
        .collect())
}

/// The bytes of `n` values `width` bytes each from the front of
/// `input`. Input that holds fewer gives the error the first scalar
/// decode to run short would, with `input` advanced past the whole
/// values before it.
fn take_run<'a>(input: &mut &'a [u8], n: usize, width: usize) -> Result<&'a [u8], CodecError> {
    let whole = n.min(input.len() / width);
    let (run, rest) = input.split_at(whole * width);
    *input = rest;
    if whole < n {
        return Err(eof(width, input.len()));
    }
    Ok(run)
}

impl Wire for String {
    fn encode(&self, out: &mut BytesMut) {
        encode_len(self.len(), out);
        out.put_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = decode_len(input)?;
        let (s, rest) = input.split_at(n);
        *input = rest;
        std::str::from_utf8(s)
            .map(str::to_owned)
            .map_err(|e| CodecError(format!("invalid utf8: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut BytesMut) {
        encode_len(self.len(), out);
        T::encode_all(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = decode_len(input)?;
        T::decode_all(input, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut BytesMut) {
        match self {
            None => out.put_u8(0),
            Some(v) => {
                out.put_u8(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(CodecError(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut BytesMut) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

macro_rules! wire_nanos {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut BytesMut) {
                self.as_nanos().encode(out);
            }

            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                u64::decode(input).map($ty::from_nanos)
            }
        }
    )+};
}

wire_nanos!(SimTime, Duration);

/// An enum variant from its `u32` declaration index; `variants` lists
/// every variant in declaration order.
fn decode_variant<T: Copy>(input: &mut &[u8], variants: &[T], name: &str) -> Result<T, CodecError> {
    let i = u32::decode(input)?;
    variants
        .get(i as usize)
        .copied()
        .ok_or_else(|| CodecError(format!("invalid {name} variant index {i}")))
}

impl Wire for VelocitySource {
    fn encode(&self, out: &mut BytesMut) {
        (*self as u32).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        use VelocitySource::*;
        decode_variant(
            input,
            &[Navigation, Joystick, SafetyController],
            "VelocitySource",
        )
    }
}

impl Wire for NodeKind {
    fn encode(&self, out: &mut BytesMut) {
        (*self as u32).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        decode_variant(input, &NodeKind::ALL, "NodeKind")
    }
}

wire_struct!(Point2 { x, y });
wire_struct!(Twist { linear, angular });
wire_struct!(GridDims {
    width,
    height,
    resolution,
    origin
});
wire_struct!(LaserScan {
    stamp,
    angle_min,
    angle_increment,
    range_max,
    ranges
});
wire_struct!(VelocityCmd {
    stamp,
    twist,
    source
});
wire_struct!(MapMsg { stamp, dims, cells });

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: &T) {
        let b = to_bytes(v).expect("encode");
        let back: T = from_bytes(&b).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&7u8);
        roundtrip(&-7i8);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&123456789u64);
        roundtrip(&1.2345678f64);
        roundtrip(&"hello wörld".to_string());
        roundtrip(&Some(42u32));
        roundtrip(&Option::<u32>::None);
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<f64>::new());
        roundtrip(&(1u8, "two".to_string()));
        roundtrip(&vec![
            (NodeKind::Slam, Duration::from_millis(3)),
            (NodeKind::VelocityMux, Duration::ZERO),
        ]);
    }

    #[test]
    fn enums_roundtrip_by_declaration_index() {
        use VelocitySource::*;
        for (i, s) in [Navigation, Joystick, SafetyController]
            .into_iter()
            .enumerate()
        {
            assert_eq!(to_bytes(&s).unwrap()[..], (i as u32).to_le_bytes());
            roundtrip(&s);
        }
        for (i, k) in NodeKind::ALL.into_iter().enumerate() {
            assert_eq!(to_bytes(&k).unwrap()[..], (i as u32).to_le_bytes());
            roundtrip(&k);
        }
    }

    #[test]
    fn out_of_range_variant_index_errors() {
        assert!(from_bytes::<VelocitySource>(&3u32.to_le_bytes()).is_err());
        assert!(from_bytes::<NodeKind>(&7u32.to_le_bytes()).is_err());
    }

    #[test]
    fn message_types_roundtrip() {
        roundtrip(&Twist::new(0.22, -1.1));
        let scan = LaserScan {
            stamp: SimTime::from_nanos(123456),
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges: (0..360).map(|i| i as f64 * 0.01).collect(),
        };
        roundtrip(&scan);
        let cmd = VelocityCmd {
            stamp: SimTime::from_nanos(99),
            twist: Twist::new(0.1, 0.2),
            source: VelocitySource::SafetyController,
        };
        roundtrip(&cmd);
        let map = MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(4, 3, 0.5, Point2::new(-1.0, 2.0)),
            cells: vec![-1, 0, 100, 0, -1, 0, 100, 0, -1, 0, 100, 0],
        };
        roundtrip(&map);
    }

    #[test]
    fn scan_wire_size_is_compact() {
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges: vec![1.0; 360],
        };
        let b = to_bytes(&scan).unwrap();
        // stamp + 3 floats + len + 360 doubles ≈ 2.9 KB: matches the
        // paper's 2.94 KB laser-scan transmission size.
        assert!(b.len() < 3000, "wire size {}", b.len());
        assert!(b.len() > 2880);
    }

    #[test]
    fn truncated_input_errors() {
        let b = to_bytes(&12345u64).unwrap();
        let r: Result<u64, _> = from_bytes(&b[..4]);
        assert!(r.is_err());
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut b = to_bytes(&1u32).unwrap().to_vec();
        b.push(0xFF);
        let r: Result<u32, _> = from_bytes(&b);
        assert!(r.is_err());
    }

    #[test]
    fn corrupt_option_tag_errors() {
        let r: Result<Option<u8>, _> = from_bytes(&[7, 0]);
        assert!(r.is_err());
    }

    #[test]
    fn oversized_length_prefix_errors() {
        // Claims a 10^12-byte string in a 9-byte buffer.
        let mut b = vec![];
        b.extend_from_slice(&(1_000_000_000_000u64).to_le_bytes());
        b.push(b'x');
        let r: Result<String, _> = from_bytes(&b);
        assert!(r.is_err());
    }

    /// The element-by-element `Vec<T>` codec the bulk paths replace.
    fn reference_encode<T: Wire>(items: &[T]) -> Vec<u8> {
        let mut out = BytesMut::new();
        encode_len(items.len(), &mut out);
        for x in items {
            x.encode(&mut out);
        }
        out.to_vec()
    }

    fn reference_decode<T: Wire>(input: &mut &[u8]) -> Result<Vec<T>, CodecError> {
        let n = decode_len(input)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(input)?);
        }
        Ok(v)
    }

    /// Bulk and reference encodings of `items` are the same bytes, and
    /// every prefix of them decodes to the same values (compared by
    /// `key`), the same error and the same unread rest.
    fn bulk_matches_reference<T: Wire + Clone>(items: &[T], key: fn(&T) -> u64) {
        let wire = to_bytes(&items.to_vec()).unwrap();
        assert_eq!(wire[..], reference_encode(items)[..]);
        let keys = |r: Result<Vec<T>, CodecError>| r.map(|v| v.iter().map(key).collect::<Vec<_>>());
        for len in 0..=wire.len() {
            let (mut bulk, mut reference) = (&wire[..len], &wire[..len]);
            assert_eq!(
                keys(Vec::<T>::decode(&mut bulk)),
                keys(reference_decode(&mut reference)),
                "prefix of {len} bytes"
            );
            assert_eq!(bulk, reference, "unread rest of a {len}-byte prefix");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        fn bulk_vec_codec_matches_the_element_by_element_codec(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            cells in proptest::collection::vec(proptest::prelude::any::<i8>(), 0..80),
            // Any bit pattern, NaNs and signed zeros included.
            ranges in proptest::collection::vec(proptest::prelude::any::<f64>(), 0..80),
            counts in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..80),
        ) {
            bulk_matches_reference(&bytes, |&b| u64::from(b));
            bulk_matches_reference(&cells, |&c| c as u64);
            bulk_matches_reference(&ranges, |r| r.to_bits());
            bulk_matches_reference(&counts, |&c| u64::from(c));
        }
    }

    #[test]
    fn bulk_decode_of_a_short_run_reports_the_next_value() {
        // Three f64s claimed, 20 bytes left: two decode, the third
        // finds 4 of its 8 bytes.
        let mut b = 3u64.to_le_bytes().to_vec();
        b.extend_from_slice(&[0; 20]);
        let e = from_bytes::<Vec<f64>>(&b).unwrap_err();
        assert_eq!(e.0, "unexpected EOF: need 8, have 4");
        let mut short: &[u8] = &[1, 2, 3];
        assert_eq!(
            u8::decode_all(&mut short, 5).unwrap_err().0,
            "unexpected EOF: need 1, have 0"
        );
        assert!(short.is_empty());
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut b = vec![];
        b.extend_from_slice(&2u64.to_le_bytes());
        b.extend_from_slice(&[0xFF, 0xFE]);
        let r: Result<String, _> = from_bytes(&b);
        assert!(r.is_err());
    }
}
