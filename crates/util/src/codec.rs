//! XDR-like canonical wire codec.
//!
//! SNIPE's client library performs "data conversion (e.g. between
//! different host architectures)" (paper §3.4). This module is that
//! canonical format: all multi-byte integers are big-endian (network
//! order), lengths are explicit `u32` prefixes, and every composite type
//! implements [`WireEncode`]/[`WireDecode`] so the same bytes decode on
//! any host. It doubles as the checkpoint format for process migration.
//!
//! # Declaring a message
//!
//! A message is an ordinary Rust type, listed once in
//! [`wire_codec!`](crate::wire_codec), which writes both traits for it:
//!
//! ```
//! use snipe_util::codec::{WireDecode, WireEncode};
//! use snipe_util::wire_codec;
//!
//! #[derive(Debug, PartialEq)]
//! pub enum Msg {
//!     Ask { id: u64, what: String },
//!     Grant(Vec<u16>),
//!     Bye,
//! }
//! wire_codec!(enum Msg: magic 0xEE { 1 => Ask { id, what }, 2 => Grant(ports), 3 => Bye });
//!
//! let bytes = Msg::Grant(vec![7]).encode_to_bytes();
//! assert_eq!(&bytes[..], &[0xEE, 2, 0, 0, 0, 1, 0, 7]);
//! assert_eq!(Msg::decode_from_bytes(bytes).unwrap(), Msg::Grant(vec![7]));
//! ```
//!
//! A value is its magic byte (if listed), its tag byte (enums), then its
//! fields in **listing order**, each through its own codec (integers,
//! `bool`, `f64`, `String`, `Bytes`, `Option`, `Vec`, `BTreeMap`,
//! `[u8; N]`, `HostId`, or another listed type). Decoding checks magic
//! and tag and reads the fields back in the same order.
//!
//! **The listing is the wire format**: a tag is never renumbered or
//! reused and a field never moves; new fields and variants are appended.
//! DESIGN.md ("Wire formats") tables the magic bytes in use.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{SnipeError, SnipeResult};
use crate::id::HostId;

/// Maximum length accepted for a single string or byte blob. Guards
/// against corrupt length prefixes causing multi-gigabyte allocations
/// (a sequence count is bounded by the bytes left instead).
pub const MAX_FIELD_LEN: usize = 64 << 20; // 64 MiB

/// Streaming encoder over a growable buffer.
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Encoder { buf: BytesMut::new() }
    }

    /// Encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: BytesMut::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a boolean as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Write a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Write a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Write a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Write a big-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Write an IEEE-754 f64 in network order.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64(v);
    }

    /// Write a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        assert!(v.len() <= MAX_FIELD_LEN, "field too large to encode");
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write raw bytes with no length prefix (caller manages framing).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming decoder over a byte slice.
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Decode from owned bytes.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Decode from a slice (copies).
    pub fn from_slice(buf: &[u8]) -> Self {
        Decoder { buf: Bytes::copy_from_slice(buf) }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize, what: &str) -> SnipeResult<()> {
        if self.buf.remaining() < n {
            return Err(SnipeError::Codec(format!(
                "truncated input: need {n} bytes for {what}, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> SnipeResult<u8> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Read a boolean; any nonzero byte other than 1 is rejected.
    pub fn get_bool(&mut self) -> SnipeResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnipeError::Codec(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> SnipeResult<u16> {
        self.need(2, "u16")?;
        Ok(self.buf.get_u16())
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> SnipeResult<u32> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32())
    }

    /// Read a big-endian u64.
    pub fn get_u64(&mut self) -> SnipeResult<u64> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64())
    }

    /// Read a big-endian i64.
    pub fn get_i64(&mut self) -> SnipeResult<i64> {
        self.need(8, "i64")?;
        Ok(self.buf.get_i64())
    }

    /// Read an IEEE-754 f64.
    pub fn get_f64(&mut self) -> SnipeResult<f64> {
        self.need(8, "f64")?;
        Ok(self.buf.get_f64())
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> SnipeResult<Bytes> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(SnipeError::Codec(format!("field length {len} exceeds limit")));
        }
        self.need(len, "bytes body")?;
        Ok(self.buf.split_to(len))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnipeResult<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|e| SnipeError::Codec(format!("invalid utf-8 string: {e}")))
    }

    /// Read `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> SnipeResult<Bytes> {
        self.need(n, "raw bytes")?;
        Ok(self.buf.split_to(n))
    }

    /// Error unless the input is fully consumed.
    pub fn expect_end(&self) -> SnipeResult<()> {
        if self.buf.has_remaining() {
            return Err(SnipeError::Codec(format!(
                "{} trailing bytes after decode",
                self.buf.remaining()
            )));
        }
        Ok(())
    }
}

/// Types encodable in the canonical wire format.
pub trait WireEncode {
    /// Append this value to the encoder.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encode standalone into bytes.
    fn encode_to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Types decodable from the canonical wire format.
pub trait WireDecode: Sized {
    /// Read one value from the decoder.
    fn decode(dec: &mut Decoder) -> SnipeResult<Self>;

    /// Convenience: decode a standalone value, requiring full consumption.
    fn decode_from_bytes(bytes: Bytes) -> SnipeResult<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

macro_rules! impl_wire_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl WireEncode for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
        }
        impl WireDecode for $ty {
            fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
                dec.$get()
            }
        }
    };
}

impl_wire_prim!(u8, put_u8, get_u8);
impl_wire_prim!(u16, put_u16, get_u16);
impl_wire_prim!(u32, put_u32, get_u32);
impl_wire_prim!(u64, put_u64, get_u64);
impl_wire_prim!(i64, put_i64, get_i64);
impl_wire_prim!(f64, put_f64, get_f64);
impl_wire_prim!(bool, put_bool, get_bool);

impl WireEncode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}

impl WireDecode for String {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        dec.get_str()
    }
}

impl WireEncode for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl WireDecode for Bytes {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        dec.get_bytes()
    }
}

/// Written raw: the length is part of the type.
impl<const N: usize> WireEncode for [u8; N] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self);
    }
}

impl<const N: usize> WireDecode for [u8; N] {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        let mut a = [0u8; N];
        a.copy_from_slice(&dec.get_raw(N)?);
        Ok(a)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

/// A `u32` count, then the elements (a `Vec<u8>` is therefore the same
/// bytes as a [`Bytes`] blob).
impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        encode_seq(enc, self.iter());
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        decode_seq(dec)
    }
}

/// A `u32` count, then each key and its value, in key order.
impl<K: WireEncode, V: WireEncode> WireEncode for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
}

impl<K: WireDecode + Ord, V: WireDecode> WireDecode for BTreeMap<K, V> {
    fn decode(dec: &mut Decoder) -> SnipeResult<Self> {
        let n = get_count(dec)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            map.insert(K::decode(dec)?, V::decode(dec)?);
        }
        Ok(map)
    }
}

/// Encode an arbitrary sequence with a u32 count prefix.
pub fn encode_seq<'a, T: WireEncode + 'a>(
    enc: &mut Encoder,
    items: impl ExactSizeIterator<Item = &'a T>,
) {
    enc.put_u32(items.len() as u32);
    for it in items {
        it.encode(enc);
    }
}

/// Decode a sequence previously written by [`encode_seq`].
pub fn decode_seq<T: WireDecode>(dec: &mut Decoder) -> SnipeResult<Vec<T>> {
    let n = get_count(dec)?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(T::decode(dec)?);
    }
    Ok(out)
}

/// Read a sequence's element count. Every element encodes to at least
/// one byte, so a count beyond the bytes left can only be forged; it is
/// refused before anything is read or reserved for it.
fn get_count(dec: &mut Decoder) -> SnipeResult<usize> {
    let n = dec.get_u32()? as usize;
    if n > dec.remaining() {
        return Err(SnipeError::Codec(format!(
            "count {n} exceeds the {} bytes left",
            dec.remaining()
        )));
    }
    Ok(n)
}

/// Read one byte and require it to be `magic`. A miss is the expected
/// answer when a receiver tries in turn the protocols sharing its port,
/// so it allocates nothing: the error carries no text.
pub fn expect_magic(dec: &mut Decoder, magic: u8) -> SnipeResult<()> {
    match dec.get_u8()? {
        b if b == magic => Ok(()),
        _ => Err(SnipeError::Codec(String::new())),
    }
}

/// The error for a tag no variant of `what` is listed under.
pub fn unknown_tag(what: &str, tag: u8) -> SnipeError {
    SnipeError::Codec(format!("unknown {what} tag {tag}"))
}

/// Implement [`WireEncode`] and [`WireDecode`] for a declared struct
/// (`struct S { a, b }`; a tuple struct lists positions, `{ 0 }`) or enum
/// (`enum E { 1 => Unit, 2 => Named { a, b }, 3 => Tuple(a, b) }`), with
/// an optional magic byte (`E: magic 0xA1`). See the module docs.
#[macro_export]
macro_rules! wire_codec {
    (struct $name:ident $(: magic $magic:literal)? { $($field:tt),* $(,)? }) => {
        impl $crate::codec::WireEncode for $name {
            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                $( enc.put_u8($magic); )?
                $( $crate::codec::WireEncode::encode(&self.$field, enc); )*
            }
        }
        impl $crate::codec::WireDecode for $name {
            fn decode(dec: &mut $crate::codec::Decoder) -> $crate::error::SnipeResult<Self> {
                $( $crate::codec::expect_magic(dec, $magic)?; )?
                Ok($name { $( $field: $crate::codec::WireDecode::decode(dec)?, )* })
            }
        }
    };
    (enum $name:ident $(: magic $magic:literal)? { $(
        $tag:literal => $variant:ident $({ $($named:ident),* })? $(( $($pos:ident),* ))?
    ),* $(,)? }) => {
        impl $crate::codec::WireEncode for $name {
            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                $( enc.put_u8($magic); )?
                match self {
                    $( $name::$variant $({ $($named),* })? $(( $($pos),* ))? => {
                        enc.put_u8($tag);
                        $( $( $crate::codec::WireEncode::encode($named, enc); )* )?
                        $( $( $crate::codec::WireEncode::encode($pos, enc); )* )?
                    } )*
                }
            }
        }
        impl $crate::codec::WireDecode for $name {
            fn decode(dec: &mut $crate::codec::Decoder) -> $crate::error::SnipeResult<Self> {
                $( $crate::codec::expect_magic(dec, $magic)?; )?
                Ok(match dec.get_u8()? {
                    $( $tag => $name::$variant
                        $({ $( $named: $crate::codec::WireDecode::decode(dec)?, )* })?
                        $(( $( $crate::wire_codec!(@one dec $pos), )* ))?, )*
                    tag => return Err($crate::codec::unknown_tag(stringify!($name), tag)),
                })
            }
        }
    };
    // One positional field: `$field` only names the position.
    (@one $dec:ident $field:ident) => {
        $crate::codec::WireDecode::decode($dec)?
    };
}

wire_codec!(struct HostId { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_f64(3.5);
        e.put_str("snipe");
        e.put_bytes(b"\x00\x01\x02");
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), 3.5);
        assert_eq!(d.get_str().unwrap(), "snipe");
        assert_eq!(&d.get_bytes().unwrap()[..], b"\x00\x01\x02");
        d.expect_end().unwrap();
    }

    #[test]
    fn network_byte_order_is_big_endian() {
        let mut e = Encoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(&e.finish()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut d = Decoder::from_slice(&[0, 0, 0, 10, 1, 2]);
        let err = d.get_bytes().unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_bytes().unwrap_err().kind(), "codec");
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut d = Decoder::from_slice(&[2]);
        assert_eq!(d.get_bool().unwrap_err().kind(), "codec");
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_str().unwrap_err().kind(), "codec");
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        let s = Option::<u64>::decode_from_bytes(some.encode_to_bytes()).unwrap();
        let n = Option::<u64>::decode_from_bytes(none.encode_to_bytes()).unwrap();
        assert_eq!(s, Some(9));
        assert_eq!(n, None);
    }

    #[test]
    fn seq_round_trip() {
        let mut e = Encoder::new();
        let v: Vec<u32> = vec![1, 2, 3, 4, 5];
        encode_seq(&mut e, v.iter());
        let mut d = Decoder::new(e.finish());
        let back: Vec<u32> = decode_seq(&mut d).unwrap();
        assert_eq!(back, v);
        d.expect_end().unwrap();
    }

    #[test]
    fn a_count_beyond_the_bytes_left_is_refused_before_reading() {
        // 1 000 elements claimed, 8 bytes present: refused as a forged
        // count, not discovered element by element as a truncation.
        let mut e = Encoder::new();
        e.put_u32(1_000);
        e.put_u64(7);
        let mut d = Decoder::new(e.finish());
        let err = decode_seq::<u8>(&mut d).unwrap_err();
        assert!(err.to_string().contains("count 1000 exceeds the 8 bytes left"), "{err}");
        assert_eq!(d.remaining(), 8, "elements were read for a forged count");
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let r = u8::decode_from_bytes(e.finish());
        assert_eq!(r.unwrap_err().kind(), "codec");
    }
}
