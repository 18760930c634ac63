//! Length-delimited binary codec for all federated messages.
//!
//! The workspace has no serialization dependency, so the protocol is
//! hand-rolled: little-endian integers, length-prefixed strings and
//! sequences, and a magic/version header on every frame. The same bytes flow over the in-process simulator channels
//! and the TCP transport, so the codec is exercised on every test run.

use crate::FlareError;

/// Frame magic: "CF" + protocol version 1.
pub const FRAME_MAGIC: [u8; 3] = [b'C', b'F', 1];

/// Types that can append themselves to a byte buffer.
pub trait WireEncode {
    /// Appends the encoded representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh framed buffer (magic + body).
    fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&FRAME_MAGIC);
        self.encode(&mut out);
        out
    }
}

/// Types that can be parsed back out of a [`WireReader`].
pub trait WireDecode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns [`FlareError::Codec`] on truncated or malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError>;

    /// Convenience: decodes from a framed buffer produced by
    /// [`WireEncode::to_frame`], checking the magic and requiring the
    /// buffer to be fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`FlareError::Codec`] on bad magic, truncation, or trailing
    /// bytes.
    fn from_frame(buf: &[u8]) -> Result<Self, FlareError> {
        if buf.len() < 3 || buf[..3] != FRAME_MAGIC {
            return Err(FlareError::Codec("bad frame magic".into()));
        }
        let mut r = WireReader::new(&buf[3..]);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(FlareError::Codec(format!(
                "{} trailing bytes after message",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

/// Cursor over a received byte buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current cursor position (for [`WireReader::since`]).
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// The bytes consumed since `mark` was taken — used by checksummed
    /// messages (see [`crate::codec`]) to recompute a CRC over exactly
    /// the bytes that were parsed.
    pub fn since(&self, mark: usize) -> &'a [u8] {
        &self.buf[mark..self.pos]
    }

    /// Consumes and returns the next `n` bytes as a slice (bulk variant
    /// of the typed decoders, used for packed byte payloads).
    ///
    /// # Errors
    ///
    /// Returns [`FlareError::Codec`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], FlareError> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FlareError> {
        if self.remaining() < n {
            return Err(FlareError::Codec(format!(
                "needed {n} bytes, only {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

impl WireEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        Ok(r.take(1)?[0])
    }
}

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FlareError::Codec(format!("invalid bool byte {b}"))),
        }
    }
}

macro_rules! impl_le_number {
    ($($t:ty),*) => {$(
        impl WireEncode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl WireDecode for $t {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}
impl_le_number!(u16, u32, u64, i64, f32, f64);

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| FlareError::Codec(format!("usize overflow: {v}")))
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let n = usize::decode(r)?;
        if n > 1 << 24 {
            return Err(FlareError::Codec(format!("string length {n} too large")));
        }
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FlareError::Codec(format!("invalid utf-8: {e}")))
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let n = usize::decode(r)?;
        // Defensive bound: each element needs at least one byte.
        if n > r.remaining() {
            return Err(FlareError::Codec(format!(
                "sequence claims {n} elements with {} bytes left",
                r.remaining()
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(FlareError::Codec(format!("invalid Option tag {b}"))),
        }
    }
}

impl<V: WireEncode> WireEncode for std::collections::BTreeMap<String, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<V: WireDecode> WireDecode for std::collections::BTreeMap<String, V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let n = usize::decode(r)?;
        if n > r.remaining() {
            return Err(FlareError::Codec(format!(
                "map claims {n} entries with {} bytes left",
                r.remaining()
            )));
        }
        let mut m = std::collections::BTreeMap::new();
        for _ in 0..n {
            let k = String::decode(r)?;
            let v = V::decode(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

// Vec<f32> gets a fast-path bulk encoding through the generic impl above;
// the per-element overhead is just the 4-byte copies, which is fine.

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let frame = v.to_frame();
        let back = T::from_frame(&frame).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u16);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.5f32);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(1234usize);
        roundtrip(String::from("hello 漢字"));
        roundtrip(String::new());
    }

    #[test]
    fn vec_and_map_roundtrips() {
        roundtrip(vec![1.0f32, -2.0, 3.25]);
        roundtrip(Vec::<f32>::new());
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.5f64);
        m.insert("b".to_string(), -0.25);
        roundtrip(m);
    }

    #[test]
    fn option_roundtrips() {
        roundtrip(Some(0.75f64));
        roundtrip(None::<f64>);
        roundtrip(Some(String::from("best")));
        roundtrip(Some(vec![1u32, 2, 3]));
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let mut frame = FRAME_MAGIC.to_vec();
        frame.push(2);
        frame.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(Option::<f64>::from_frame(&frame).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = u32::from_frame(&[0, 0, 0, 1, 2, 3, 4]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncation_rejected() {
        let frame = 12345u32.to_frame();
        assert!(u32::from_frame(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = 7u32.to_frame();
        frame.push(9);
        assert!(u32::from_frame(&frame).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut frame = FRAME_MAGIC.to_vec();
        frame.push(7);
        assert!(bool::from_frame(&frame).is_err());
    }

    #[test]
    fn hostile_length_rejected() {
        // A sequence claiming u64::MAX elements must fail fast, not OOM.
        let mut frame = FRAME_MAGIC.to_vec();
        u64::MAX.encode(&mut frame);
        assert!(Vec::<f32>::from_frame(&frame).is_err());
    }
}
