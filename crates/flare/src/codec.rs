//! Negotiated wire codec for weight exchange: delta encoding, f16/int8
//! quantization with error feedback, and optional top-k sparsification.
//!
//! Raw federated rounds ship every tensor as full little-endian f32 in
//! both directions (see [`crate::wire`]); at 8 sites that is ~40 MB per
//! round for the paper's LSTM. This module implements the compressed
//! alternative, negotiated per client at registration time (see the
//! DESIGN.md §3g wire-format spec for the normative layout):
//!
//! * **Delta encoding** — payloads are encoded against a *base* payload
//!   identified by `base_id`. The server keeps a [`GlobalRing`] of recent
//!   globals so stragglers can still delta against an older round; the
//!   client mirrors it with a [`PayloadCache`]. When the quantizer is
//!   lossless (`f32`), deltas are XOR-of-bits + run-length encoding, so
//!   `decode(encode(w)) == w` *bit-exactly* and unchanged tensors
//!   collapse to a few bytes.
//! * **Quantization** — `f16` (IEEE 754 binary16) or `int8` (symmetric,
//!   per-tensor scale = max|v|/127, zero-point fixed at 0). Lossy
//!   uplink encoders carry the rounding residue into the next round via
//!   an [`ErrorFeedback`] accumulator; the downlink chain gets the same
//!   property structurally, because each canonical delta is computed
//!   against the *reconstruction* of the previous payload.
//! * **Top-k sparsification** — keeps the `k = ⌈numel·f⌉` largest-|v|
//!   coordinates (ties broken toward lower indices) as sorted
//!   index+value pairs, composed *before* quantization.
//!
//! Every [`EncodedWeights`] frame carries a codec tag, the payload/base
//! identifiers, and a CRC-32 trailer (same polynomial as
//! [`crate::checkpoint`]), so truncation or bit-flips that slip past the
//! transport MAC are still rejected deterministically.

use crate::checkpoint::crc32;
use crate::dxo::{WeightTensor, Weights};
use crate::wire::{WireDecode, WireEncode, WireReader};
use crate::FlareError;
use clinfl_obs::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Sentinel `base_id`: the frame is self-contained (no delta base).
pub const NO_BASE: u32 = u32::MAX;

/// Default depth of the server's [`GlobalRing`] and the client's
/// [`PayloadCache`]: deep enough that a straggler two full rounds behind
/// (Train + Validate payloads per round) still finds its base.
pub const DEFAULT_RING_DEPTH: usize = 8;

/// Largest tensor the decoder will materialize (elements). Frames are
/// attacker-controlled bytes; this bounds allocation before any data is
/// trusted.
const MAX_DECODE_ELEMS: usize = 1 << 31;

/// Start of the error an [`EncodedWeights`] CRC mismatch decodes to.
const CRC_MISMATCH: &str = "encoded-weights CRC mismatch";

/// Counts `flare.wire.codec.crc_rejects` in the endpoint's `obs` when a
/// frame failed to decode on an [`EncodedWeights`] CRC mismatch.
pub(crate) fn count_crc_reject(obs: &Registry, e: &FlareError) {
    if matches!(e, FlareError::Codec(m) if m.starts_with(CRC_MISMATCH)) {
        obs.add_counter("flare.wire.codec.crc_rejects", 1);
    }
}

// ---------------------------------------------------------------------
// Codec specification & negotiation strings
// ---------------------------------------------------------------------

/// Quantization applied to transmitted values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMode {
    /// No quantization: exact f32 values (lossless).
    F32,
    /// IEEE 754 binary16 (half precision), round-to-nearest-even.
    F16,
    /// Symmetric int8: `v ≈ q * scale`, `scale = max|v| / 127`,
    /// zero-point fixed at 0 (the field exists in the wire spec for
    /// forward compatibility but is always zero in protocol v1).
    Int8,
}

/// A parsed wire-codec choice, e.g. `delta+int8` or `delta+topk0.05+f16`.
///
/// The string form (see [`CodecSpec::parse`]) is what clients propose at
/// negotiation time and the value of the federation spec's `codec` key
/// (`clinfl --codec`, see [`crate::spec`]); a parsed spec is
/// [`crate::simulator::SimulatorConfig::wire`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecSpec {
    /// Encode payloads as deltas against an acknowledged base payload.
    pub delta: bool,
    /// Quantization mode for transmitted values.
    pub quant: QuantMode,
    /// Top-k sparsification fraction in permille (1..=1000); `None`
    /// sends all coordinates.
    pub topk_permille: Option<u16>,
}

impl CodecSpec {
    /// The identity codec: full f32 tensors, exactly the legacy format's
    /// information content.
    pub fn raw() -> Self {
        CodecSpec {
            delta: false,
            quant: QuantMode::F32,
            topk_permille: None,
        }
    }

    /// True when this spec performs no transformation at all.
    pub fn is_raw(&self) -> bool {
        !self.delta && self.quant == QuantMode::F32 && self.topk_permille.is_none()
    }

    /// True when encode→decode is bit-exact (no quantization, no
    /// sparsification). Bit-exact specs keep federations and chaos-resume
    /// runs byte-identical to all-raw runs.
    pub fn is_lossless(&self) -> bool {
        self.quant == QuantMode::F32 && self.topk_permille.is_none()
    }

    /// Parses a codec string: `+`-separated components from
    /// `raw | delta | f32 | f16 | int8 | topk<fraction>`, e.g.
    /// `"delta+int8"` or `"delta+topk0.05+int8"`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown or duplicate
    /// components and out-of-range top-k fractions.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim().to_ascii_lowercase();
        if s.is_empty() {
            return Err("empty codec spec".into());
        }
        let mut spec = CodecSpec::raw();
        let mut saw_quant = false;
        for part in s.split('+') {
            match part {
                "raw" | "f32" => {
                    if saw_quant {
                        return Err(format!("duplicate quantizer in {s:?}"));
                    }
                    saw_quant = true;
                }
                "delta" => {
                    if spec.delta {
                        return Err(format!("duplicate delta in {s:?}"));
                    }
                    spec.delta = true;
                }
                "f16" | "int8" => {
                    if saw_quant {
                        return Err(format!("duplicate quantizer in {s:?}"));
                    }
                    saw_quant = true;
                    spec.quant = if part == "f16" {
                        QuantMode::F16
                    } else {
                        QuantMode::Int8
                    };
                }
                p if p.starts_with("topk") => {
                    if spec.topk_permille.is_some() {
                        return Err(format!("duplicate topk in {s:?}"));
                    }
                    let frac: f64 = p[4..]
                        .parse()
                        .map_err(|_| format!("bad topk fraction in {p:?}"))?;
                    if !(frac > 0.0 && frac <= 1.0) {
                        return Err(format!("topk fraction {frac} outside (0, 1]"));
                    }
                    let pm = (frac * 1000.0).round() as u16;
                    spec.topk_permille = Some(pm.clamp(1, 1000));
                }
                other => return Err(format!("unknown codec component {other:?}")),
            }
        }
        Ok(spec)
    }

    /// Canonical one-byte codec tag carried by every encoded frame:
    /// bit 0 = delta, bits 1–2 = quantizer (0 = f32, 1 = f16, 2 = int8),
    /// bit 3 = top-k.
    pub fn tag(&self) -> u8 {
        let q = match self.quant {
            QuantMode::F32 => 0u8,
            QuantMode::F16 => 1,
            QuantMode::Int8 => 2,
        };
        (self.delta as u8) | (q << 1) | ((self.topk_permille.is_some() as u8) << 3)
    }
}

impl std::fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_raw() {
            return f.write_str("raw");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.delta {
            parts.push("delta".into());
        }
        if let Some(pm) = self.topk_permille {
            parts.push(format!("topk{}", f64::from(pm) / 1000.0));
        }
        match self.quant {
            QuantMode::F32 => {}
            QuantMode::F16 => parts.push("f16".into()),
            QuantMode::Int8 => parts.push("int8".into()),
        }
        f.write_str(&parts.join("+"))
    }
}

/// Codec families this build understands, advertised in the
/// negotiation acknowledgement so clients can diagnose rejections.
pub const SUPPORTED_CODECS: &[&str] = &["raw", "delta", "f16", "int8", "topk<f>"];

// ---------------------------------------------------------------------
// f16 conversion (no half-float crate in the offline dependency set)
// ---------------------------------------------------------------------

/// Converts f32 to IEEE 754 binary16 bits, round-to-nearest-even, with
/// overflow to ±inf and underflow through subnormals to ±0.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN; keep NaN recognizable by forcing a mantissa bit.
        let payload = (man >> 13) as u16 & 0x03ff;
        let nan = if man != 0 && payload == 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan | payload;
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → inf
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflows even the smallest subnormal
        }
        let man = man | 0x0080_0000; // restore the implicit bit
        let shift = (14 - e) as u32; // 14..=24
        let half = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && half & 1 == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    let half = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let rounded = if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half + 1 // carry may roll into the exponent (or to inf) — correct
    } else {
        half
    };
    sign | rounded as u16
}

/// Converts IEEE 754 binary16 bits back to f32 (exact).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal: renormalize into the f32 format.
            let mut e = 113u32; // 127 - 14
            let mut m = man << 13;
            while m & 0x0080_0000 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (e << 23) | (m & 0x007f_ffff)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------
// Zero run-length encoding for packed byte payloads
// ---------------------------------------------------------------------

/// Compresses runs of zero bytes: a sequence of
/// `[zero_run: u16 LE][literal_len: u16 LE][literal bytes]` records.
/// Worst case (alternating single zeros) expands, so callers keep the
/// smaller of raw vs packed (see [`rle_pack`]).
pub fn rle_compress(bytes: &[u8]) -> Vec<u8> {
    let cap = usize::from(u16::MAX);
    let mut out = Vec::with_capacity(bytes.len() / 4 + 8);
    let mut i = 0;
    while i < bytes.len() {
        let zs = i;
        while i < bytes.len() && bytes[i] == 0 && i - zs < cap {
            i += 1;
        }
        let ls = i;
        while i < bytes.len() && bytes[i] != 0 && i - ls < cap {
            i += 1;
        }
        out.extend_from_slice(&((ls - zs) as u16).to_le_bytes());
        out.extend_from_slice(&((i - ls) as u16).to_le_bytes());
        out.extend_from_slice(&bytes[ls..i]);
    }
    out
}

/// Reverses [`rle_compress`]; `expected_len` bounds the allocation and
/// must match exactly.
///
/// # Errors
///
/// [`FlareError::Codec`] on truncated records or length mismatch.
pub fn rle_decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>, FlareError> {
    let mut out = Vec::with_capacity(expected_len.min(MAX_DECODE_ELEMS));
    let mut i = 0;
    while i < data.len() {
        if data.len() - i < 4 {
            return Err(FlareError::Codec("truncated RLE record".into()));
        }
        let zrun = usize::from(u16::from_le_bytes([data[i], data[i + 1]]));
        let lit = usize::from(u16::from_le_bytes([data[i + 2], data[i + 3]]));
        i += 4;
        if lit > data.len() - i {
            return Err(FlareError::Codec("RLE literal overruns input".into()));
        }
        if out.len() + zrun + lit > expected_len {
            return Err(FlareError::Codec(
                "RLE output exceeds expected length".into(),
            ));
        }
        out.resize(out.len() + zrun, 0);
        out.extend_from_slice(&data[i..i + lit]);
        i += lit;
    }
    if out.len() != expected_len {
        return Err(FlareError::Codec(format!(
            "RLE output {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Picks the smaller of the raw bytes and their RLE form; the bool is
/// the `rle` wire flag.
pub fn rle_pack(bytes: Vec<u8>) -> (bool, Vec<u8>) {
    let packed = rle_compress(&bytes);
    if packed.len() < bytes.len() {
        (true, packed)
    } else {
        (false, bytes)
    }
}

fn rle_unpack(rle: bool, bytes: &[u8], expected_len: usize) -> Result<Vec<u8>, FlareError> {
    if rle {
        rle_decompress(bytes, expected_len)
    } else if bytes.len() == expected_len {
        Ok(bytes.to_vec())
    } else {
        Err(FlareError::Codec(format!(
            "packed payload {} bytes, expected {expected_len}",
            bytes.len()
        )))
    }
}

// ---------------------------------------------------------------------
// Encoded frame types
// ---------------------------------------------------------------------

/// Values of one top-k sparsified tensor, in the selected quantization.
#[derive(Clone, Debug, PartialEq)]
pub enum SparseValues {
    /// Exact f32 values.
    F32(Vec<f32>),
    /// binary16 values.
    F16(Vec<u16>),
    /// Symmetric int8 values with their per-tensor scale.
    Int8 {
        /// Dequantization scale (`v ≈ q * scale`).
        scale: f32,
        /// One two's-complement byte per kept coordinate.
        bytes: Vec<u8>,
    },
}

/// One tensor's encoded body.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorBody {
    /// Bitwise-identical to the base tensor (delta frames only).
    Same,
    /// Dense exact f32 values (self-contained full frames).
    F32(Vec<f32>),
    /// Lossless delta: value bits XOR base bits, optionally RLE-packed.
    Xor {
        /// Whether `bytes` is RLE-packed.
        rle: bool,
        /// `numel * 4` XOR bytes (after unpacking).
        bytes: Vec<u8>,
    },
    /// Dense binary16 values (absolute, or deltas when the frame has a
    /// base).
    F16(Vec<u16>),
    /// Dense symmetric int8 values.
    Int8 {
        /// Dequantization scale (`v ≈ q * scale`).
        scale: f32,
        /// Whether `bytes` is RLE-packed.
        rle: bool,
        /// One byte per element (after unpacking).
        bytes: Vec<u8>,
    },
    /// Top-k sparse coordinates: strictly increasing indices plus values.
    Sparse {
        /// Flat indices into the row-major tensor, strictly increasing.
        indices: Vec<u32>,
        /// The kept values.
        values: SparseValues,
    },
}

/// One encoded tensor: its shape plus the encoded body.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedTensor {
    /// Tensor shape (row-major).
    pub dims: Vec<usize>,
    /// Encoded payload.
    pub body: TensorBody,
}

/// A complete encoded weight set: the compressed replacement for a raw
/// [`Weights`] map inside `TrainEnc` / `ValidateEnc` / `SubmitEnc`
/// messages. The wire form ends in a CRC-32 of the frame body.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedWeights {
    /// Codec tag of the spec that produced this frame (see
    /// [`CodecSpec::tag`]); informational, for logs and forensics.
    pub tag: u8,
    /// Identifier of this payload in the sender's ring (0 on uplink
    /// frames, which are never used as delta bases).
    pub payload_id: u32,
    /// Base payload this frame is a delta against, or [`NO_BASE`].
    pub base_id: u32,
    /// True when the payload is bitwise-identical to the base: `tensors`
    /// is empty and the receiver reuses its reconstruction of `base_id`.
    pub alias: bool,
    /// Per-tensor encoded bodies.
    pub tensors: BTreeMap<String, EncodedTensor>,
}

impl SparseValues {
    fn len(&self) -> usize {
        match self {
            SparseValues::F32(v) => v.len(),
            SparseValues::F16(v) => v.len(),
            SparseValues::Int8 { bytes, .. } => bytes.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Wire encoding of the frame types
// ---------------------------------------------------------------------

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    bytes.len().encode(out);
    out.extend_from_slice(bytes);
}

fn decode_bytes(r: &mut WireReader<'_>) -> Result<Vec<u8>, FlareError> {
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(FlareError::Codec(format!(
            "byte payload claims {n} bytes with {} left",
            r.remaining()
        )));
    }
    Ok(r.take_bytes(n)?.to_vec())
}

impl WireEncode for SparseValues {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SparseValues::F32(v) => {
                0u8.encode(out);
                v.encode(out);
            }
            SparseValues::F16(v) => {
                1u8.encode(out);
                v.encode(out);
            }
            SparseValues::Int8 { scale, bytes } => {
                2u8.encode(out);
                scale.encode(out);
                encode_bytes(bytes, out);
            }
        }
    }
}

impl WireDecode for SparseValues {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(SparseValues::F32(Vec::decode(r)?)),
            1 => Ok(SparseValues::F16(Vec::decode(r)?)),
            2 => Ok(SparseValues::Int8 {
                scale: f32::decode(r)?,
                bytes: decode_bytes(r)?,
            }),
            t => Err(FlareError::Codec(format!("unknown sparse-values tag {t}"))),
        }
    }
}

impl WireEncode for TensorBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TensorBody::Same => 0u8.encode(out),
            TensorBody::F32(v) => {
                1u8.encode(out);
                v.encode(out);
            }
            TensorBody::Xor { rle, bytes } => {
                2u8.encode(out);
                rle.encode(out);
                encode_bytes(bytes, out);
            }
            TensorBody::F16(v) => {
                3u8.encode(out);
                v.encode(out);
            }
            TensorBody::Int8 { scale, rle, bytes } => {
                4u8.encode(out);
                scale.encode(out);
                rle.encode(out);
                encode_bytes(bytes, out);
            }
            TensorBody::Sparse { indices, values } => {
                5u8.encode(out);
                indices.encode(out);
                values.encode(out);
            }
        }
    }
}

impl WireDecode for TensorBody {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(TensorBody::Same),
            1 => Ok(TensorBody::F32(Vec::decode(r)?)),
            2 => Ok(TensorBody::Xor {
                rle: bool::decode(r)?,
                bytes: decode_bytes(r)?,
            }),
            3 => Ok(TensorBody::F16(Vec::decode(r)?)),
            4 => Ok(TensorBody::Int8 {
                scale: f32::decode(r)?,
                rle: bool::decode(r)?,
                bytes: decode_bytes(r)?,
            }),
            5 => Ok(TensorBody::Sparse {
                indices: Vec::decode(r)?,
                values: SparseValues::decode(r)?,
            }),
            t => Err(FlareError::Codec(format!("unknown tensor-body tag {t}"))),
        }
    }
}

impl WireEncode for EncodedTensor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.body.encode(out);
    }
}

impl WireDecode for EncodedTensor {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        Ok(EncodedTensor {
            dims: Vec::decode(r)?,
            body: TensorBody::decode(r)?,
        })
    }
}

impl WireEncode for EncodedWeights {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.tag.encode(out);
        self.payload_id.encode(out);
        self.base_id.encode(out);
        self.alias.encode(out);
        self.tensors.encode(out);
        // CRC-32 trailer over the body encoded above (checkpoint-style
        // corruption rejection on the wire).
        crc32(&out[start..]).encode(out);
    }
}

impl WireDecode for EncodedWeights {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let mark = r.mark();
        let tag = u8::decode(r)?;
        let payload_id = u32::decode(r)?;
        let base_id = u32::decode(r)?;
        let alias = bool::decode(r)?;
        let tensors = BTreeMap::decode(r)?;
        let want = crc32(r.since(mark));
        let got = u32::decode(r)?;
        if want != got {
            return Err(FlareError::Codec(format!(
                "{CRC_MISMATCH}: stored {got:#010x}, computed {want:#010x}"
            )));
        }
        Ok(EncodedWeights {
            tag,
            payload_id,
            base_id,
            alias,
            tensors,
        })
    }
}

// ---------------------------------------------------------------------
// Raw-equivalent sizes (for the flare.wire.bytes_*_raw counters)
// ---------------------------------------------------------------------

/// Exact wire size in bytes of a [`Weights`] map in the raw (legacy)
/// encoding — pinned by a test against the actual encoder so the
/// `flare.wire.bytes_*_raw` counters cannot drift from reality.
pub fn raw_weights_wire_size(w: &Weights) -> u64 {
    // Map length prefix, then per entry: length-prefixed name, dims
    // (count + one u64 each), data (count + one f32 each).
    8 + w
        .iter()
        .map(|(k, t)| 8 + k.len() as u64 + 8 + 8 * t.dims.len() as u64 + 8 + 4 * t.numel() as u64)
        .sum::<u64>()
}

/// Raw-equivalent size of a `ServerMessage::Task` frame carrying
/// `weights` (Train or Validate — both add 1 message tag + 1 task tag +
/// one or two u32 round fields to the 3-byte frame magic).
pub fn raw_task_frame_size(w: &Weights, is_train: bool) -> u64 {
    let rounds = if is_train { 8 } else { 4 };
    3 + 1 + 1 + rounds + raw_weights_wire_size(w)
}

/// Raw-equivalent size of a `ClientMessage::Submit` frame carrying the
/// given weights and metrics map.
pub fn raw_submit_frame_size(w: &Weights, metrics: &BTreeMap<String, f64>) -> u64 {
    let metrics_size = 8 + metrics.keys().map(|k| 8 + k.len() as u64 + 8).sum::<u64>();
    // magic + message tag + round + dxo{kind + weights + metrics + n_examples}
    3 + 1 + 4 + 1 + raw_weights_wire_size(w) + metrics_size + 8
}

// ---------------------------------------------------------------------
// Error feedback
// ---------------------------------------------------------------------

/// Per-tensor residual accumulators: the difference between what a lossy
/// encoder wanted to send and what the receiver will reconstruct. The
/// residual is added back into the next round's values, so quantization
/// and sparsification error is deferred, not lost (error feedback in the
/// sense of 1-bit SGD / deep gradient compression).
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    residuals: BTreeMap<String, Vec<f32>>,
}

// ---------------------------------------------------------------------
// Core encode / decode
// ---------------------------------------------------------------------

fn tensor_bits_equal(a: &WeightTensor, b: &WeightTensor) -> bool {
    a.dims == b.dims
        && a.data.len() == b.data.len()
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True when two weight maps are bitwise identical (names, shapes, and
/// every f32 bit pattern).
pub fn weights_bits_equal(a: &Weights, b: &Weights) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((an, at), (bn, bt))| an == bn && tensor_bits_equal(at, bt))
}

/// A 64-bit fingerprint of `w`'s exact contents: an FNV-1a-style fold
/// over every name, shape and f32 bit pattern in name order. Maps that
/// are [`weights_bits_equal`] share a digest, and changing any single
/// value, dimension or name changes it (each fold step is a bijection of
/// the running state), so a committed digest pins a result's bits across
/// commits.
pub fn weights_digest(w: &Weights) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, t) in w {
        h = fold(h, name.len() as u64);
        h = name.bytes().fold(h, |h, b| fold(h, u64::from(b)));
        h = fold(h, t.dims.len() as u64);
        h = t.dims.iter().fold(h, |h, &d| fold(h, d as u64));
        h = t
            .data
            .iter()
            .fold(h, |h, v| fold(h, u64::from(v.to_bits())));
    }
    h
}

fn checked_numel(dims: &[usize]) -> Result<usize, FlareError> {
    let mut n: usize = 1;
    for &d in dims {
        n = n
            .checked_mul(d)
            .ok_or_else(|| FlareError::Codec("tensor shape overflows usize".into()))?;
    }
    if n > MAX_DECODE_ELEMS {
        return Err(FlareError::Codec(format!(
            "tensor with {n} elements too large"
        )));
    }
    Ok(n)
}

fn int8_quantize(v: &[f32]) -> (f32, Vec<u8>) {
    let maxabs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let scale = maxabs / 127.0;
    if scale == 0.0 || !scale.is_finite() {
        return (0.0, vec![0u8; v.len()]);
    }
    let bytes = v
        .iter()
        .map(|x| ((x / scale).round().clamp(-127.0, 127.0) as i8) as u8)
        .collect();
    (scale, bytes)
}

fn int8_dequantize(scale: f32, bytes: &[u8]) -> Vec<f32> {
    bytes.iter().map(|&b| f32::from(b as i8) * scale).collect()
}

/// Selects the `k` largest-|v| flat indices (ties toward lower index),
/// returned sorted ascending.
fn topk_indices(v: &[f32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..v.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        v[b as usize]
            .abs()
            .total_cmp(&v[a as usize].abs())
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Encodes `w` under `spec`, optionally as a delta against `base`
/// (reconstruction + payload id). When `feedback` is provided and the
/// spec is lossy, residuals are added before encoding and updated with
/// the new quantization error afterwards.
///
/// # Errors
///
/// [`FlareError::Codec`] when `base` shapes do not match `w`.
pub fn encode_weights(
    w: &Weights,
    payload_id: u32,
    base: Option<(&Weights, u32)>,
    spec: &CodecSpec,
    mut feedback: Option<&mut ErrorFeedback>,
) -> Result<EncodedWeights, FlareError> {
    let (base_w, base_id) = match (spec.delta, base) {
        (true, Some((bw, bid))) => (Some(bw), bid),
        _ => (None, NO_BASE),
    };
    let lossy = !spec.is_lossless();
    let mut tensors = BTreeMap::new();
    for (name, t) in w {
        let bt = match base_w {
            Some(bw) => {
                let bt = bw.get(name).ok_or_else(|| {
                    FlareError::Codec(format!("delta base missing tensor {name:?}"))
                })?;
                if bt.dims != t.dims {
                    return Err(FlareError::Codec(format!(
                        "delta base shape mismatch for {name:?}"
                    )));
                }
                Some(bt)
            }
            None => None,
        };
        let residual_zero = feedback
            .as_ref()
            .map(|fb| {
                fb.residuals
                    .get(name)
                    .map(|r| r.iter().all(|&x| x == 0.0))
                    .unwrap_or(true)
            })
            .unwrap_or(true);
        // Unchanged tensor and nothing deferred: one byte on the wire.
        if let Some(bt) = bt {
            if residual_zero && tensor_bits_equal(t, bt) {
                tensors.insert(
                    name.clone(),
                    EncodedTensor {
                        dims: t.dims.clone(),
                        body: TensorBody::Same,
                    },
                );
                continue;
            }
        }
        // Lossless delta: XOR of bit patterns, so identical spans RLE to
        // nothing and decode is exact.
        if spec.is_lossless() {
            let body = match bt {
                Some(bt) => {
                    let mut xored = Vec::with_capacity(t.data.len() * 4);
                    for (a, b) in t.data.iter().zip(&bt.data) {
                        xored.extend_from_slice(&(a.to_bits() ^ b.to_bits()).to_le_bytes());
                    }
                    let (rle, bytes) = rle_pack(xored);
                    TensorBody::Xor { rle, bytes }
                }
                None => TensorBody::F32(t.data.clone()),
            };
            tensors.insert(
                name.clone(),
                EncodedTensor {
                    dims: t.dims.clone(),
                    body,
                },
            );
            continue;
        }
        // Numeric path: delta (if based), plus deferred residual.
        let mut v: Vec<f32> = match bt {
            Some(bt) => t.data.iter().zip(&bt.data).map(|(a, b)| a - b).collect(),
            None => t.data.clone(),
        };
        if lossy {
            if let Some(fb) = feedback.as_deref_mut() {
                let r = fb
                    .residuals
                    .entry(name.clone())
                    .or_insert_with(|| vec![0.0; v.len()]);
                if r.len() != v.len() {
                    // Model shape changed under us; drop the stale residual.
                    *r = vec![0.0; v.len()];
                }
                for (x, rr) in v.iter_mut().zip(r.iter()) {
                    *x += rr;
                }
            }
        }
        // recon mirrors what the receiver will reconstruct (relative to
        // the base), so the residual update is exact.
        let (body, recon) = if let Some(pm) = spec.topk_permille {
            let numel = v.len();
            let k = ((numel * usize::from(pm)).div_ceil(1000)).max(1).min(numel);
            let indices = topk_indices(&v, k);
            let picked: Vec<f32> = indices.iter().map(|&i| v[i as usize]).collect();
            let (values, dq): (SparseValues, Vec<f32>) = match spec.quant {
                QuantMode::F32 => (SparseValues::F32(picked.clone()), picked),
                QuantMode::F16 => {
                    let h: Vec<u16> = picked.iter().map(|&x| f32_to_f16(x)).collect();
                    let dq = h.iter().map(|&b| f16_to_f32(b)).collect();
                    (SparseValues::F16(h), dq)
                }
                QuantMode::Int8 => {
                    let (scale, bytes) = int8_quantize(&picked);
                    let dq = int8_dequantize(scale, &bytes);
                    (SparseValues::Int8 { scale, bytes }, dq)
                }
            };
            let mut recon = vec![0.0f32; numel];
            for (&i, &x) in indices.iter().zip(&dq) {
                recon[i as usize] = x;
            }
            (TensorBody::Sparse { indices, values }, recon)
        } else {
            match spec.quant {
                QuantMode::F32 => unreachable!("lossless handled above"),
                QuantMode::F16 => {
                    let h: Vec<u16> = v.iter().map(|&x| f32_to_f16(x)).collect();
                    let recon = h.iter().map(|&b| f16_to_f32(b)).collect();
                    (TensorBody::F16(h), recon)
                }
                QuantMode::Int8 => {
                    let (scale, bytes) = int8_quantize(&v);
                    let recon = int8_dequantize(scale, &bytes);
                    let (rle, bytes) = rle_pack(bytes);
                    (TensorBody::Int8 { scale, rle, bytes }, recon)
                }
            }
        };
        if let Some(fb) = feedback.as_deref_mut() {
            let r = fb
                .residuals
                .entry(name.clone())
                .or_insert_with(|| vec![0.0; v.len()]);
            for ((rr, &want), &got) in r.iter_mut().zip(&v).zip(&recon) {
                *rr = want - got;
            }
        }
        tensors.insert(
            name.clone(),
            EncodedTensor {
                dims: t.dims.clone(),
                body,
            },
        );
    }
    Ok(EncodedWeights {
        tag: spec.tag(),
        payload_id,
        base_id,
        alias: false,
        tensors,
    })
}

/// Builds an alias frame: "payload `id` is bitwise-identical to your
/// reconstruction of `base_id`".
pub fn alias_frame(tag: u8, payload_id: u32, base_id: u32) -> EncodedWeights {
    EncodedWeights {
        tag,
        payload_id,
        base_id,
        alias: true,
        tensors: BTreeMap::new(),
    }
}

/// Decodes an [`EncodedWeights`] frame against an optional base
/// reconstruction (required iff the frame's `base_id` is not
/// [`NO_BASE`]).
///
/// # Errors
///
/// [`FlareError::Codec`] on missing/mismatched bases, malformed bodies,
/// out-of-range sparse indices, or length mismatches.
pub fn decode_weights(enc: &EncodedWeights, base: Option<&Weights>) -> Result<Weights, FlareError> {
    let base = if enc.base_id == NO_BASE {
        None
    } else {
        Some(base.ok_or_else(|| {
            FlareError::Codec(format!("frame needs base payload {}", enc.base_id))
        })?)
    };
    if enc.alias {
        if !enc.tensors.is_empty() {
            return Err(FlareError::Codec("alias frame carries tensors".into()));
        }
        let b = base.ok_or_else(|| FlareError::Codec("alias frame without base".into()))?;
        return Ok(b.clone());
    }
    let mut out = Weights::new();
    for (name, et) in &enc.tensors {
        let numel = checked_numel(&et.dims)?;
        let bt = match base {
            Some(bw) => {
                let bt = bw
                    .get(name)
                    .ok_or_else(|| FlareError::Codec(format!("base missing tensor {name:?}")))?;
                if bt.dims != et.dims {
                    return Err(FlareError::Codec(format!(
                        "base shape mismatch for {name:?}"
                    )));
                }
                Some(bt)
            }
            None => None,
        };
        let data: Vec<f32> = match &et.body {
            TensorBody::Same => {
                let bt = bt
                    .ok_or_else(|| FlareError::Codec("Same body in self-contained frame".into()))?;
                bt.data.clone()
            }
            TensorBody::F32(v) => {
                if v.len() != numel {
                    return Err(FlareError::Codec(format!(
                        "f32 body length {} != numel {numel}",
                        v.len()
                    )));
                }
                match bt {
                    Some(bt) => v.iter().zip(&bt.data).map(|(d, b)| b + d).collect(),
                    None => v.clone(),
                }
            }
            TensorBody::Xor { rle, bytes } => {
                let bt =
                    bt.ok_or_else(|| FlareError::Codec("XOR body in self-contained frame".into()))?;
                let raw = rle_unpack(*rle, bytes, numel * 4)?;
                raw.chunks_exact(4)
                    .zip(&bt.data)
                    .map(|(c, b)| {
                        let d = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                        f32::from_bits(b.to_bits() ^ d)
                    })
                    .collect()
            }
            TensorBody::F16(v) => {
                if v.len() != numel {
                    return Err(FlareError::Codec(format!(
                        "f16 body length {} != numel {numel}",
                        v.len()
                    )));
                }
                match bt {
                    Some(bt) => v
                        .iter()
                        .zip(&bt.data)
                        .map(|(&h, b)| b + f16_to_f32(h))
                        .collect(),
                    None => v.iter().map(|&h| f16_to_f32(h)).collect(),
                }
            }
            TensorBody::Int8 { scale, rle, bytes } => {
                let raw = rle_unpack(*rle, bytes, numel)?;
                let dq = int8_dequantize(*scale, &raw);
                match bt {
                    Some(bt) => dq.iter().zip(&bt.data).map(|(d, b)| b + d).collect(),
                    None => dq,
                }
            }
            TensorBody::Sparse { indices, values } => {
                if values.len() != indices.len() {
                    return Err(FlareError::Codec(
                        "sparse indices/values length mismatch".into(),
                    ));
                }
                let mut prev: Option<u32> = None;
                for &i in indices {
                    if (i as usize) >= numel || prev.is_some_and(|p| i <= p) {
                        return Err(FlareError::Codec(format!(
                            "sparse index {i} invalid for numel {numel}"
                        )));
                    }
                    prev = Some(i);
                }
                let dq: Vec<f32> = match values {
                    SparseValues::F32(v) => v.clone(),
                    SparseValues::F16(v) => v.iter().map(|&h| f16_to_f32(h)).collect(),
                    SparseValues::Int8 { scale, bytes } => int8_dequantize(*scale, bytes),
                };
                let mut data = match bt {
                    Some(bt) => bt.data.clone(),
                    None => vec![0.0f32; numel],
                };
                for (&i, &x) in indices.iter().zip(&dq) {
                    data[i as usize] += x;
                }
                data
            }
        };
        out.insert(name.clone(), WeightTensor::new(et.dims.clone(), data));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Client-side payload cache and uplink encoder
// ---------------------------------------------------------------------

/// Client-side mirror of the server ring: reconstructions of recently
/// decoded downlink payloads, keyed by payload id. Entries are shared
/// (`Arc`), so a payload the server declares identical to an earlier one
/// (an alias frame) costs an id, not a second copy of the model.
#[derive(Debug)]
pub struct PayloadCache {
    depth: usize,
    entries: VecDeque<(u32, Arc<Weights>)>,
}

impl Default for PayloadCache {
    fn default() -> Self {
        PayloadCache::new(DEFAULT_RING_DEPTH)
    }
}

impl PayloadCache {
    /// Creates a cache holding the `depth` most recent payloads.
    pub fn new(depth: usize) -> Self {
        PayloadCache {
            depth: depth.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Stores a reconstruction, evicting the oldest beyond the depth.
    /// Pass the `Arc` of an entry already held to store it under a second
    /// id without copying.
    pub fn insert(&mut self, id: u32, w: impl Into<Arc<Weights>>) {
        self.entries.retain(|(i, _)| *i != id);
        self.entries.push_back((id, w.into()));
        while self.entries.len() > self.depth {
            self.entries.pop_front();
        }
    }

    /// Looks up a payload by id.
    pub fn get(&self, id: u32) -> Option<&Arc<Weights>> {
        self.entries.iter().find(|(i, _)| *i == id).map(|(_, w)| w)
    }

    /// Id of the most recently stored payload (the client's ack).
    pub fn latest_id(&self) -> Option<u32> {
        self.entries.back().map(|(i, _)| *i)
    }
}

/// Client-side uplink encoder: owns the negotiated spec and the
/// error-feedback accumulators for this client's submissions.
#[derive(Debug)]
pub struct UplinkEncoder {
    /// Negotiated codec for this client's uplink.
    pub spec: CodecSpec,
    feedback: ErrorFeedback,
}

impl UplinkEncoder {
    /// Creates an encoder with zeroed residuals.
    pub fn new(spec: CodecSpec) -> Self {
        UplinkEncoder {
            spec,
            feedback: ErrorFeedback::default(),
        }
    }

    /// Encodes one update, deltaing against `base` when the spec asks
    /// for it and carrying quantization residue across calls.
    ///
    /// # Errors
    ///
    /// [`FlareError::Codec`] on base shape mismatches.
    pub fn encode(
        &mut self,
        w: &Weights,
        base: Option<(&Weights, u32)>,
    ) -> Result<EncodedWeights, FlareError> {
        encode_weights(w, 0, base, &self.spec, Some(&mut self.feedback))
    }
}

// ---------------------------------------------------------------------
// Server-side global ring with canonical per-spec reconstruction chains
// ---------------------------------------------------------------------

/// What kind of downlink frame [`GlobalRing::encode_for`] produced —
/// drives the `flare.wire.codec.*` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DownlinkKind {
    /// Self-contained frame: the chain head.
    Full,
    /// Canonical delta against the client's acknowledged payload.
    Delta,
    /// Payload is bitwise-identical to the acknowledged payload.
    Alias,
}

struct ChainEntry {
    id: u32,
    /// Alias-equivalence class: the id of the earliest payload in the
    /// ring whose reconstruction this one shares.
    class: u32,
    recon: Weights,
    /// Canonical frame: encoded against the previous chain entry (or a
    /// self-contained full frame at the chain head).
    canon: EncodedWeights,
}

struct Chain {
    spec: CodecSpec,
    entries: VecDeque<ChainEntry>,
}

impl Chain {
    fn get(&self, id: u32) -> Option<&ChainEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

/// Server-side ring of recent global payloads plus, per negotiated
/// codec, the canonical chain of quantized reconstructions every
/// compliant client converges to. Downlink deltas are computed against
/// *reconstructions* (not raw globals), so quantization error does not
/// accumulate across rounds, and every client that follows the
/// canonical/alias frames lands on exactly the same bits.
pub struct GlobalRing {
    depth: usize,
    next_id: u32,
    raw: VecDeque<(u32, Weights)>,
    chains: BTreeMap<String, Chain>,
}

impl Default for GlobalRing {
    fn default() -> Self {
        GlobalRing::new(DEFAULT_RING_DEPTH)
    }
}

impl std::fmt::Debug for GlobalRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalRing")
            .field("depth", &self.depth)
            .field("next_id", &self.next_id)
            .field("payloads", &self.raw.len())
            .field("chains", &self.chains.len())
            .finish()
    }
}

impl GlobalRing {
    /// Creates a ring retaining the `depth` most recent payloads.
    pub fn new(depth: usize) -> Self {
        GlobalRing {
            depth: depth.max(1),
            next_id: 1,
            raw: VecDeque::new(),
            chains: BTreeMap::new(),
        }
    }

    /// Registers a new global payload, assigns it an id, and extends
    /// every active codec chain. Payload ids are session-scoped: a
    /// resumed run starts a fresh ring, which forces one self-contained
    /// frame per client after resume (see DESIGN.md §3g).
    pub fn publish(&mut self, w: &Weights) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let alias_prev = self
            .raw
            .back()
            .map(|(_, pw)| weights_bits_equal(pw, w))
            .unwrap_or(false);
        self.raw.push_back((id, w.clone()));
        while self.raw.len() > self.depth {
            self.raw.pop_front();
        }
        let depth = self.depth;
        for chain in self.chains.values_mut() {
            Self::extend_chain(chain, id, w, alias_prev, depth);
        }
        id
    }

    fn extend_chain(chain: &mut Chain, id: u32, w: &Weights, alias_prev: bool, depth: usize) {
        let tag = chain.spec.tag();
        let entry = match chain.entries.back() {
            Some(prev) if alias_prev => ChainEntry {
                id,
                class: prev.class,
                recon: prev.recon.clone(),
                canon: alias_frame(tag, id, prev.id),
            },
            Some(prev) => {
                match encode_weights(w, id, Some((&prev.recon, prev.id)), &chain.spec, None)
                    .and_then(|canon| {
                        decode_weights(&canon, Some(&prev.recon)).map(|recon| (canon, recon))
                    }) {
                    Ok((canon, recon)) => ChainEntry {
                        id,
                        class: id,
                        recon,
                        canon,
                    },
                    // Shape change mid-chain (should not happen in a SAG
                    // run): restart the chain with a full frame.
                    Err(_) => Self::head_entry(&chain.spec, id, w),
                }
            }
            None => Self::head_entry(&chain.spec, id, w),
        };
        chain.entries.push_back(entry);
        while chain.entries.len() > depth {
            chain.entries.pop_front();
        }
    }

    fn head_entry(spec: &CodecSpec, id: u32, w: &Weights) -> ChainEntry {
        // A self-contained frame never errors (no base to mismatch).
        let canon = encode_weights(w, id, None, spec, None).expect("full frame");
        let recon = decode_weights(&canon, None).expect("own frame decodes");
        ChainEntry {
            id,
            class: id,
            recon,
            canon,
        }
    }

    /// Ensures a chain exists for `spec` and covers payload `id`
    /// (chains are created lazily at first use after negotiation).
    fn chain_through(&mut self, spec: &CodecSpec, id: u32) -> Option<&mut Chain> {
        let key = spec.to_string();
        let raw = &self.raw;
        let chain = self.chains.entry(key).or_insert_with(|| Chain {
            spec: spec.clone(),
            entries: VecDeque::new(),
        });
        if chain.get(id).is_none() {
            // Spec negotiated after this payload was published: start (or
            // restart) the chain at `id`.
            let w = raw.iter().find(|(i, _)| *i == id).map(|(_, w)| w)?;
            chain.entries.clear();
            chain.entries.push_back(Self::head_entry(spec, id, w));
        }
        Some(chain)
    }

    /// Plans the downlink for payload `id` under `spec` given the acks of
    /// every client about to receive it: when any ack cannot take the
    /// cheap alias/canonical-delta path (fresh client, evicted or
    /// off-chain ack), the chain entry for `id` is rebuilt as a
    /// self-contained head frame, which is valid for *every* receiver:
    /// [`Self::encode_for`] serves only what this plan covers. Earlier
    /// entries are kept so in-flight uplink deltas against older
    /// reconstructions still resolve. No-op when everyone is on the cheap
    /// path or `id` already heads the chain.
    pub fn prepare_round(&mut self, spec: &CodecSpec, acks: &[Option<u32>], id: u32) {
        if self.chain_through(spec, id).is_none() {
            return;
        }
        let raw = &self.raw;
        let Some(chain) = self.chains.get_mut(&spec.to_string()) else {
            return;
        };
        let Some(entry) = chain.get(id) else { return };
        if entry.canon.base_id == NO_BASE && !entry.canon.alias {
            return; // already self-contained
        }
        let target_class = entry.class;
        let canon_base_class = chain.get(entry.canon.base_id).map(|e| e.class);
        let all_cheap = acks.iter().all(|a| {
            matches!(a.and_then(|a| chain.get(a)),
                Some(e) if e.class == target_class || Some(e.class) == canon_base_class)
        });
        if all_cheap {
            return;
        }
        let Some((_, w)) = raw.iter().find(|(i, _)| *i == id) else {
            return;
        };
        let head = Self::head_entry(&chain.spec, id, w);
        if let Some(back) = chain.entries.back_mut() {
            if back.id == id {
                *back = head;
                return;
            }
        }
        chain.entries.push_back(head);
    }

    /// Encodes payload `id` for a client that has acknowledged `acked`
    /// (or nothing), returning the frame plus its kind for counters: an
    /// alias when the ack already holds `id`'s reconstruction, the
    /// canonical delta when the ack is its canonical base, or the entry
    /// itself when [`Self::prepare_round`] made it a self-contained head.
    /// Returns `None` for anything else (an ack the round's plan did not
    /// cover, or `id` evicted from the ring); the caller then ships the
    /// raw format. The entry is never rebuilt here: a delta already sent
    /// to another receiver must keep resolving.
    pub fn encode_for(
        &mut self,
        spec: &CodecSpec,
        acked: Option<u32>,
        id: u32,
    ) -> Option<(EncodedWeights, DownlinkKind)> {
        let chain = self.chain_through(spec, id)?;
        let entry = chain.get(id)?;
        let acked = acked.and_then(|a| Some((a, chain.get(a)?.class)));
        if let Some((a, a_class)) = acked {
            if a_class == entry.class {
                return Some((alias_frame(chain.spec.tag(), id, a), DownlinkKind::Alias));
            }
        }
        if entry.canon.base_id == NO_BASE && !entry.canon.alias {
            return Some((entry.canon.clone(), DownlinkKind::Full));
        }
        let (a, a_class) = acked?;
        if Some(a_class) == chain.get(entry.canon.base_id).map(|e| e.class) {
            let mut frame = entry.canon.clone();
            frame.base_id = a;
            return Some((frame, DownlinkKind::Delta));
        }
        None
    }

    /// The canonical reconstruction of payload `id` under `spec` — the
    /// bits a compliant client holds after decoding it. Used by the
    /// server to resolve uplink delta bases.
    pub fn recon(&self, spec: &CodecSpec, id: u32) -> Option<&Weights> {
        self.chains
            .get(&spec.to_string())
            .and_then(|c| c.get(id))
            .map(|e| &e.recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(pairs: &[(&str, Vec<f32>)]) -> Weights {
        let mut m = Weights::new();
        for (name, data) in pairs {
            m.insert(
                (*name).into(),
                WeightTensor::new(vec![data.len()], data.clone()),
            );
        }
        m
    }

    fn spec(s: &str) -> CodecSpec {
        CodecSpec::parse(s).unwrap()
    }

    // -- spec parsing ---------------------------------------------------

    #[test]
    fn spec_parse_and_display_roundtrip() {
        for s in [
            "raw",
            "delta",
            "f16",
            "int8",
            "delta+int8",
            "delta+f16",
            "delta+topk0.05+int8",
            "topk0.125+f16",
            "delta+topk0.5",
        ] {
            let sp = spec(s);
            assert_eq!(sp.to_string(), s, "canonical display of {s}");
            assert_eq!(CodecSpec::parse(&sp.to_string()).unwrap(), sp);
        }
    }

    #[test]
    fn spec_parse_accepts_aliases_and_case() {
        assert!(spec("RAW").is_raw());
        assert!(spec("f32").is_raw());
        assert_eq!(spec("Delta+Int8"), spec("delta+int8"));
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        for s in [
            "",
            "zstd",
            "delta+delta",
            "int8+f16",
            "topk0",
            "topk1.5",
            "topknan",
        ] {
            assert!(CodecSpec::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn spec_tags_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for s in [
            "raw",
            "delta",
            "f16",
            "int8",
            "delta+f16",
            "delta+int8",
            "delta+topk0.1+int8",
        ] {
            assert!(seen.insert(spec(s).tag()), "tag collision for {s}");
        }
    }

    // -- f16 ------------------------------------------------------------

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(-2.0), 0xc000);
        assert_eq!(f32_to_f16(65504.0), 0x7bff); // max finite half
        assert_eq!(f32_to_f16(1e6), 0x7c00); // overflow → inf
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Smallest subnormal: 2^-24.
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16(2.0f32.powi(-24)), 0x0001);
    }

    #[test]
    fn f16_roundtrip_exact_for_representable() {
        for x in [0.5f32, 0.25, 1.5, 3.0, -100.0, 0.099975586] {
            assert_eq!(f16_to_f32(f32_to_f16(x)), x, "{x} is f16-representable");
        }
    }

    proptest! {
        #[test]
        fn f16_error_bounded(x in -1000.0f32..1000.0) {
            let back = f16_to_f32(f32_to_f16(x));
            // Half precision has a 10-bit mantissa: relative error ≤ 2^-11.
            let tol = (x.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-14));
            prop_assert!((back - x).abs() <= tol, "{x} -> {back}");
        }

        #[test]
        fn f16_double_conversion_is_stable(h in any::<u16>()) {
            // f16 -> f32 -> f16 must be the identity (modulo NaN payloads).
            let x = f16_to_f32(h);
            if x.is_nan() {
                prop_assert!(f16_to_f32(f32_to_f16(x)).is_nan());
            } else {
                prop_assert_eq!(f32_to_f16(x), h);
            }
        }
    }

    // -- RLE ------------------------------------------------------------

    #[test]
    fn rle_roundtrips() {
        for bytes in [
            vec![],
            vec![0u8; 100],
            vec![1u8; 100],
            vec![0, 0, 0, 5, 6, 0, 0, 7],
            (0..=255u8).collect::<Vec<_>>(),
        ] {
            let packed = rle_compress(&bytes);
            assert_eq!(rle_decompress(&packed, bytes.len()).unwrap(), bytes);
        }
    }

    #[test]
    fn rle_long_runs_split_correctly() {
        let mut bytes = vec![0u8; 200_000];
        bytes.extend_from_slice(&[9u8; 70_000]);
        let packed = rle_compress(&bytes);
        assert!(packed.len() < bytes.len() / 2);
        assert_eq!(rle_decompress(&packed, bytes.len()).unwrap(), bytes);
    }

    #[test]
    fn rle_rejects_hostile_input() {
        // Claims more output than expected_len.
        let mut packed = Vec::new();
        packed.extend_from_slice(&100u16.to_le_bytes());
        packed.extend_from_slice(&0u16.to_le_bytes());
        assert!(rle_decompress(&packed, 10).is_err());
        // Truncated record header.
        assert!(rle_decompress(&[1, 0, 1], 10).is_err());
        // Literal length overruns the input.
        let mut packed = Vec::new();
        packed.extend_from_slice(&0u16.to_le_bytes());
        packed.extend_from_slice(&50u16.to_le_bytes());
        packed.push(7);
        assert!(rle_decompress(&packed, 50).is_err());
        // Output shorter than expected.
        assert!(rle_decompress(&[], 1).is_err());
    }

    proptest! {
        #[test]
        fn rle_roundtrip_arbitrary(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let (rle, packed) = rle_pack(bytes.clone());
            prop_assert_eq!(rle_unpack(rle, &packed, bytes.len()).unwrap(), bytes);
        }
    }

    // -- frame wire roundtrips & CRC ------------------------------------

    fn sample_frame() -> EncodedWeights {
        let mut tensors = BTreeMap::new();
        tensors.insert(
            "a".into(),
            EncodedTensor {
                dims: vec![2, 2],
                body: TensorBody::F32(vec![1.0, 2.0, 3.0, 4.0]),
            },
        );
        tensors.insert(
            "b".into(),
            EncodedTensor {
                dims: vec![3],
                body: TensorBody::Int8 {
                    scale: 0.5,
                    rle: false,
                    bytes: vec![1, 255, 0],
                },
            },
        );
        tensors.insert(
            "c".into(),
            EncodedTensor {
                dims: vec![4],
                body: TensorBody::Sparse {
                    indices: vec![0, 3],
                    values: SparseValues::F16(vec![0x3c00, 0xc000]),
                },
            },
        );
        EncodedWeights {
            tag: spec("delta+int8").tag(),
            payload_id: 7,
            base_id: 5,
            alias: false,
            tensors,
        }
    }

    #[test]
    fn encoded_weights_wire_roundtrip() {
        let frame = sample_frame();
        let bytes = frame.to_frame();
        assert_eq!(EncodedWeights::from_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn crc_rejects_any_single_bitflip() {
        let bytes = sample_frame().to_frame();
        // Flip a byte in the middle of the body and in the CRC itself.
        for idx in [4, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x40;
            assert!(
                EncodedWeights::from_frame(&bad).is_err(),
                "bit-flip at {idx} must be rejected"
            );
        }
    }

    #[test]
    fn crc_rejects_truncation() {
        let bytes = sample_frame().to_frame();
        assert!(EncodedWeights::from_frame(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn unknown_body_tags_rejected() {
        let mut frame = crate::wire::FRAME_MAGIC.to_vec();
        99u8.encode(&mut frame);
        assert!(TensorBody::from_frame(&frame).is_err());
        let mut frame = crate::wire::FRAME_MAGIC.to_vec();
        9u8.encode(&mut frame);
        assert!(SparseValues::from_frame(&frame).is_err());
    }

    #[test]
    fn digest_tracks_bits_names_and_shapes() {
        let base = w(&[("a", vec![1.0, -2.5, 3.25]), ("b", vec![0.0; 4])]);
        let d = weights_digest(&base);
        assert_eq!(d, weights_digest(&base.clone()));
        let mut flipped = base.clone();
        flipped.get_mut("b").unwrap().data[3] = -0.0;
        assert_ne!(d, weights_digest(&flipped), "sign of zero");
        let mut reshaped = base.clone();
        reshaped.get_mut("b").unwrap().dims = vec![2, 2];
        assert_ne!(d, weights_digest(&reshaped), "shape");
        let renamed = w(&[("a", vec![1.0, -2.5, 3.25]), ("c", vec![0.0; 4])]);
        assert_ne!(d, weights_digest(&renamed), "name");
    }

    // -- encode/decode semantics ---------------------------------------

    #[test]
    fn lossless_delta_is_bit_exact() {
        let base = w(&[("a", vec![1.0, -2.5, 3.25]), ("b", vec![0.0; 64])]);
        let mut cur = base.clone();
        cur.get_mut("a").unwrap().data[1] = 7.125;
        let enc = encode_weights(&cur, 2, Some((&base, 1)), &spec("delta"), None).unwrap();
        assert_eq!(enc.base_id, 1);
        // Unchanged tensor collapses to Same.
        assert_eq!(enc.tensors["b"].body, TensorBody::Same);
        let back = decode_weights(&enc, Some(&base)).unwrap();
        assert!(weights_bits_equal(&back, &cur));
    }

    #[test]
    fn lossless_delta_exact_even_for_extreme_magnitudes() {
        // Arithmetic deltas would destroy 1e-8 against 1e8; XOR must not.
        let base = w(&[("a", vec![1e8, 1.0])]);
        let cur = w(&[("a", vec![1e-8, f32::MIN_POSITIVE])]);
        let enc = encode_weights(&cur, 2, Some((&base, 1)), &spec("delta"), None).unwrap();
        let back = decode_weights(&enc, Some(&base)).unwrap();
        assert!(weights_bits_equal(&back, &cur));
    }

    #[test]
    fn full_f32_frame_is_bit_exact() {
        let cur = w(&[("a", vec![0.1, -0.2, 1e-30])]);
        let enc = encode_weights(&cur, 1, None, &spec("delta"), None).unwrap();
        assert_eq!(enc.base_id, NO_BASE);
        let back = decode_weights(&enc, None).unwrap();
        assert!(weights_bits_equal(&back, &cur));
    }

    #[test]
    fn int8_error_bounded_by_half_step() {
        let vals: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let cur = w(&[("a", vals.clone())]);
        let enc = encode_weights(&cur, 1, None, &spec("int8"), None).unwrap();
        let back = decode_weights(&enc, None).unwrap();
        let maxabs = vals.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let step = maxabs / 127.0;
        for (a, b) in back["a"].data.iter().zip(&vals) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn f16_delta_decodes_within_tolerance() {
        let base = w(&[("a", vec![1.0, 2.0, 3.0])]);
        let cur = w(&[("a", vec![1.5, 2.25, 2.875])]);
        let enc = encode_weights(&cur, 2, Some((&base, 1)), &spec("delta+f16"), None).unwrap();
        let back = decode_weights(&enc, Some(&base)).unwrap();
        for (a, b) in back["a"].data.iter().zip(&cur["a"].data) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let cur = w(&[("a", vec![0.1, -9.0, 0.2, 8.0, 0.0, -0.3])]);
        let enc = encode_weights(&cur, 1, None, &spec("topk0.33"), None).unwrap();
        match &enc.tensors["a"].body {
            TensorBody::Sparse { indices, values } => {
                assert_eq!(indices, &vec![1, 3]);
                assert_eq!(values, &SparseValues::F32(vec![-9.0, 8.0]));
            }
            other => panic!("expected sparse body, got {other:?}"),
        }
        let back = decode_weights(&enc, None).unwrap();
        assert_eq!(back["a"].data, vec![0.0, -9.0, 0.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_tie_breaks_toward_lower_index() {
        let cur = w(&[("a", vec![1.0, -1.0, 1.0, 1.0])]);
        let enc = encode_weights(&cur, 1, None, &spec("topk0.5"), None).unwrap();
        match &enc.tensors["a"].body {
            TensorBody::Sparse { indices, .. } => assert_eq!(indices, &vec![0, 1]),
            other => panic!("expected sparse body, got {other:?}"),
        }
    }

    #[test]
    fn error_feedback_carries_residue() {
        // Coordinate 0 is always below the int8 step of coordinate 1's
        // magnitude; without feedback it would never be transmitted.
        let mut fb = ErrorFeedback::default();
        let sp = spec("int8");
        let mut recon_sum = [0.0f64; 2];
        let v = vec![0.004f32, 127.0];
        for _ in 0..100 {
            let cur = w(&[("a", v.clone())]);
            let enc = encode_weights(&cur, 1, None, &sp, Some(&mut fb)).unwrap();
            let back = decode_weights(&enc, None).unwrap();
            for (s, x) in recon_sum.iter_mut().zip(&back["a"].data) {
                *s += f64::from(*x);
            }
        }
        // Σ of reconstructions tracks Σ of true values to within one step.
        for (s, x) in recon_sum.iter().zip(&v) {
            let want = f64::from(*x) * 100.0;
            assert!(
                (s - want).abs() <= f64::from(v[1]) / 127.0 + 1e-3,
                "sum {s} should track {want}"
            );
        }
    }

    #[test]
    fn error_feedback_zero_for_lossless() {
        let mut fb = ErrorFeedback::default();
        let cur = w(&[("a", vec![0.123, -4.56])]);
        let base = w(&[("a", vec![0.0, 0.0])]);
        encode_weights(&cur, 2, Some((&base, 1)), &spec("delta"), Some(&mut fb)).unwrap();
        assert!(fb.residuals.values().flatten().all(|&r| r == 0.0));
    }

    #[test]
    fn quantized_fedavg_tracks_raw_fedavg_over_rounds() {
        // Error-feedback convergence: N rounds of lossy uplink, summed
        // like FedAvg would, stay within one quantization step of the
        // raw sum per coordinate.
        let sp = spec("delta+topk0.5+int8");
        let mut enc_state = UplinkEncoder::new(sp);
        let n = 64usize;
        let mut raw_sum = vec![0.0f64; n];
        let mut dec_sum = vec![0.0f64; n];
        let mut rng = 0x12345u64;
        let mut next = move || {
            // xorshift: deterministic pseudo-random updates
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let base = w(&[("a", vec![0.0; n])]);
        for _ in 0..50 {
            let vals: Vec<f32> = (0..n).map(|_| next() * 0.01).collect();
            let cur = w(&[(
                "a",
                base["a"]
                    .data
                    .iter()
                    .zip(&vals)
                    .map(|(b, v)| b + v)
                    .collect(),
            )]);
            let enc = enc_state.encode(&cur, Some((&base, 1))).unwrap();
            let dec = decode_weights(&enc, Some(&base)).unwrap();
            for i in 0..n {
                raw_sum[i] += f64::from(cur["a"].data[i]);
                dec_sum[i] += f64::from(dec["a"].data[i]);
            }
        }
        for i in 0..n {
            assert!(
                (raw_sum[i] - dec_sum[i]).abs() < 0.02,
                "coordinate {i}: raw {} vs decoded {}",
                raw_sum[i],
                dec_sum[i]
            );
        }
    }

    #[test]
    fn decode_rejects_hostile_frames() {
        let base = w(&[("a", vec![1.0, 2.0])]);
        // Missing base.
        let enc = encode_weights(&base, 2, Some((&base, 1)), &spec("delta"), None).unwrap();
        assert!(decode_weights(&enc, None).is_err());
        // Sparse index out of range.
        let mut tensors = BTreeMap::new();
        tensors.insert(
            "a".into(),
            EncodedTensor {
                dims: vec![2],
                body: TensorBody::Sparse {
                    indices: vec![5],
                    values: SparseValues::F32(vec![1.0]),
                },
            },
        );
        let bad = EncodedWeights {
            tag: 0,
            payload_id: 1,
            base_id: NO_BASE,
            alias: false,
            tensors: tensors.clone(),
        };
        assert!(decode_weights(&bad, None).is_err());
        // Non-increasing sparse indices.
        tensors.get_mut("a").unwrap().body = TensorBody::Sparse {
            indices: vec![1, 1],
            values: SparseValues::F32(vec![1.0, 2.0]),
        };
        let bad = EncodedWeights {
            tag: 0,
            payload_id: 1,
            base_id: NO_BASE,
            alias: false,
            tensors: tensors.clone(),
        };
        assert!(decode_weights(&bad, None).is_err());
        // Dense body length mismatch.
        tensors.get_mut("a").unwrap().body = TensorBody::F32(vec![1.0; 3]);
        let bad = EncodedWeights {
            tag: 0,
            payload_id: 1,
            base_id: NO_BASE,
            alias: false,
            tensors,
        };
        assert!(decode_weights(&bad, None).is_err());
        // Alias frame with tensors.
        let mut bad = encode_weights(&base, 1, None, &CodecSpec::raw(), None).unwrap();
        bad.alias = true;
        bad.base_id = 1;
        assert!(decode_weights(&bad, Some(&base)).is_err());
    }

    #[test]
    fn raw_sizes_match_actual_encoding() {
        let cur = w(&[("layer.weight", vec![0.5; 37]), ("bias", vec![1.0; 3])]);
        let mut buf = Vec::new();
        cur.encode(&mut buf);
        assert_eq!(raw_weights_wire_size(&cur), buf.len() as u64);
    }

    #[test]
    fn raw_frame_sizes_match_actual_messages() {
        use crate::dxo::Dxo;
        use crate::messages::{ClientMessage, ServerMessage, TaskAssignment};
        use crate::wire::WireEncode;
        let mut weights = w(&[("encoder.bias", vec![0.25; 5]), ("head", vec![-1.0; 2])]);
        weights.insert(
            "encoder.weight".into(),
            WeightTensor::new(vec![3, 4, 2], vec![0.5; 24]),
        );
        let train = ServerMessage::Task(TaskAssignment::Train {
            round: 3,
            total_rounds: 9,
            weights: weights.clone(),
        });
        let validate = ServerMessage::Task(TaskAssignment::Validate {
            round: 3,
            weights: weights.clone(),
        });
        assert_eq!(
            raw_task_frame_size(&weights, true),
            train.to_frame().len() as u64
        );
        assert_eq!(
            raw_task_frame_size(&weights, false),
            validate.to_frame().len() as u64
        );
        let mut dxo = Dxo::from_weights(weights.clone(), 42);
        dxo.metrics.insert("train_loss".into(), 0.5);
        dxo.metrics.insert("valid_acc".into(), 0.75);
        let submit_len = raw_submit_frame_size(&weights, &dxo.metrics);
        let submit = ClientMessage::Submit { round: 3, dxo };
        assert_eq!(submit_len, submit.to_frame().len() as u64);
    }

    // -- ring behaviour -------------------------------------------------

    #[test]
    fn ring_canonical_chain_and_alias() {
        let sp = spec("delta+int8");
        let mut ring = GlobalRing::new(4);
        let g1 = w(&[("a", vec![1.0; 8])]);
        let g2 = w(&[("a", vec![1.5; 8])]);
        let id1 = ring.publish(&g1);

        // First contact: full frame, client then acks id1.
        let (f1, k1) = ring.encode_for(&sp, None, id1).unwrap();
        assert_eq!(k1, DownlinkKind::Full);
        let c1 = decode_weights(&f1, None).unwrap();
        assert!(weights_bits_equal(&c1, ring.recon(&sp, id1).unwrap()));

        // Republish identical weights (Validate r → Train r+1): alias.
        let id2 = ring.publish(&g1);
        let (f2, k2) = ring.encode_for(&sp, Some(id1), id2).unwrap();
        assert_eq!(k2, DownlinkKind::Alias);
        let c2 = decode_weights(&f2, Some(&c1)).unwrap();
        assert!(weights_bits_equal(&c2, &c1));

        // New global: canonical delta against the acked alias id.
        let id3 = ring.publish(&g2);
        let (f3, k3) = ring.encode_for(&sp, Some(id2), id3).unwrap();
        assert_eq!(k3, DownlinkKind::Delta);
        assert_eq!(f3.base_id, id2);
        let c3 = decode_weights(&f3, Some(&c2)).unwrap();
        assert!(weights_bits_equal(&c3, ring.recon(&sp, id3).unwrap()));
    }

    #[test]
    fn ring_straggler_gets_the_planned_head() {
        let sp = spec("delta+int8");
        let mut ring = GlobalRing::new(8);
        let id1 = ring.publish(&w(&[("a", vec![1.0; 8])]));
        ring.encode_for(&sp, None, id1).unwrap();

        // The straggler missed payload 2: payload 3's canonical delta is
        // against 2, so without a plan covering its ack there is no frame.
        ring.publish(&w(&[("a", vec![2.0; 8])]));
        let id3 = ring.publish(&w(&[("a", vec![3.0; 8])]));
        assert!(ring.encode_for(&sp, Some(id1), id3).is_none());

        // Planned with its ack, payload 3 becomes a self-contained head
        // carrying the canonical bits.
        ring.prepare_round(&sp, &[Some(id1)], id3);
        let (f3, k3) = ring.encode_for(&sp, Some(id1), id3).unwrap();
        assert_eq!(k3, DownlinkKind::Full);
        assert_eq!(f3.base_id, NO_BASE);
        let c3 = decode_weights(&f3, None).unwrap();
        assert!(weights_bits_equal(&c3, ring.recon(&sp, id3).unwrap()));
    }

    #[test]
    fn ring_evicted_ack_gets_the_planned_head() {
        let sp = spec("delta+int8");
        let mut ring = GlobalRing::new(2);
        let id1 = ring.publish(&w(&[("a", vec![1.0; 4])]));
        ring.encode_for(&sp, None, id1).unwrap();
        ring.publish(&w(&[("a", vec![2.0; 4])]));
        ring.publish(&w(&[("a", vec![3.0; 4])]));
        let id4 = ring.publish(&w(&[("a", vec![4.0; 4])]));
        assert!(ring.encode_for(&sp, Some(id1), id4).is_none());
        ring.prepare_round(&sp, &[Some(id1)], id4);
        let (f4, k4) = ring.encode_for(&sp, Some(id1), id4).unwrap();
        assert_eq!(k4, DownlinkKind::Full);
        let c4 = decode_weights(&f4, None).unwrap();
        assert!(weights_bits_equal(&c4, ring.recon(&sp, id4).unwrap()));
    }

    #[test]
    fn ring_lossless_chain_matches_raw_globals_exactly() {
        let sp = spec("delta");
        let mut ring = GlobalRing::new(4);
        let g1 = w(&[("a", vec![0.123, -4.5, 6.7])]);
        let g2 = w(&[("a", vec![0.124, -4.5, 6.9])]);
        let id1 = ring.publish(&g1);
        let id2 = ring.publish(&g2);
        assert!(weights_bits_equal(ring.recon_init(&sp, id1), &g1));
        assert!(weights_bits_equal(ring.recon_init(&sp, id2), &g2));
    }

    #[test]
    fn prepare_round_downgrades_to_head_for_mixed_acks() {
        let sp = spec("delta+int8");
        let mut ring = GlobalRing::new(8);
        let id1 = ring.publish(&w(&[("a", vec![1.0; 8])]));
        ring.encode_for(&sp, None, id1).unwrap();
        let id2 = ring.publish(&w(&[("a", vec![2.0; 8])]));

        // Everyone on the cheap path: the canonical delta entry survives.
        ring.prepare_round(&sp, &[Some(id1), Some(id1)], id2);
        let (_, k) = ring.encode_for(&sp, Some(id1), id2).unwrap();
        assert_eq!(k, DownlinkKind::Delta);

        // One fresh client in the round: entry becomes a self-contained
        // head, which every receiver (acked or not) now gets as Full.
        let id3 = ring.publish(&w(&[("a", vec![3.0; 8])]));
        ring.prepare_round(&sp, &[Some(id2), None], id3);
        let (f_new, k_new) = ring.encode_for(&sp, None, id3).unwrap();
        assert_eq!(k_new, DownlinkKind::Full);
        assert_eq!(f_new.base_id, NO_BASE);
        let (f_old, k_old) = ring.encode_for(&sp, Some(id2), id3).unwrap();
        assert_eq!(k_old, DownlinkKind::Full);
        let c_new = decode_weights(&f_new, None).unwrap();
        let c_old = decode_weights(&f_old, None).unwrap();
        assert!(weights_bits_equal(&c_new, &c_old));
        assert!(weights_bits_equal(&c_new, ring.recon(&sp, id3).unwrap()));

        // Earlier entries survive the downgrade, so an uplink delta based
        // on an older reconstruction still resolves.
        assert!(ring.recon(&sp, id2).is_some());
    }

    #[test]
    fn payload_cache_evicts_oldest() {
        let mut cache = PayloadCache::new(2);
        cache.insert(1, w(&[("a", vec![1.0])]));
        cache.insert(2, w(&[("a", vec![2.0])]));
        cache.insert(3, w(&[("a", vec![3.0])]));
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert_eq!(cache.latest_id(), Some(3));
    }

    #[test]
    fn payload_cache_shares_an_entry_between_ids() {
        let mut cache = PayloadCache::new(4);
        cache.insert(1, w(&[("a", vec![1.0])]));
        let first = Arc::clone(cache.get(1).unwrap());
        cache.insert(2, Arc::clone(&first));
        assert!(Arc::ptr_eq(cache.get(1).unwrap(), cache.get(2).unwrap()));
        assert_eq!(cache.latest_id(), Some(2));
        // Evicting one id leaves the other's copy alive.
        for id in 3..=5 {
            cache.insert(id, w(&[("a", vec![id as f32])]));
        }
        assert!(cache.get(1).is_none());
        assert!(Arc::ptr_eq(cache.get(2).unwrap(), &first));
    }

    impl GlobalRing {
        /// Test helper: recon that forces the chain to exist.
        fn recon_init(&mut self, spec: &CodecSpec, id: u32) -> &Weights {
            self.chain_through(spec, id).unwrap();
            self.recon(spec, id).unwrap()
        }
    }

    // -- composition proptests -----------------------------------------

    fn arb_weights() -> impl Strategy<Value = Weights> {
        proptest::collection::btree_map(
            "[a-z]{1,6}",
            proptest::collection::vec(-100.0f32..100.0, 1..64),
            1..4,
        )
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, v)| {
                    let t = WeightTensor::new(vec![v.len()], v);
                    (k, t)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wire_roundtrip_all_codecs(base in arb_weights(), seed in any::<u64>()) {
            // Perturb the base to get a "current" payload with the same shapes.
            let mut cur = base.clone();
            let mut s = seed | 1;
            for t in cur.values_mut() {
                for x in t.data.iter_mut() {
                    s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                    if s & 3 == 0 { *x += (s % 1000) as f32 / 997.0; }
                }
            }
            for codec in ["delta", "delta+f16", "delta+int8", "delta+topk0.25+int8",
                          "delta+topk0.5+f16", "f16", "int8", "topk0.5"] {
                let sp = spec(codec);
                let enc = encode_weights(&cur, 2, Some((&base, 1)), &sp, None).unwrap();
                // Wire roundtrip is always bit-exact on the *encoded* form.
                let frame = enc.to_frame();
                let enc2 = EncodedWeights::from_frame(&frame).unwrap();
                prop_assert_eq!(&enc2, &enc, "wire roundtrip for {}", codec);
                // Decode must succeed and preserve shapes.
                let need_base = enc.base_id != NO_BASE;
                let dec = decode_weights(&enc, need_base.then_some(&base)).unwrap();
                prop_assert_eq!(dec.len(), cur.len());
                for (name, t) in &dec {
                    prop_assert_eq!(&t.dims, &cur[name].dims);
                }
                // Lossless specs are bit-exact end to end.
                if sp.is_lossless() {
                    prop_assert!(weights_bits_equal(&dec, &cur), "{} lossless", codec);
                }
            }
        }
    }
}
