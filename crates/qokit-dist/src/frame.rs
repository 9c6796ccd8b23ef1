//! Dependency-free binary framing shared by every socket protocol in the
//! workspace: the rank transport ([`crate::transport`] /[`crate::wire`])
//! and the serving layer (`qokit-serve`) speak different *messages* but
//! the same *frames*.
//!
//! # Frame format
//!
//! Every message on a connection is one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   "QOKT" (0x514F4B54, little-endian u32)
//! 4       4     length  payload byte count (little-endian u32)
//! 8       8     checksum of the payload, `hash64` (little-endian u64)
//! 16      len   payload (one encoded message)
//! ```
//!
//! The magic word catches stream desynchronization, the length prefix
//! bounds the read, and the checksum catches payload corruption or
//! truncation-with-padding — any mismatch surfaces as a [`WireError`]
//! (never a misparse). The checksum ([`hash64`]) reads the payload as
//! little-endian 8-byte words, then one word holding the 0–7 tail bytes
//! (zero-padded), then the payload length, and folds each in by
//! `h ← (rotl(h, 5) ⊕ w)·K` with an odd `K` from `h₀ = 0xcbf29ce484222325`. Numbers are little-endian throughout; `f64` values
//! travel as their exact IEEE-754 bit patterns, so floating-point data is
//! reproduced bit for bit on the far side.
//!
//! [`ByteWriter`] / [`ByteReader`] are the payload codec primitives:
//! little-endian, length-prefixed collections, with every reader accessor
//! bounds-checked so corrupt input yields [`WireError::Truncated`], not a
//! panic or an allocation bomb.

/// Frame magic word (`"QOKT"` as a little-endian u32).
pub const MAGIC: u32 = 0x514F_4B54;

/// Hard ceiling on a frame payload (1 GiB) — a corrupt length prefix must
/// not become an allocation bomb.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Decode-side failures. Transports wrap these into rank-tagged
/// [`TransportError`](crate::transport::TransportError)s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced field did.
    Truncated,
    /// Frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Payload checksum mismatch.
    ChecksumMismatch {
        /// Checksum announced by the frame header.
        expected: u64,
        /// Checksum of the payload actually received.
        actual: u64,
    },
    /// Unknown message tag byte.
    BadTag(u8),
    /// The fields decoded, but their values break the invariants of the
    /// domain type they describe (e.g. a term on a variable `≥ n`).
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Invalid(msg) => write!(f, "invalid payload value: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The frame checksum (and the serve layer's cache hash): a word-at-a-time
/// multiply-rotate hash, read eight bytes a step where a byte-wise hash
/// takes one. For a fixed input word each step is a bijection of `h`, and
/// every word enters by xor, so any change confined to one word — every
/// single-bit flip — changes the checksum. Not cryptographic; it guards
/// against truncation and bit rot, not adversaries.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = WordHash::new();
    let mut words = bytes.chunks_exact(8);
    for word in words.by_ref() {
        h.mix(u64::from_le_bytes(
            word.try_into().expect("an 8-byte chunk"),
        ));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h.mix(u64::from_le_bytes(tail));
    h.mix(bytes.len() as u64);
    h.finish()
}

/// The running state of [`hash64`], for keys hashed field by field
/// instead of as bytes.
#[derive(Clone, Copy, Debug)]
pub struct WordHash(u64);

impl WordHash {
    /// The state before any word.
    pub fn new() -> Self {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word: `h ← (rotl(h, 5) ⊕ word)·K`, `K` odd.
    #[inline]
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The hash of the words folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for WordHash {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes `payload` into a complete frame (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload too large");
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&hash64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame header and returns the announced payload length.
pub fn decode_header(header: &[u8; 16]) -> Result<(usize, u64), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let checksum = u64::from_le_bytes(header[8..16].try_into().unwrap());
    Ok((len, checksum))
}

/// Verifies a received payload against the header's checksum.
pub fn check_payload(payload: &[u8], expected: u64) -> Result<(), WireError> {
    let actual = hash64(payload);
    if actual != expected {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// A failed frame read: either transport-level I/O (connection dead,
/// timeout) or a malformed frame (bad magic/length/checksum).
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (EOF, reset, timeout, ...).
    Io(std::io::Error),
    /// The stream delivered bytes, but they are not a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameReadError::Wire(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Writes one complete frame, returning the bytes put on the wire
/// (header + payload).
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<usize> {
    let frame = encode_frame(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one complete frame, validating magic, length, and checksum.
/// Returns the payload and the total bytes read off the wire.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<(Vec<u8>, usize), FrameReadError> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header).map_err(FrameReadError::Io)?;
    let (len, checksum) = decode_header(&header).map_err(FrameReadError::Wire)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(FrameReadError::Io)?;
    check_payload(&payload, checksum).map_err(FrameReadError::Wire)?;
    Ok((payload, 16 + len))
}

/// Little-endian byte sink for message encoding.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `usize` widened to a `u64` on the wire.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// A length-prefixed `usize` slice.
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian byte source for message decoding. Every accessor checks
/// bounds and returns [`WireError::Truncated`] instead of panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over an encoded payload.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An `f64` from its exact IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `usize` (rejects values that do not fit the platform width).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Truncated)
    }

    /// A length prefix that must be coverable by the remaining bytes when
    /// each element occupies at least `min_elem_bytes` — rejects corrupt
    /// lengths before they become huge allocations.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// A length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_checks() {
        let frame = encode_frame(b"hello");
        let header: [u8; 16] = frame[..16].try_into().unwrap();
        let (len, checksum) = decode_header(&header).unwrap();
        assert_eq!(len, 5);
        check_payload(&frame[16..], checksum).unwrap();

        // Flip a payload bit: checksum must catch it.
        let mut bad = frame.clone();
        bad[16] ^= 0x40;
        assert!(matches!(
            check_payload(&bad[16..], checksum),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // Bad magic.
        let mut bad = frame;
        bad[0] = 0;
        let header: [u8; 16] = bad[..16].try_into().unwrap();
        assert!(matches!(
            decode_header(&header),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for len in 0..=17usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let frame = encode_frame(&payload);
            let header: [u8; 16] = frame[..16].try_into().unwrap();
            let (_, checksum) = decode_header(&header).unwrap();
            check_payload(&payload, checksum).unwrap();
            for bit in 0..8 * len {
                let mut bad = payload.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(
                        check_payload(&bad, checksum),
                        Err(WireError::ChecksumMismatch { .. })
                    ),
                    "flip of bit {bit} in a {len}-byte payload went unnoticed"
                );
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_checksum() {
        // The tail word is zero-padded, so the length is what tells these
        // apart.
        let sums: Vec<u64> = (0..=16).map(|len| hash64(&vec![0u8; len])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(!sums[i + 1..].contains(a), "{i} zero bytes collide");
        }
    }

    #[test]
    fn writer_reader_roundtrip_is_exact() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u64(u64::MAX - 3);
        w.f64(0.1 + 0.2);
        w.usize(42);
        w.f64s(&[-0.0, f64::MIN_POSITIVE, 1.0 / 3.0]);
        w.usizes(&[0, 5, usize::MAX]);
        w.string("γβ frames");
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.usize().unwrap(), 42);
        let fs = r.f64s().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.usizes().unwrap(), vec![0, 5, usize::MAX]);
        assert_eq!(r.string().unwrap(), "γβ frames");
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_rejects_truncation_and_huge_lengths() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(WireError::Truncated));

        // A u64::MAX length prefix must be rejected by the remaining-bytes
        // bound, not attempted as an allocation.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.f64s(), Err(WireError::Truncated));
    }
}
