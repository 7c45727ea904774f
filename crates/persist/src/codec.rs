//! Column codecs: the byte-level encodings under both the checkpoint
//! blocks and the WAL record payloads.
//!
//! Everything here is hand-rolled (the build environment is offline; no
//! compression crates) and deliberately simple:
//!
//! * **varint** — LEB128: 7 value bits per byte, high bit = continuation.
//!   Monotone offsets and small ids shrink to 1–2 bytes.
//! * **zigzag** — maps signed deltas to unsigned so varint stays short
//!   for negatives: `(n << 1) ^ (n >> 63)`.
//! * **delta** — consecutive-difference transform; CSR offsets become
//!   per-row degrees, sorted id runs become small gaps.
//! * **byte-shuffle + RLE** — for `f64` columns: transpose the column
//!   into eight byte planes (plane `b` holds byte `b` of every value),
//!   then run-length encode each plane. Real-world weight columns have
//!   near-constant sign/exponent planes (and all-zero low-mantissa
//!   planes for integer-valued weights), which RLE collapses; the
//!   incompressible planes ride through as literal runs at ~1 byte of
//!   overhead per 128.
//! * **CRC-32** (IEEE, reflected, table-driven) — integrity check per
//!   block and per WAL record.
//!
//! Encoders that have a choice ([`encode_u64s`], [`encode_f64s`]) try
//! each applicable encoding and keep the smallest; the winner's tag is
//! stored next to the payload, so decoding never guesses. Encoders append
//! their payload to the caller's buffer, so a checkpoint writer encodes
//! every block into one reused scratch buffer. Each kernel makes one
//! pass per candidate size and one pass writing the winner; the decoders
//! write straight into the output column.

use crate::error::PersistError;

/// Encoding tags stored alongside each block payload.
pub const ENC_RAW: u8 = 0;
/// LEB128 varints, one per element.
pub const ENC_VARINT: u8 = 1;
/// Consecutive deltas, zigzag-mapped, LEB128-encoded.
pub const ENC_DELTA: u8 = 2;
/// Eight byte planes, each run-length encoded ([`ENC_SHUFFLE`] is only
/// ever applied to `f64` columns).
pub const ENC_SHUFFLE: u8 = 3;
/// One bit per element, LSB-first within each byte.
pub const ENC_BITMAP: u8 = 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Slice-by-16 lookup tables. Table 0 is the classic byte-at-a-time
/// table; table `k` maps a byte to its CRC contribution `k` positions
/// further back in the stream, so sixteen bytes fold in one step.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            b += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, slice-by-16: sixteen independent table
/// lookups per 16-byte chunk instead of sixteen dependent byte steps.
/// Same polynomial and check values as the byte-at-a-time loop — only
/// the throughput changes, which matters because every checkpoint block
/// is CRC'd on write and every mapped block on first touch.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    // Contribution of the four bytes of `w`, the first of which sits
    // `far` positions before the end of its chunk.
    let fold = |w: u32, far: usize| {
        t[far][(w & 0xFF) as usize]
            ^ t[far - 1][((w >> 8) & 0xFF) as usize]
            ^ t[far - 2][((w >> 16) & 0xFF) as usize]
            ^ t[far - 3][(w >> 24) as usize]
    };
    let mut c = !0u32;
    let (chunks, tail) = bytes.as_chunks::<16>();
    for chunk in chunks {
        let word =
            |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
        c = fold(word(0) ^ c, 15) ^ fold(word(4), 11) ^ fold(word(8), 7) ^ fold(word(12), 3);
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// varint / zigzag
// ---------------------------------------------------------------------------

/// Append `v` as a LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint from `buf[*pos..]`, advancing `pos`.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    // Single-byte fast path: the dominant case for delta-encoded columns
    // (CSR gaps, per-row degrees, small ids are almost always < 128).
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    get_varint_slow(buf, pos)
}

/// The high bit of each byte of a word (the LEB128 continuation bits).
const STOP_BITS: u64 = 0x8080_8080_8080_8080;

/// The little-endian word at `buf[pos..pos + 8]`, with its continuation
/// bits flipped so a set bit marks the last byte of a varint, or `None`
/// when fewer than eight bytes are left.
#[inline]
fn word_from(buf: &[u8], pos: usize) -> Option<u64> {
    let bytes = buf.get(pos..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*bytes) ^ STOP_BITS)
}

/// The value of the varint whose bytes (at most eight, low byte first)
/// are `w`: its 7-bit groups squeezed together — pairs, quads, then all
/// eight.
#[inline]
fn varint_bits(w: u64) -> u64 {
    let w = w & !STOP_BITS;
    let w = (w & 0x007F_007F_007F_007F) | ((w & 0x7F00_7F00_7F00_7F00) >> 1);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x3FFF_0000_3FFF_0000) >> 2);
    (w & 0x0FFF_FFFF) | ((w & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Decode `count` consecutive varints from the start of `buf`, handing
/// each to `put`, and return the bytes they took. Every varint that ends
/// inside the eight bytes at the read position is cut out of one word
/// load: the word's stop bits mark where each ends, so a word of short
/// varints costs one load and no branch per byte. Longer varints and the
/// last bytes of the buffer go through [`get_varint`], which checks
/// truncation and overflow.
fn get_varints(
    buf: &[u8],
    count: usize,
    mut put: impl FnMut(u64) -> Result<(), PersistError>,
) -> Result<usize, PersistError> {
    let mut pos = 0;
    let mut left = count;
    while left > 0 {
        let Some(w) = word_from(buf, pos) else {
            break;
        };
        let mut stops = w & STOP_BITS;
        if stops == 0 {
            // Longer than eight bytes.
            put(get_varint(buf, &mut pos)?)?;
            left -= 1;
            continue;
        }
        let mut start = 0;
        while stops != 0 && left > 0 {
            let end = stops.trailing_zeros() + 1;
            put(varint_bits((w & (u64::MAX >> (64 - end))) >> start))?;
            start = end;
            stops &= stops - 1;
            left -= 1;
        }
        pos += (start / 8) as usize;
    }
    for _ in 0..left {
        put(get_varint(buf, &mut pos)?)?;
    }
    Ok(pos)
}

#[cold]
fn get_varint_slow(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(PersistError::Truncated {
            context: "varint ran off the end of its buffer",
        })?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(PersistError::Corrupt {
                context: "varint overflows u64",
            });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Byte length `v` takes as a LEB128 varint (1–10), without writing it —
/// the encoders size every candidate encoding before materializing only
/// the winner.
#[inline]
#[must_use]
fn varint_len(v: u64) -> usize {
    // ceil(bits / 7) with a 1-byte floor for v == 0, as a multiply and a
    // shift: (9 · bits + 64) / 64 equals it for every bit count 0–64.
    ((64 - v.leading_zeros() as usize) * 9 + 64) / 64
}

/// Append `vals` as consecutive LEB128 varints whose lengths sum to
/// `size`. The bytes go into a presized slice: values below 2^56 (every
/// `u32`, most `u64`s) are spread into one little-endian word with their
/// continuation bits set and stored whole, the next value overwriting the
/// word's unused tail; the seven bytes of slack that needs are cut off
/// at the end.
fn put_varints(out: &mut Vec<u8>, size: usize, vals: impl Iterator<Item = u64>) {
    let start = out.len();
    out.resize(start + size + 7, 0);
    let dst = &mut out[start..];
    let mut i = 0;
    for mut v in vals {
        if v < 1 << 56 {
            let len = varint_len(v);
            let w = (v & 0x0FFF_FFFF) | ((v & 0x00FF_FFFF_F000_0000) << 4);
            let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x0FFF_C000_0FFF_C000) << 2);
            let w = (w & 0x007F_007F_007F_007F) | ((w & 0x3F80_3F80_3F80_3F80) << 1);
            let continuation = ((1u64 << (8 * (len - 1))) - 1) & STOP_BITS;
            dst[i..i + 8].copy_from_slice(&(w | continuation).to_le_bytes());
            i += len;
        } else {
            while v >= 0x80 {
                dst[i] = (v as u8) | 0x80;
                v >>= 7;
                i += 1;
            }
            dst[i] = v as u8;
            i += 1;
        }
    }
    debug_assert_eq!(i, size, "varint sizing pass disagrees with the writer");
    out.truncate(start + size);
}

/// Zigzag-map a signed value so small magnitudes stay small unsigned.
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `vals` as fixed-width little-endian values: one resize, then
/// whole-element stores into the new tail.
fn put_le<T: Copy, const W: usize>(out: &mut Vec<u8>, vals: &[T], le: impl Fn(T) -> [u8; W]) {
    let start = out.len();
    out.resize(start + vals.len() * W, 0);
    for (dst, &v) in out[start..].as_chunks_mut::<W>().0.iter_mut().zip(vals) {
        *dst = le(v);
    }
}

// ---------------------------------------------------------------------------
// RLE over byte planes
// ---------------------------------------------------------------------------

/// The little-endian word at `bytes[i..i + 8]`.
#[inline]
fn word_at(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i..i + 8]);
    u64::from_le_bytes(w)
}

/// `0x80` in every byte of `x` that is zero, `0` in every other byte.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The first index `p >= i` where four equal bytes start, or
/// `bytes.len()`. Scanned a word at a time: in `w ^ (w >> 8)` a zero byte
/// marks two equal neighbours, and three zero bytes in a row mark four
/// equal bytes.
fn next_run(bytes: &[u8], mut i: usize) -> usize {
    // Of the eight bytes a word compares, the last has no neighbour
    // loaded, so runs can start at the first five positions only.
    const STARTS: u64 = 0x0000_0080_8080_8080;
    while i + 8 <= bytes.len() {
        let w = word_at(bytes, i);
        let z = zero_bytes(w ^ (w >> 8));
        let hits = z & (z >> 8) & (z >> 16) & STARTS;
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 5;
    }
    while i + 4 <= bytes.len() {
        if bytes[i] == bytes[i + 1] && bytes[i] == bytes[i + 2] && bytes[i] == bytes[i + 3] {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// The end of the run of `bytes[j - 1]` that continues at `j`, compared
/// eight bytes at a time.
fn run_end(bytes: &[u8], mut j: usize) -> usize {
    let b = bytes[j - 1];
    let fill = u64::from_le_bytes([b; 8]);
    while j + 8 <= bytes.len() {
        let diff = word_at(bytes, j) ^ fill;
        if diff != 0 {
            return j + (diff.trailing_zeros() / 8) as usize;
        }
        j += 8;
    }
    while j < bytes.len() && bytes[j] == b {
        j += 1;
    }
    j
}

/// Run/literal RLE: `token = varint` where odd tokens mean a run
/// (`(token >> 1)` copies of the next byte) and even tokens a literal
/// block (`(token >> 1)` raw bytes follow). Runs shorter than 4 bytes
/// are folded into literals — below that a run token loses to the bytes
/// it replaces. Every run of four or more equal bytes is emitted as one
/// maximal run token, and the bytes between them as one literal.
fn rle_encode(bytes: &[u8], out: &mut Vec<u8>) {
    let mut lit_start = 0;
    loop {
        let run = next_run(bytes, lit_start);
        if run > lit_start {
            put_varint(out, ((run - lit_start) as u64) << 1);
            out.extend_from_slice(&bytes[lit_start..run]);
        }
        if run == bytes.len() {
            return;
        }
        let end = run_end(bytes, run + 4);
        put_varint(out, (((end - run) as u64) << 1) | 1);
        out.push(bytes[run]);
        lit_start = end;
    }
}

/// One decoded RLE token.
enum Token<'a> {
    /// `len` copies of one byte.
    Run(usize, u8),
    /// Bytes copied through.
    Literal(&'a [u8]),
}

/// Walk the tokens of one RLE plane of `expected` bytes starting at
/// `buf[*pos..]`, handing each to `visit` with the plane offset it starts
/// at. Every token is bounds-checked against both the plane and the
/// buffer before `visit` sees it.
fn rle_plane<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    expected: usize,
    mut visit: impl FnMut(usize, Token<'a>),
) -> Result<(), PersistError> {
    let mut filled = 0usize;
    while filled < expected {
        let token = get_varint(buf, pos)?;
        let len = usize::try_from(token >> 1).map_err(|_| PersistError::Corrupt {
            context: "RLE token length overflows usize",
        })?;
        if len > expected - filled {
            return Err(PersistError::Corrupt {
                context: "RLE run overruns its plane",
            });
        }
        if token & 1 == 1 {
            let b = *buf.get(*pos).ok_or(PersistError::Truncated {
                context: "RLE run byte missing",
            })?;
            *pos += 1;
            visit(filled, Token::Run(len, b));
        } else {
            let lit = pos
                .checked_add(len)
                .and_then(|end| buf.get(*pos..end))
                .ok_or(PersistError::Truncated {
                    context: "RLE literal block missing",
                })?;
            *pos += len;
            visit(filled, Token::Literal(lit));
        }
        filled += len;
    }
    Ok(())
}

/// Decode one RLE byte plane straight into `vals`, OR-ing each byte into
/// the value bits at `shift`. Zero runs — whole low-mantissa planes of
/// integer-valued weights — cost nothing.
fn rle_apply_plane(
    buf: &[u8],
    pos: &mut usize,
    vals: &mut [f64],
    shift: u32,
) -> Result<(), PersistError> {
    let or = |dst: &mut f64, b: u8| *dst = f64::from_bits(dst.to_bits() | (u64::from(b) << shift));
    rle_plane(buf, pos, vals.len(), |at, token| match token {
        Token::Run(_, 0) => {}
        Token::Run(len, b) => vals[at..at + len].iter_mut().for_each(|dst| or(dst, b)),
        Token::Literal(lit) => {
            for (dst, &b) in vals[at..at + lit.len()].iter_mut().zip(lit) {
                or(dst, b);
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Integer columns
// ---------------------------------------------------------------------------

/// An integer column element: the `u64` its varints code, and its raw
/// little-endian width.
pub(crate) trait IntElem: Copy {
    /// Bytes per element stored raw.
    const WIDTH: usize;
    /// The value as the `u64` the varint and delta encodings code.
    fn wide(self) -> u64;
    /// Append `vals` raw, at the column's natural width.
    fn put_raw(out: &mut Vec<u8>, vals: &[Self]);
}

impl IntElem for u64 {
    const WIDTH: usize = 8;
    fn wide(self) -> u64 {
        self
    }
    fn put_raw(out: &mut Vec<u8>, vals: &[u64]) {
        put_le(out, vals, u64::to_le_bytes);
    }
}

impl IntElem for u32 {
    const WIDTH: usize = 4;
    fn wide(self) -> u64 {
        u64::from(self)
    }
    fn put_raw(out: &mut Vec<u8>, vals: &[u32]) {
        put_le(out, vals, u32::to_le_bytes);
    }
}

/// Offsets and sizes: stored as `u64` columns.
impl IntElem for usize {
    const WIDTH: usize = 8;
    fn wide(self) -> u64 {
        self as u64
    }
    fn put_raw(out: &mut Vec<u8>, vals: &[usize]) {
        put_le(out, vals, |v| (v as u64).to_le_bytes());
    }
}

/// Append an integer column, picking the smallest of raw / varint /
/// delta+zigzag+varint, and return the winner's tag.
///
/// Candidates are *sized* first (a cheap arithmetic pass) and only the
/// winner is materialized. Raw is ranked at 8 bytes per element whatever
/// the column's width — the ranking a widened `u64` column gets — and
/// written at the natural width. The varint and delta byte streams do
/// not depend on the width at all (a LEB128 length depends only on the
/// value).
pub(crate) fn encode_ints<T: IntElem>(vals: &[T], out: &mut Vec<u8>) -> u8 {
    let mut varint_size = 0usize;
    let mut delta_size = 0usize;
    let mut prev = 0u64;
    for &v in vals {
        let v = v.wide();
        varint_size += varint_len(v);
        delta_size += varint_len(zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
    let wide_raw_len = vals.len() * 8;
    if wide_raw_len <= varint_size && wide_raw_len <= delta_size {
        T::put_raw(out, vals);
        ENC_RAW
    } else if varint_size <= delta_size {
        put_varints(out, varint_size, vals.iter().map(|v| v.wide()));
        ENC_VARINT
    } else {
        let mut prev = 0u64;
        let deltas = vals.iter().map(|v| {
            let v = v.wide();
            let d = zigzag(v.wrapping_sub(prev) as i64);
            prev = v;
            d
        });
        put_varints(out, delta_size, deltas);
        ENC_DELTA
    }
}

/// Append a `u64` column, picking the smallest of raw / varint /
/// delta+zigzag+varint, and return the winner's tag.
pub fn encode_u64s(vals: &[u64], out: &mut Vec<u8>) -> u8 {
    encode_ints(vals, out)
}

/// Append a `u32` column like [`encode_u64s`] and return its tag: the tag
/// and the varint/delta bytes match the widened `u64` column's, raw stays
/// at 4 bytes per element.
pub fn encode_u32s(vals: &[u32], out: &mut Vec<u8>) -> u8 {
    encode_ints(vals, out)
}

/// The error contexts of one integer column type.
struct IntContexts {
    count: &'static str,
    raw_len: &'static str,
    narrow: &'static str,
    trailing: &'static str,
    unknown: &'static str,
}

/// Decode an integer column of `count` elements. `narrow` converts each
/// decoded `u64` (and `raw` each raw element) to the column type, `None`
/// when it does not fit.
fn decode_ints<T: Copy + Default, const W: usize>(
    enc: u8,
    payload: &[u8],
    count: usize,
    ctx: &IntContexts,
    raw: impl Fn([u8; W]) -> Option<T>,
    narrow: impl Fn(u64) -> Option<T>,
) -> Result<Vec<T>, PersistError> {
    let corrupt = |context| PersistError::Corrupt { context };
    match enc {
        ENC_RAW => {
            if count.checked_mul(W) != Some(payload.len()) {
                return Err(corrupt(ctx.raw_len));
            }
            let mut out = vec![T::default(); count];
            for (dst, &c) in out.iter_mut().zip(payload.as_chunks::<W>().0) {
                *dst = raw(c).ok_or(corrupt(ctx.narrow))?;
            }
            Ok(out)
        }
        ENC_VARINT | ENC_DELTA => {
            // `count` is an unauthenticated header field: every varint
            // takes at least one byte, so the payload bounds it before
            // the allocation it sizes.
            if count > payload.len() {
                return Err(corrupt(ctx.count));
            }
            let mut out = vec![T::default(); count];
            let mut i = 0;
            let mut store = |v: u64| {
                out[i] = narrow(v).ok_or(corrupt(ctx.narrow))?;
                i += 1;
                Ok(())
            };
            let pos = if enc == ENC_VARINT {
                get_varints(payload, count, store)?
            } else {
                let mut prev = 0u64;
                get_varints(payload, count, |d| {
                    prev = prev.wrapping_add(unzigzag(d) as u64);
                    store(prev)
                })?
            };
            if pos != payload.len() {
                return Err(corrupt(ctx.trailing));
            }
            Ok(out)
        }
        _ => Err(corrupt(ctx.unknown)),
    }
}

const U64_CONTEXTS: IntContexts = IntContexts {
    count: "u64 column count exceeds its payload",
    raw_len: "raw u64 column has wrong byte length",
    narrow: "u64 column element out of range",
    trailing: "u64 column has trailing bytes",
    unknown: "unknown encoding tag for u64 column",
};

/// Decode a `u64` column of `count` elements.
pub fn decode_u64s(enc: u8, payload: &[u8], count: usize) -> Result<Vec<u64>, PersistError> {
    decode_ints(
        enc,
        payload,
        count,
        &U64_CONTEXTS,
        |c| Some(u64::from_le_bytes(c)),
        Some,
    )
}

/// Decode a `u32` column of `count` elements (same validation rules as
/// [`decode_u64s`], decoded straight at the narrow width — no temporary
/// `u64` column).
pub fn decode_u32s(enc: u8, payload: &[u8], count: usize) -> Result<Vec<u32>, PersistError> {
    let ctx = IntContexts {
        count: "u32 column count exceeds its payload",
        raw_len: "raw u32 column has wrong byte length",
        narrow: "u32 column element out of range",
        trailing: "u32 column has trailing bytes",
        unknown: "unknown encoding tag for u32 column",
    };
    decode_ints(
        enc,
        payload,
        count,
        &ctx,
        |c| Some(u32::from_le_bytes(c)),
        |v| u32::try_from(v).ok(),
    )
}

/// Decode a `u64` column of `count` offsets or sizes straight into
/// `usize`s.
pub(crate) fn decode_usizes(
    enc: u8,
    payload: &[u8],
    count: usize,
) -> Result<Vec<usize>, PersistError> {
    let ctx = IntContexts {
        narrow: "offset column element overflows usize",
        ..U64_CONTEXTS
    };
    let narrow = |v: u64| usize::try_from(v).ok();
    decode_ints(
        enc,
        payload,
        count,
        &ctx,
        |c| narrow(u64::from_le_bytes(c)),
        narrow,
    )
}

// ---------------------------------------------------------------------------
// f64 columns
// ---------------------------------------------------------------------------

/// Append `vals` as raw little-endian `f64` bit images.
pub(crate) fn put_raw_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    put_le(out, vals, |v: f64| v.to_bits().to_le_bytes());
}

/// Append an `f64` column, picking the smaller of raw LE bytes and
/// byte-shuffle + RLE, and return the winner's tag. Bit-exact: values
/// travel as their `to_bits` image, so `-0.0`, infinities, and NaN
/// payloads round-trip.
///
/// `plane` is scratch for one byte plane, reused across calls. One pass
/// finds the planes whose byte is the same in every value; each of those
/// is a single run token, so only the varying planes are gathered and
/// scanned. Shuffling stops as soon as it can no longer beat raw.
pub fn encode_f64s(vals: &[f64], plane: &mut Vec<u8>, out: &mut Vec<u8>) -> u8 {
    let n = vals.len();
    let raw_len = n * 8;
    let start = out.len();
    let first = vals.first().map_or(0, |v| v.to_bits());
    let varying = vals.iter().fold(0u64, |acc, v| acc | (v.to_bits() ^ first));
    for shift in (0..64).step_by(8) {
        if out.len() - start >= raw_len {
            break;
        }
        if (varying >> shift) as u8 == 0 && n >= 4 {
            put_varint(out, ((n as u64) << 1) | 1);
            out.push((first >> shift) as u8);
        } else {
            plane.clear();
            plane.extend(vals.iter().map(|v| (v.to_bits() >> shift) as u8));
            rle_encode(plane, out);
        }
    }
    if raw_len <= out.len() - start {
        out.truncate(start);
        put_raw_f64s(out, vals);
        ENC_RAW
    } else {
        ENC_SHUFFLE
    }
}

/// Decode an `f64` column of `count` elements.
pub fn decode_f64s(enc: u8, payload: &[u8], count: usize) -> Result<Vec<f64>, PersistError> {
    match enc {
        ENC_RAW => {
            if count.checked_mul(8) != Some(payload.len()) {
                return Err(PersistError::Corrupt {
                    context: "raw f64 column has wrong byte length",
                });
            }
            Ok(payload
                .as_chunks::<8>()
                .0
                .iter()
                .map(|&c| f64::from_bits(u64::from_le_bytes(c)))
                .collect())
        }
        ENC_SHUFFLE => {
            // `count` is unauthenticated: let the first plane's tokens
            // prove that many elements actually materialize from the
            // payload before allocating the 8-byte-wide column.
            rle_plane(payload, &mut 0, count, |_, _| {})?;
            let mut vals = vec![0.0f64; count];
            let mut pos = 0;
            for shift in (0..64).step_by(8) {
                rle_apply_plane(payload, &mut pos, &mut vals, shift)?;
            }
            if pos != payload.len() {
                return Err(PersistError::Corrupt {
                    context: "f64 column has trailing bytes",
                });
            }
            Ok(vals)
        }
        _ => Err(PersistError::Corrupt {
            context: "unknown encoding tag for f64 column",
        }),
    }
}

// ---------------------------------------------------------------------------
// bool columns
// ---------------------------------------------------------------------------

/// Append a `bool` column as an LSB-first bitmap and return its tag.
pub fn encode_bools(vals: &[bool], out: &mut Vec<u8>) -> u8 {
    out.extend(vals.chunks(8).map(|byte| {
        byte.iter()
            .enumerate()
            .fold(0u8, |acc, (i, &v)| acc | (u8::from(v) << i))
    }));
    ENC_BITMAP
}

/// Decode a `bool` column of `count` elements.
pub fn decode_bools(enc: u8, payload: &[u8], count: usize) -> Result<Vec<bool>, PersistError> {
    if enc != ENC_BITMAP {
        return Err(PersistError::Corrupt {
            context: "unknown encoding tag for bool column",
        });
    }
    if payload.len() != count.div_ceil(8) {
        return Err(PersistError::Corrupt {
            context: "bool column has wrong byte length",
        });
    }
    // Trailing padding bits must be zero — anything else is corruption
    // (or a writer bug), not data.
    if !count.is_multiple_of(8) {
        let last = payload[count / 8];
        if last >> (count % 8) != 0 {
            return Err(PersistError::Corrupt {
                context: "bool column has set padding bits",
            });
        }
    }
    Ok((0..count)
        .map(|i| payload[i / 8] >> (i % 8) & 1 == 1)
        .collect())
}

/// Natural (uncompressed, fixed-width) byte size of a column: the
/// baseline the compression-ratio metric divides by.
#[must_use]
pub fn natural_bytes(count: usize, width: usize) -> usize {
    count * width
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// The encoders as they were before the single-pass kernels, kept as
    /// byte-level oracles: every new kernel must emit the same tag and
    /// bytes.
    mod oracle {
        use super::super::{
            put_varint, varint_len, zigzag, ENC_DELTA, ENC_RAW, ENC_SHUFFLE, ENC_VARINT,
        };

        pub fn rle_encode(bytes: &[u8], out: &mut Vec<u8>) {
            let mut i = 0;
            let mut lit_start = 0;
            while i < bytes.len() {
                let b = bytes[i];
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] == b {
                    j += 1;
                }
                let run = j - i;
                if run >= 4 {
                    if lit_start < i {
                        put_varint(out, ((i - lit_start) as u64) << 1);
                        out.extend_from_slice(&bytes[lit_start..i]);
                    }
                    put_varint(out, ((run as u64) << 1) | 1);
                    out.push(b);
                    lit_start = j;
                }
                i = j;
            }
            if lit_start < bytes.len() {
                put_varint(out, ((bytes.len() - lit_start) as u64) << 1);
                out.extend_from_slice(&bytes[lit_start..]);
            }
        }

        pub fn encode_u64s(vals: &[u64]) -> (u8, Vec<u8>) {
            let mut varint_size = 0usize;
            let mut delta_size = 0usize;
            let mut prev = 0u64;
            for &v in vals {
                varint_size += varint_len(v);
                delta_size += varint_len(zigzag(v.wrapping_sub(prev) as i64));
                prev = v;
            }
            let raw_len = vals.len() * 8;
            if raw_len <= varint_size && raw_len <= delta_size {
                let mut raw = Vec::with_capacity(raw_len);
                for &v in vals {
                    raw.extend_from_slice(&v.to_le_bytes());
                }
                (ENC_RAW, raw)
            } else if varint_size <= delta_size {
                let mut varint = Vec::with_capacity(varint_size);
                for &v in vals {
                    put_varint(&mut varint, v);
                }
                (ENC_VARINT, varint)
            } else {
                let mut delta = Vec::with_capacity(delta_size);
                let mut prev = 0u64;
                for &v in vals {
                    put_varint(&mut delta, zigzag(v.wrapping_sub(prev) as i64));
                    prev = v;
                }
                (ENC_DELTA, delta)
            }
        }

        pub fn encode_u32s(vals: &[u32]) -> (u8, Vec<u8>) {
            let wide: Vec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
            match encode_u64s(&wide) {
                (ENC_RAW, _) => (ENC_RAW, vals.iter().flat_map(|v| v.to_le_bytes()).collect()),
                other => other,
            }
        }

        pub fn encode_f64s(vals: &[f64]) -> (u8, Vec<u8>) {
            let n = vals.len();
            let mut shuffled = Vec::with_capacity(n + 16);
            let mut plane = vec![0u8; n];
            for b in 0..8 {
                let shift = 8 * b;
                for (dst, &v) in plane.iter_mut().zip(vals) {
                    *dst = (v.to_bits() >> shift) as u8;
                }
                rle_encode(&plane, &mut shuffled);
            }
            let raw_len = n * 8;
            if raw_len <= shuffled.len() {
                let mut raw = Vec::with_capacity(raw_len);
                for &v in vals {
                    raw.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                (ENC_RAW, raw)
            } else {
                (ENC_SHUFFLE, shuffled)
            }
        }
    }

    fn enc_u64s(vals: &[u64]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        (encode_u64s(vals, &mut out), out)
    }

    fn enc_u32s(vals: &[u32]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        (encode_u32s(vals, &mut out), out)
    }

    fn enc_f64s(vals: &[f64]) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        (encode_f64s(vals, &mut Vec::new(), &mut out), out)
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    /// Decode one RLE plane of `len` bytes back into bytes.
    fn rle_decode(buf: &[u8], pos: &mut usize, len: usize) -> Result<Vec<u8>, PersistError> {
        let mut vals = vec![0.0f64; len];
        rle_apply_plane(buf, pos, &mut vals, 0)?;
        Ok(vals.iter().map(|v| v.to_bits() as u8).collect())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_16_matches_bytewise_reference() {
        // The fast path folds 16 bytes per step; pin it to the plain
        // one-byte-at-a-time recurrence across lengths that hit every
        // remainder case (0..16 tail bytes) and multi-chunk bodies.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in (0..40).chain([255, 256, 257]) {
            let bytes = &data[..len];
            let mut c = !0u32;
            for &b in bytes {
                c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(bytes), !c, "length {len}");
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        let vals = [
            0u64,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            1 << 56,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn word_decoder_matches_one_varint_at_a_time() {
        // Mixed lengths 1–10 in every alignment against the word window,
        // and every cut of the buffer, including mid-varint truncations.
        let mut rng = StdRng::seed_from_u64(11);
        let vals: Vec<u64> = (0..300)
            .map(|_| rng.random::<u64>() >> rng.random_range(0..64u32))
            .collect();
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        for cut in (0..buf.len()).step_by(7).chain([buf.len()]) {
            let bytes = &buf[..cut];
            let mut want = Vec::new();
            let mut pos = 0;
            let want_end = (0..vals.len()).try_for_each(|_| {
                want.push(get_varint(bytes, &mut pos)?);
                Ok::<_, PersistError>(())
            });
            let mut got = Vec::new();
            let got_end = get_varints(bytes, vals.len(), |v| {
                got.push(v);
                Ok(())
            });
            assert_eq!(got, want, "cut {cut}");
            match (got_end, want_end) {
                (Ok(end), Ok(())) => assert_eq!(end, pos, "cut {cut}"),
                (Err(_), Err(_)) => {}
                (got, want) => panic!("cut {cut}: {got:?} against {want:?}"),
            }
        }
    }

    #[test]
    fn varint_len_matches_the_bytes_written() {
        for v in (0..64)
            .flat_map(|b| [(1u64 << b) - 1, 1u64 << b])
            .chain([u64::MAX])
        {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "value {v:#x}");
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut buf = vec![0xFF; 10];
        buf.push(0x7F); // 11 bytes: the 10th byte may only contribute one bit
        assert!(get_varint(&buf, &mut 0).is_err());
        assert!(get_varint(&[0x80], &mut 0).is_err());
        assert!(get_varint(&[0x80; 9], &mut 0).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn u64_column_round_trips_all_encodings() {
        // Monotone offsets: delta should win and round-trip.
        let offsets: Vec<u64> = (0..1000u64).map(|i| i * 17).collect();
        let (enc, payload) = enc_u64s(&offsets);
        assert_eq!(enc, ENC_DELTA);
        assert_eq!(decode_u64s(enc, &payload, offsets.len()).unwrap(), offsets);

        // Large scattered values: raw should win and round-trip.
        let scattered: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (enc, payload) = enc_u64s(&scattered);
        assert_eq!(enc, ENC_RAW);
        assert_eq!(
            decode_u64s(enc, &payload, scattered.len()).unwrap(),
            scattered
        );

        // Small non-monotone values: varint should win and round-trip.
        let small: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100).collect();
        let (enc, payload) = enc_u64s(&small);
        assert_eq!(decode_u64s(enc, &payload, small.len()).unwrap(), small);
    }

    #[test]
    fn u32_column_errors_name_the_u32_column() {
        let context = |r: Result<Vec<u32>, PersistError>| match r {
            Err(PersistError::Corrupt { context }) => context,
            other => panic!("expected a Corrupt error, got {other:?}"),
        };
        // Two elements cannot come out of one payload byte.
        assert_eq!(
            context(decode_u32s(ENC_VARINT, &[1], 2)),
            "u32 column count exceeds its payload"
        );
        assert_eq!(
            context(decode_u32s(ENC_DELTA, &[2, 2], 1)),
            "u32 column has trailing bytes"
        );
        assert_eq!(
            context(decode_u32s(ENC_SHUFFLE, &[], 0)),
            "unknown encoding tag for u32 column"
        );
        let mut wide = Vec::new();
        put_varint(&mut wide, u64::from(u32::MAX) + 1);
        assert_eq!(
            context(decode_u32s(ENC_VARINT, &wide, 1)),
            "u32 column element out of range"
        );
        assert_eq!(
            context(decode_u32s(ENC_RAW, &[0; 6], 2)),
            "raw u32 column has wrong byte length"
        );
    }

    #[test]
    fn f64_column_round_trips_bit_exactly() {
        let vals = vec![
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0e300,
            std::f64::consts::PI,
        ];
        for (enc, payload) in [enc_f64s(&vals), {
            let mut raw = Vec::new();
            put_raw_f64s(&mut raw, &vals);
            (ENC_RAW, raw)
        }] {
            let back = decode_f64s(enc, &payload, vals.len()).unwrap();
            assert_eq!(bits(&vals), bits(&back));
        }
    }

    #[test]
    fn unit_weight_column_compresses_heavily() {
        let vals = vec![1.0f64; 4096];
        let (enc, payload) = enc_f64s(&vals);
        assert_eq!(enc, ENC_SHUFFLE);
        assert!(
            payload.len() * 100 < vals.len() * 8,
            "constant plane RLE should collapse: {} bytes",
            payload.len()
        );
        assert_eq!(decode_f64s(enc, &payload, vals.len()).unwrap(), vals);
    }

    #[test]
    fn bool_column_round_trips_and_rejects_padding_garbage() {
        let vals: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let mut payload = Vec::new();
        let enc = encode_bools(&vals, &mut payload);
        assert_eq!(decode_bools(enc, &payload, vals.len()).unwrap(), vals);
        *payload.last_mut().unwrap() |= 0x80; // set a padding bit
        assert!(decode_bools(enc, &payload, vals.len()).is_err());
    }

    #[test]
    fn rle_handles_incompressible_and_mixed_input() {
        let mixed: Vec<u8> = (0..997u32)
            .map(|i| if i % 90 < 30 { 7 } else { (i * 31 % 251) as u8 })
            .collect();
        let mut enc = Vec::new();
        rle_encode(&mixed, &mut enc);
        let mut pos = 0;
        assert_eq!(rle_decode(&enc, &mut pos, mixed.len()).unwrap(), mixed);
        assert_eq!(pos, enc.len());
    }

    #[test]
    fn rle_matches_oracle_on_runs_at_every_word_offset() {
        // Runs of each length at each offset within a scanned word, with
        // distinct bytes around them so the runs stay maximal.
        for run in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            for at in 0..12 {
                for len in [at + run, at + run + 1, at + run + 9, at + run + 20] {
                    let mut bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 1) as u8).collect();
                    bytes[at..at + run].fill(0xAA);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    rle_encode(&bytes, &mut got);
                    oracle::rle_encode(&bytes, &mut want);
                    assert_eq!(got, want, "run {run} at {at} in {len} bytes");
                    assert_eq!(rle_decode(&got, &mut 0, len).unwrap(), bytes);
                }
            }
        }
    }

    /// A random `u64` column of one of several shapes: sorted offsets,
    /// small ids, scattered words, the extremes, or a mix.
    fn random_u64s(rng: &mut StdRng, len: usize) -> Vec<u64> {
        let shape = rng.random_range(0..5u32);
        let mut acc = 0u64;
        (0..len)
            .map(|_| match shape {
                0 => {
                    acc = acc.wrapping_add(rng.random_range(0..300u64));
                    acc
                }
                1 => rng.random_range(0..200u64),
                2 => rng.random::<u64>() >> rng.random_range(0..64u32),
                3 => [0, 1, u64::from(u32::MAX), u64::MAX, 1 << 56, (1 << 56) - 1]
                    [rng.random_range(0..6usize)],
                _ => match rng.random_range(0..3u32) {
                    0 => u64::MAX - rng.random_range(0..4u64),
                    1 => rng.random_range(0..5u64),
                    _ => rng.random::<u64>(),
                },
            })
            .collect()
    }

    /// A random `f64` column: a palette of special values (NaN payloads,
    /// `-0.0`, infinities) and small integers, with runs of 3, 4, 5, 8, 9
    /// and 16 equal values placed at the start and end of the column — the
    /// boundaries of every byte plane.
    fn random_f64s(rng: &mut StdRng, len: usize) -> Vec<f64> {
        let palette = [
            0.0,
            -0.0,
            1.0,
            2.0,
            0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_DEAD_BEEF_0042),
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let shape = rng.random_range(0..4u32);
        let mut vals: Vec<f64> = (0..len)
            .map(|_| match shape {
                0 => palette[rng.random_range(0..palette.len())],
                1 => rng.random_range(0..8u32).into(),
                2 => f64::from_bits(rng.random::<u64>()),
                _ => rng.random_range(0..40u32) as f64 * 0.25,
            })
            .collect();
        let runs = [3usize, 4, 5, 8, 9, 16];
        for end in [false, true] {
            let run = runs[rng.random_range(0..runs.len())].min(len);
            let v = palette[rng.random_range(0..palette.len())];
            let at = if end { len - run } else { 0 };
            vals[at..at + run].fill(v);
        }
        vals
    }

    #[test]
    fn kernels_emit_the_oracle_bytes_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        let mut plane = Vec::new();
        for case in 0..600 {
            let len = match case % 4 {
                0 => case % 3, // empty, one element, two
                1 => rng.random_range(0..40usize),
                _ => rng.random_range(0..700usize),
            };
            let u64s = random_u64s(&mut rng, len);
            let got = enc_u64s(&u64s);
            assert_eq!(got, oracle::encode_u64s(&u64s), "u64 case {case}");
            assert_eq!(decode_u64s(got.0, &got.1, len).unwrap(), u64s);

            let u32s: Vec<u32> = u64s.iter().map(|&v| v as u32).collect();
            let got = enc_u32s(&u32s);
            assert_eq!(got, oracle::encode_u32s(&u32s), "u32 case {case}");
            assert_eq!(decode_u32s(got.0, &got.1, len).unwrap(), u32s);

            let f64s = random_f64s(&mut rng, len);
            // The plane buffer carries over from the previous case.
            let mut out = vec![0xEE; case % 5];
            let enc = encode_f64s(&f64s, &mut plane, &mut out);
            let (want_enc, want) = oracle::encode_f64s(&f64s);
            assert_eq!(
                (enc, &out[case % 5..]),
                (want_enc, &want[..]),
                "f64 case {case}"
            );
            let back = decode_f64s(enc, &want, len).unwrap();
            assert_eq!(bits(&back), bits(&f64s), "f64 case {case}");
        }
    }
}
