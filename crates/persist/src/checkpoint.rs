//! The columnar checkpoint: one file holding the engine stack state that
//! cannot be recomputed — graph CSR, coloring, accumulator rows, reduced
//! instance, run config and counters — as independently CRC-guarded,
//! individually encoded column blocks.
//!
//! See the crate docs for the full format specification. The one encoder
//! is [`encode_checkpoint_into`]: it streams the file block by block into
//! any seekable writer, encoding each block into one scratch buffer that
//! all blocks of the checkpoint reuse, and seeks back once at the end to
//! fill in the header's block count and CRC. [`write_checkpoint_file`]
//! streams it into a temp file (then fsync + rename + directory fsync);
//! [`encode_checkpoint`] streams it into memory, so both produce the same
//! bytes. The reader is [`read_checkpoint_file`], through the in-memory
//! [`decode_checkpoint`], which the tests corrupt byte-by-byte.
//!
//! Decoding **validates before constructing**: every length, offset
//! monotonicity, id range and flag consistency is checked with typed
//! [`PersistError`]s while the data is still plain columns, so the
//! panicking constructors downstream (`Graph::from_out_csr`,
//! `Partition::from_classes`, the `from_snapshot` family) only ever see
//! witnessed-consistent input.

use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use qsc_core::partition::Partition;
use qsc_core::q_error::{EngineSnapshot, RowsSnapshot};
use qsc_core::reduced::ReducedSnapshot;
use qsc_core::rothko::{RothkoConfig, RunSnapshot, SplitMean};
use qsc_core::storage::StorageMode;
use qsc_graph::{ColumnBuf, Graph, NodeId};

use crate::codec::{
    crc32, decode_bools, decode_f64s, decode_u32s, decode_usizes, encode_bools, encode_f64s,
    encode_ints, natural_bytes, put_raw_f64s, IntElem, ENC_RAW,
};
use crate::error::PersistError;

/// Checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"QSC_CKPT";
/// Packed checkpoint format version the writer emits. Readers also
/// accept the older versions; see the crate docs for the versioning
/// policy.
pub const CHECKPOINT_VERSION: u32 = 3;
/// Mapped (raw-layout) checkpoint format version the writer emits:
/// mappable columns are pinned to [`ENC_RAW`] and 64-byte-aligned so a
/// reader can serve them as zero-copy views straight out of a memory map.
pub const CHECKPOINT_VERSION_MAPPED: u32 = 4;

/// Whether `version` is a mapped layout: 2, or its successor
/// [`CHECKPOINT_VERSION_MAPPED`].
pub(crate) fn is_mapped_version(version: u32) -> bool {
    version == 2 || version == CHECKPOINT_VERSION_MAPPED
}

/// Whether `version` predates [`CHECKPOINT_VERSION`]: versions 1 and 2
/// carry the retired pair-summary blocks and scalar flag bytes.
fn is_legacy(version: u32) -> bool {
    version < CHECKPOINT_VERSION
}

/// On-disk layout a checkpoint is written in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Layout {
    /// Packed layout (version 3): every column goes through size-first
    /// encoding selection (varint / delta / shuffle / raw, whichever is
    /// smallest). Smallest files; restore decodes every column.
    #[default]
    Packed,
    /// Mapped layout (version 4): the large mappable columns (graph CSR,
    /// partition, accumulator planes, reduced sum) are stored as raw
    /// little-endian values with their payloads 64-byte-aligned in the
    /// file, so [`crate::MappedStore`] can hand out borrowed slices
    /// without decoding. Small or irregular columns stay packed.
    MappedRaw,
}

/// File header length: magic + version + block count + header CRC.
const FILE_HEADER: usize = 20;
/// Packed block header: id, enc, reserved, count, payload_len, pcrc.
const BLOCK_HEADER_PACKED: usize = 24;
/// Mapped block header: the packed fields + a CRC over the 24 bytes
/// before it, so a damaged header (most importantly the `enc` byte, which
/// the packed header leaves unguarded) is caught at open rather than
/// misdirecting a decoder.
const BLOCK_HEADER_MAPPED: usize = 28;
/// Alignment every mappable payload starts on in a mapped file — enough
/// for any scalar column plus full-width SIMD loads.
const MAP_ALIGN: usize = 64;

// Block ids, fixed per format version. New columns get new ids in a new
// version; ids are never reused with a different meaning.
pub(crate) const BLK_SCALARS: u16 = 0;
pub(crate) const BLK_GRAPH_OFFSETS: u16 = 1;
pub(crate) const BLK_GRAPH_TARGETS: u16 = 2;
pub(crate) const BLK_GRAPH_WEIGHTS: u16 = 3;
pub(crate) const BLK_PART_OFFSETS: u16 = 4;
pub(crate) const BLK_PART_MEMBERS: u16 = 5;
pub(crate) const BLK_ENG_DOUT: u16 = 6;
pub(crate) const BLK_ENG_DIN: u16 = 7;
pub(crate) const BLK_ROWS_OUT_OFFSETS: u16 = 8;
pub(crate) const BLK_ROWS_OUT_COLORS: u16 = 9;
pub(crate) const BLK_ROWS_OUT_WEIGHTS: u16 = 10;
pub(crate) const BLK_ROWS_OUT_DENSE: u16 = 11;
pub(crate) const BLK_ROWS_IN_OFFSETS: u16 = 12;
pub(crate) const BLK_ROWS_IN_COLORS: u16 = 13;
pub(crate) const BLK_ROWS_IN_WEIGHTS: u16 = 14;
pub(crate) const BLK_ROWS_IN_DENSE: u16 = 15;
/// Versions 1 and 2 only: the pair summaries (per side: min, max,
/// attainer ids, nonzero counts), ids 16 through 25. Restores fold them
/// from the accumulator rows, so readers check these blocks' header
/// counts and skip them undecoded.
const LEGACY_SUMMARY_FIRST: u16 = 16;
const LEGACY_SUMMARY_LAST: u16 = 25;
/// The in-direction blocks among the retired summaries (empty on a
/// symmetric engine).
const LEGACY_SUMMARY_IN: [u16; 5] = [18, 19, 22, 23, 25];
pub(crate) const BLK_RED_SUM: u16 = 26;
pub(crate) const BLK_RED_SIZES: u16 = 27;
pub(crate) const BLK_RED_DIRTY: u16 = 28;
/// Mapped-layout padding block: `count == payload_len` zero bytes
/// inserted so the next (mappable) payload lands on a [`MAP_ALIGN`]
/// boundary.
const BLK_PAD: u16 = 0xFFFF;

/// The block-id rule: every version knows ids 0–15 and 26–28, versions 1
/// and 2 also the retired summaries 16–25, and the mapped layouts the
/// padding id. Any other id under a known version is an error.
fn known_block(version: u32, id: u16) -> bool {
    match id {
        BLK_SCALARS..=BLK_ROWS_IN_DENSE | BLK_RED_SUM..=BLK_RED_DIRTY => true,
        LEGACY_SUMMARY_FIRST..=LEGACY_SUMMARY_LAST => is_legacy(version),
        BLK_PAD => is_mapped_version(version),
        _ => false,
    }
}

/// Element width (bytes) of a block pinned to raw encoding and aligned
/// in the mapped layout, or `None` for blocks that stay packed. The
/// mappable set is the columns a [`crate::MappedStore`] serves as
/// borrowed slices: the graph CSR, the partition (so a coloring can be
/// answered without decoding), the accumulator degree planes, and the
/// reduced weight matrix (so a quotient weight can be answered without
/// decoding).
pub(crate) fn mappable_width(id: u16) -> Option<usize> {
    match id {
        BLK_GRAPH_OFFSETS | BLK_PART_OFFSETS => Some(8),
        BLK_GRAPH_TARGETS | BLK_PART_MEMBERS => Some(4),
        BLK_GRAPH_WEIGHTS | BLK_ENG_DOUT | BLK_ENG_DIN | BLK_RED_SUM => Some(8),
        _ => None,
    }
}

/// Whether a block id is raw-pinned and aligned in the mapped layout.
pub(crate) fn is_mappable(id: u16) -> bool {
    mappable_width(id).is_some()
}

/// Everything a checkpoint holds: the state needed to rebuild a
/// [`qsc_core::rothko::RothkoRun`] (and optionally its lockstep
/// [`qsc_core::reduced::ReducedDelta`]) bit-identically.
#[derive(Clone, Debug)]
pub struct CheckpointData {
    /// The compacted graph the run currently refines.
    pub graph: Graph,
    /// The run's configuration. `initial` is not persisted (it only
    /// matters at construction; restore rebuilds from the snapshot's
    /// partition) and comes back as `None`.
    pub config: RothkoConfig,
    /// The run's resumable state.
    pub run: RunSnapshot,
    /// The reduced-instance state, when the writer maintained one.
    pub reduced: Option<ReducedSnapshot>,
    /// WAL sequence number this checkpoint covers: every record with
    /// `seq <= wal_seq` is already folded into this state, and recovery
    /// replays strictly newer records only.
    pub wal_seq: u64,
}

/// Size accounting for one encoded checkpoint — pipebench reports
/// `file_bytes` as `persist.checkpoint_bytes`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Total file bytes (header + block headers + payloads).
    pub file_bytes: u64,
    /// Natural (fixed-width, uncompressed) bytes of every column — the
    /// compression-ratio baseline.
    pub natural_bytes: u64,
    /// Encoded payload bytes across all blocks.
    pub encoded_bytes: u64,
    /// Number of blocks written.
    pub blocks: u32,
}

impl CheckpointStats {
    /// Natural bytes over encoded payload bytes (∞-safe: 0 when empty).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            0.0
        } else {
            self.natural_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar blob (block 0)
// ---------------------------------------------------------------------------

struct ScalarWriter {
    buf: Vec<u8>,
}

impl ScalarWriter {
    fn new() -> Self {
        ScalarWriter { buf: Vec::new() }
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn flag(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.buf.push(1);
                self.u64(x);
            }
            None => self.buf.push(0),
        }
    }
}

struct ScalarReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ScalarReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ScalarReader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(PersistError::Truncated {
                context: "scalar block ended early",
            })?;
        self.pos += n;
        Ok(s)
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        crate::le::le_u64(self.take(8)?)
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        crate::le::le_f64(self.take(8)?)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn flag(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt {
                context: "boolean scalar is neither 0 nor 1",
            }),
        }
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, PersistError> {
        if self.flag()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Corrupt {
            context: "scalar value overflows usize",
        })
    }
    fn finish(self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt {
                context: "scalar block has trailing bytes",
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Streams checkpoint blocks to `out`. Each block — header and payload,
/// plus the padding block in front of it when the mapped layout needs one
/// — is built in one scratch buffer that every block of the checkpoint
/// reuses, then handed over with one `write_all`.
struct BlockWriter<'w, W> {
    out: &'w mut W,
    /// Bytes written so far, counted from the start of the file.
    at: usize,
    /// The block being built: headers at the front, payload after.
    scratch: Vec<u8>,
    /// Byte-plane scratch for the `f64` shuffle encoder.
    plane: Vec<u8>,
    stats: CheckpointStats,
    layout: Layout,
}

impl<W: Write> BlockWriter<'_, W> {
    fn header_len(&self) -> usize {
        match self.layout {
            Layout::Packed => BLOCK_HEADER_PACKED,
            Layout::MappedRaw => BLOCK_HEADER_MAPPED,
        }
    }

    /// Fill the block header at the start of `hdr`. Mapped headers carry
    /// a CRC over their own first 24 bytes so a damaged header field (id,
    /// enc, count, length, even the payload CRC itself) is caught at open
    /// instead of misdirecting a decoder.
    fn fill_header(layout: Layout, hdr: &mut [u8], id: u16, enc: u8, count: usize, payload: &[u8]) {
        hdr[0..2].copy_from_slice(&id.to_le_bytes());
        hdr[2] = enc;
        hdr[3] = 0; // reserved
        hdr[4..12].copy_from_slice(&(count as u64).to_le_bytes());
        hdr[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        hdr[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
        if layout == Layout::MappedRaw {
            let hcrc = crc32(&hdr[..BLOCK_HEADER_PACKED]);
            hdr[24..28].copy_from_slice(&hcrc.to_le_bytes());
        }
    }

    /// Write one block whose payload `encode` appends to the buffer it is
    /// given (the second buffer is `f64` plane scratch), returning the
    /// payload's encoding tag. A mappable block in the mapped layout is
    /// first padded onto a [`MAP_ALIGN`] boundary.
    fn block(
        &mut self,
        id: u16,
        count: usize,
        natural: usize,
        encode: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>) -> u8,
    ) -> io::Result<()> {
        let header = self.header_len();
        let mut pad = None;
        if self.raw_pinned(id) {
            let payload_at = self.at + header;
            if !payload_at.is_multiple_of(MAP_ALIGN) {
                // A pad block shifts the next payload by its own header
                // plus `pad` zero bytes; solve for the shift that lands
                // the payload on the boundary.
                pad = Some((MAP_ALIGN - ((payload_at + header) % MAP_ALIGN)) % MAP_ALIGN);
            }
        }
        let front = pad.map_or(0, |p| header + p);
        debug_assert!(!self.raw_pinned(id) || (self.at + front + header).is_multiple_of(MAP_ALIGN));
        self.scratch.clear();
        self.scratch.resize(front + header, 0);
        let enc = encode(&mut self.scratch, &mut self.plane);
        if let Some(p) = pad {
            let (hdr, zeros) = self.scratch[..front].split_at_mut(header);
            Self::fill_header(self.layout, hdr, BLK_PAD, ENC_RAW, p, zeros);
            self.stats.blocks += 1;
            self.stats.encoded_bytes += p as u64;
        }
        let (hdr, payload) = self.scratch[front..].split_at_mut(header);
        Self::fill_header(self.layout, hdr, id, enc, count, payload);
        self.stats.blocks += 1;
        self.stats.encoded_bytes += payload.len() as u64;
        self.stats.natural_bytes += natural as u64;
        self.out.write_all(&self.scratch)?;
        self.at += self.scratch.len();
        Ok(())
    }

    /// Is this column pinned to raw little-endian encoding (no
    /// size-first selection) under the current layout?
    fn raw_pinned(&self, id: u16) -> bool {
        self.layout == Layout::MappedRaw && is_mappable(id)
    }

    fn ints<T: IntElem>(&mut self, id: u16, vals: &[T]) -> io::Result<()> {
        let raw = self.raw_pinned(id);
        let natural = natural_bytes(vals.len(), T::WIDTH);
        self.block(id, vals.len(), natural, |out, _| {
            if raw {
                T::put_raw(out, vals);
                ENC_RAW
            } else {
                encode_ints(vals, out)
            }
        })
    }
    fn f64s(&mut self, id: u16, vals: &[f64]) -> io::Result<()> {
        let raw = self.raw_pinned(id);
        self.block(
            id,
            vals.len(),
            natural_bytes(vals.len(), 8),
            |out, plane| {
                if raw {
                    put_raw_f64s(out, vals);
                    ENC_RAW
                } else {
                    encode_f64s(vals, plane, out)
                }
            },
        )
    }
    fn bools(&mut self, id: u16, vals: &[bool]) -> io::Result<()> {
        self.block(id, vals.len(), natural_bytes(vals.len(), 1), |out, _| {
            encode_bools(vals, out)
        })
    }
}

fn split_mean_tag(m: SplitMean) -> u8 {
    match m {
        SplitMean::Arithmetic => 0,
        SplitMean::Geometric => 1,
    }
}

fn storage_tag(s: StorageMode) -> u8 {
    match s {
        StorageMode::Dense => 0,
        StorageMode::Sparse => 1,
        StorageMode::Auto => 2,
    }
}

/// Encode a checkpoint in the default packed layout.
#[must_use]
pub fn encode_checkpoint(data: &CheckpointData) -> (Vec<u8>, CheckpointStats) {
    encode_checkpoint_with(data, Layout::Packed)
}

/// Encode a checkpoint in the given layout, returning the file bytes
/// plus size accounting: [`encode_checkpoint_into`] over an in-memory
/// cursor, so the bytes are exactly the file's.
#[must_use]
pub fn encode_checkpoint_with(data: &CheckpointData, layout: Layout) -> (Vec<u8>, CheckpointStats) {
    let mut file = io::Cursor::new(Vec::new());
    let stats = encode_checkpoint_into(&mut file, data, layout);
    // qsc-audit: allow(no-panic-on-input) -- writes into a Vec-backed cursor have no failure mode; no input reaches this
    let stats = stats.expect("writing to memory cannot fail");
    (file.into_inner(), stats)
}

/// Stream a checkpoint into `out` at its current position, block by
/// block: a placeholder file header, then each block as it is encoded,
/// then one seek back to fill in the block count and the header CRC.
/// `out` is left positioned after the last block. No buffer spans more
/// than one block.
pub fn encode_checkpoint_into<W: Write + Seek>(
    out: &mut W,
    data: &CheckpointData,
    layout: Layout,
) -> Result<CheckpointStats, PersistError> {
    let g = &data.graph;
    let p = &data.run.partition;
    let n = g.num_nodes();
    let k = p.num_colors();

    // Scalar blob first: everything fixed-size, one block.
    let mut s = ScalarWriter::new();
    s.u64(n as u64);
    s.flag(g.is_directed());
    let c = &data.config;
    s.u64(c.max_colors as u64);
    s.f64(c.target_error);
    s.f64(c.alpha);
    s.f64(c.beta);
    s.u8(split_mean_tag(c.split_mean));
    s.opt_u64(c.max_iterations.map(|v| v as u64));
    s.opt_u64(c.threads.map(|v| v as u64));
    s.u64(c.batch as u64);
    s.flag(c.coarsen);
    s.u8(storage_tag(c.storage));
    s.u64(data.run.iterations as u64);
    s.u64(data.run.merges as u64);
    s.f64(data.run.last_max_error);
    s.flag(data.run.done);
    s.u64(k as u64);
    let eng = data.run.engine.as_ref();
    s.flag(eng.is_some());
    if let Some(e) = eng {
        s.u64(e.k as u64);
        s.flag(e.symmetric);
        s.flag(e.sparse_accum);
        s.f64(e.last_beta);
    }
    s.flag(data.reduced.is_some());
    if let Some(r) = &data.reduced {
        s.u64(r.k as u64);
        s.flag(r.symmetric);
    }
    s.u64(data.wal_seq);
    if layout == Layout::MappedRaw {
        // The mapped layout appends the edge count so a reader can
        // cross-check the CSR it serves without re-deriving it eagerly.
        s.u64(g.num_edges() as u64);
    }

    // File header, with the block count and its CRC filled in at the end.
    let version = match layout {
        Layout::Packed => CHECKPOINT_VERSION,
        Layout::MappedRaw => CHECKPOINT_VERSION_MAPPED,
    };
    let start = out.stream_position()?;
    let mut header = [0u8; FILE_HEADER];
    header[0..8].copy_from_slice(CHECKPOINT_MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    out.write_all(&header)?;

    let mut w = BlockWriter {
        out: &mut *out,
        at: FILE_HEADER,
        scratch: Vec::new(),
        plane: Vec::new(),
        stats: CheckpointStats::default(),
        layout,
    };
    w.block(BLK_SCALARS, s.buf.len(), s.buf.len(), |out, _| {
        out.extend_from_slice(&s.buf);
        ENC_RAW
    })?;

    // Graph CSR (out direction only — symmetric in-arrays are its clone,
    // directed in-arrays a counting sort; both recomputed on load). A
    // patched graph's rows are gathered into flat arrays here, so the
    // bytes do not depend on how the graph was compacted.
    let (offs, tgts, wts) = g.out_adjacency();
    w.ints(BLK_GRAPH_OFFSETS, &offs)?;
    w.ints(BLK_GRAPH_TARGETS, &tgts)?;
    w.f64s(BLK_GRAPH_WEIGHTS, &wts)?;
    drop((offs, tgts, wts)); // a patched graph's gathered copies

    // Partition member lists, columnar: class offsets + concatenated
    // members in stored (semantic) order.
    let mut part_offsets = Vec::with_capacity(k + 1);
    let mut part_members: Vec<u32> = Vec::with_capacity(n);
    part_offsets.push(0usize);
    for color in 0..k {
        part_members.extend_from_slice(p.members(color as u32));
        part_offsets.push(part_members.len());
    }
    w.ints(BLK_PART_OFFSETS, &part_offsets)?;
    w.ints(BLK_PART_MEMBERS, &part_members)?;

    if let Some(e) = eng {
        w.f64s(BLK_ENG_DOUT, &e.dout)?;
        w.f64s(BLK_ENG_DIN, &e.din)?;
        for (snap, ids) in [
            (
                &e.rows_out,
                [
                    BLK_ROWS_OUT_OFFSETS,
                    BLK_ROWS_OUT_COLORS,
                    BLK_ROWS_OUT_WEIGHTS,
                    BLK_ROWS_OUT_DENSE,
                ],
            ),
            (
                &e.rows_in,
                [
                    BLK_ROWS_IN_OFFSETS,
                    BLK_ROWS_IN_COLORS,
                    BLK_ROWS_IN_WEIGHTS,
                    BLK_ROWS_IN_DENSE,
                ],
            ),
        ] {
            w.ints(ids[0], &snap.offsets)?;
            w.ints(ids[1], &snap.colors)?;
            w.f64s(ids[2], &snap.weights)?;
            w.bools(ids[3], &snap.dense)?;
        }
    }

    if let Some(r) = &data.reduced {
        w.f64s(BLK_RED_SUM, &r.sum)?;
        w.ints(BLK_RED_SIZES, &r.sizes)?;
        w.ints(BLK_RED_DIRTY, &r.dirty)?;
    }

    let mut stats = w.stats;
    stats.file_bytes = w.at as u64;
    header[12..16].copy_from_slice(&stats.blocks.to_le_bytes());
    let hcrc = crc32(&header[..16]);
    header[16..20].copy_from_slice(&hcrc.to_le_bytes());
    out.seek(SeekFrom::Start(start + 12))?;
    out.write_all(&header[12..])?;
    out.seek(SeekFrom::Start(start + stats.file_bytes))?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One entry of a checkpoint's block table: a block's header fields and
/// where its payload sits in the file.
pub(crate) struct BlockEntry {
    pub id: u16,
    /// Payload encoding tag (`codec::ENC_*`).
    pub enc: u8,
    /// Logical element count.
    pub count: usize,
    /// Payload byte offset from the start of the file.
    pub offset: usize,
    /// Payload byte length.
    pub len: usize,
    /// CRC over the payload.
    pub pcrc: u32,
}

/// Index of block `id` in a block table.
pub(crate) fn find_block(blocks: &[BlockEntry], id: u16) -> Result<usize, PersistError> {
    blocks
        .iter()
        .position(|b| b.id == id)
        .ok_or(PersistError::Corrupt {
            context: "checkpoint is missing a required block",
        })
}

/// Column access the checkpoint assembler is generic over: a block table
/// plus payload bytes. The packed path ([`BlockMap`]) checks every
/// payload CRC up front; the mapped path ([`crate::MappedStore`]) checks
/// each on first touch and serves raw-pinned columns as borrowed slices
/// straight out of a memory map. The `*_col` hooks are where zero-copy
/// plugs in — their defaults fall back to owned decoding, so a source
/// only overrides the columns it can actually map.
pub(crate) trait ColumnSource {
    /// Format version the bytes declared (validated by the source).
    fn version(&self) -> u32;
    /// Block `id`'s table entry.
    fn entry(&self, id: u16) -> Result<&BlockEntry, PersistError>;
    /// Block `id`'s payload, CRC-checked.
    fn payload(&self, id: u16) -> Result<&[u8], PersistError>;
    /// The raw scalar blob (block 0), CRC-checked.
    fn scalar_payload(&self) -> Result<&[u8], PersistError>;
    fn u32s(&self, id: u16) -> Result<Vec<u32>, PersistError> {
        let e = self.entry(id)?;
        decode_u32s(e.enc, self.payload(id)?, e.count)
    }
    /// An `f64` column that must hold exactly `expect` elements: the count
    /// already-decoded, byte-bounded columns imply. One RLE run token
    /// expands to any length, so a shuffled payload cannot bound its own
    /// header count; a count that disagrees fails typed before the decoder
    /// allocates anything.
    fn f64s(&self, id: u16, expect: usize) -> Result<Vec<f64>, PersistError> {
        let e = self.entry(id)?;
        check_f64_count(e.count, expect)?;
        decode_f64s(e.enc, self.payload(id)?, e.count)
    }
    fn bools(&self, id: u16) -> Result<Vec<bool>, PersistError> {
        let e = self.entry(id)?;
        decode_bools(e.enc, self.payload(id)?, e.count)
    }
    fn usizes(&self, id: u16) -> Result<Vec<usize>, PersistError> {
        let e = self.entry(id)?;
        decode_usizes(e.enc, self.payload(id)?, e.count)
    }
    fn usize_col(&self, id: u16) -> Result<ColumnBuf<usize>, PersistError> {
        Ok(self.usizes(id)?.into())
    }
    fn u32_col(&self, id: u16) -> Result<ColumnBuf<NodeId>, PersistError> {
        Ok(self.u32s(id)?.into())
    }
    fn f64_col(&self, id: u16, expect: usize) -> Result<ColumnBuf<f64>, PersistError> {
        Ok(self.f64s(id, expect)?.into())
    }
}

/// The [`ColumnSource::f64s`] count check: a block header's element count
/// against the count its sibling columns imply.
pub(crate) fn check_f64_count(count: usize, expect: usize) -> Result<(), PersistError> {
    if count != expect {
        return Err(PersistError::Corrupt {
            context: "f64 block element count disagrees with the columns it belongs to",
        });
    }
    Ok(())
}

/// `a · b` as an expected element count, typed on overflow.
fn count_product(a: usize, b: usize) -> Result<usize, PersistError> {
    a.checked_mul(b).ok_or(PersistError::Corrupt {
        context: "matrix element count overflows usize",
    })
}

/// A packed decode's view of the file: the block table, every payload
/// CRC already checked.
struct BlockMap<'a> {
    version: u32,
    bytes: &'a [u8],
    blocks: Vec<BlockEntry>,
}

impl ColumnSource for BlockMap<'_> {
    fn version(&self) -> u32 {
        self.version
    }
    fn scalar_payload(&self) -> Result<&[u8], PersistError> {
        scalar_blob(self.bytes, &self.blocks)
    }
    fn entry(&self, id: u16) -> Result<&BlockEntry, PersistError> {
        Ok(&self.blocks[find_block(&self.blocks, id)?])
    }
    fn payload(&self, id: u16) -> Result<&[u8], PersistError> {
        let e = self.entry(id)?;
        Ok(&self.bytes[e.offset..e.offset + e.len])
    }
}

/// The payload of `len` bytes at `pos`, or a typed error when it runs past
/// the end of `bytes` (`len` comes from the file, so `pos + len` may
/// overflow).
fn block_payload(bytes: &[u8], pos: usize, len: usize) -> Result<&[u8], PersistError> {
    pos.checked_add(len)
        .and_then(|end| bytes.get(pos..end))
        .ok_or(PersistError::Truncated {
            context: "checkpoint block payload",
        })
}

/// Validate the file header and walk the block table, returning the
/// version and every non-padding block. Both readers go through it, so
/// they enforce the same rules: headers in bounds (and, in the mapped
/// layouts, CRC-guarded), only [`known_block`] ids, no id twice, padding
/// blocks all zeros, mappable payloads raw and aligned, and blocks that
/// cover the file exactly. Payload CRCs are left to the caller: the
/// packed decoder checks them all up front, a [`crate::MappedStore`] on
/// each block's first touch.
pub(crate) fn block_table(bytes: &[u8]) -> Result<(u32, Vec<BlockEntry>), PersistError> {
    if bytes.len() < FILE_HEADER {
        return Err(PersistError::Truncated {
            context: "checkpoint shorter than its header",
        });
    }
    if &bytes[0..8] != CHECKPOINT_MAGIC {
        return Err(PersistError::BadMagic { kind: "checkpoint" });
    }
    let version = crate::le::le_u32(&bytes[8..12])?;
    if !(1..=CHECKPOINT_VERSION_MAPPED).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_VERSION_MAPPED,
        });
    }
    let block_count = crate::le::le_u32(&bytes[12..16])?;
    let hcrc = crate::le::le_u32(&bytes[16..20])?;
    if crc32(&bytes[0..16]) != hcrc {
        return Err(PersistError::CrcMismatch {
            context: "checkpoint header",
        });
    }
    let mapped = is_mapped_version(version);
    let block_header = if mapped {
        BLOCK_HEADER_MAPPED
    } else {
        BLOCK_HEADER_PACKED
    };
    // Cap the count by how many block headers the bytes can hold, so a
    // crafted count fails typed instead of sizing an allocation.
    let block_count = usize::try_from(block_count).unwrap_or(usize::MAX);
    if block_count > (bytes.len() - FILE_HEADER) / block_header {
        return Err(PersistError::Truncated {
            context: "checkpoint block table",
        });
    }
    let mut pos = FILE_HEADER;
    let mut blocks: Vec<BlockEntry> = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let hdr = bytes
            .get(pos..pos + block_header)
            .ok_or(PersistError::Truncated {
                context: "checkpoint block header",
            })?;
        if mapped {
            // Mapped headers guard themselves: the CRC covers id, enc,
            // count, length and the payload CRC, so no header flip can
            // misdirect the decoder (packed headers leave `enc` unguarded).
            let want = crate::le::le_u32(&hdr[24..28])?;
            if crc32(&hdr[..BLOCK_HEADER_PACKED]) != want {
                return Err(PersistError::CrcMismatch {
                    context: "checkpoint block header",
                });
            }
        }
        let id = crate::le::le_u16(&hdr[0..2])?;
        let enc = hdr[2];
        let count = usize::try_from(crate::le::le_u64(&hdr[4..12])?).map_err(|_| {
            PersistError::Corrupt {
                context: "block element count overflows usize",
            }
        })?;
        let len = usize::try_from(crate::le::le_u64(&hdr[12..20])?).map_err(|_| {
            PersistError::Corrupt {
                context: "block payload length overflows usize",
            }
        })?;
        let pcrc = crate::le::le_u32(&hdr[20..24])?;
        pos += block_header;
        let offset = pos;
        let payload = block_payload(bytes, pos, len)?;
        pos += len;
        if !known_block(version, id) {
            return Err(PersistError::Corrupt {
                context: "unknown block id for the checkpoint version",
            });
        }
        if id == BLK_PAD {
            // Alignment filler: exactly its declared zero bytes (tiny, so
            // checked eagerly), and never looked up by id.
            if count != len || payload.iter().any(|&b| b != 0) {
                return Err(PersistError::Corrupt {
                    context: "padding block holds nonzero bytes",
                });
            }
            continue;
        }
        if let Some(width) = mappable_width(id).filter(|_| mapped) {
            if enc != ENC_RAW {
                return Err(PersistError::Corrupt {
                    context: "mappable block is not raw-encoded in the mapped layout",
                });
            }
            if count.checked_mul(width) != Some(len) {
                return Err(PersistError::Corrupt {
                    context: "mappable block length disagrees with its element count",
                });
            }
            if !offset.is_multiple_of(MAP_ALIGN) {
                return Err(PersistError::Misaligned {
                    context: "mappable block payload is off its alignment boundary",
                });
            }
        }
        if blocks.iter().any(|b| b.id == id) {
            return Err(PersistError::Corrupt {
                context: "duplicate block id in checkpoint",
            });
        }
        blocks.push(BlockEntry {
            id,
            enc,
            count,
            offset,
            len,
            pcrc,
        });
    }
    if pos != bytes.len() {
        return Err(PersistError::Corrupt {
            context: "checkpoint has trailing bytes after the last block",
        });
    }
    Ok((version, blocks))
}

/// The scalar blob (block 0) of a block table: raw-encoded, one element
/// per byte, CRC-checked.
pub(crate) fn scalar_blob<'a>(
    bytes: &'a [u8],
    blocks: &[BlockEntry],
) -> Result<&'a [u8], PersistError> {
    let e = &blocks[find_block(blocks, BLK_SCALARS)?];
    if e.enc != ENC_RAW || e.count != e.len {
        return Err(PersistError::Corrupt {
            context: "scalar block has a non-raw encoding",
        });
    }
    checked_payload(bytes, e)
}

/// Verify block `e`'s payload CRC, returning the payload.
pub(crate) fn checked_payload<'a>(
    bytes: &'a [u8],
    e: &BlockEntry,
) -> Result<&'a [u8], PersistError> {
    let payload = &bytes[e.offset..e.offset + e.len];
    if crc32(payload) != e.pcrc {
        return Err(PersistError::CrcMismatch {
            context: "checkpoint block payload",
        });
    }
    Ok(payload)
}

fn check_offsets(
    offsets: &[usize],
    entries: usize,
    context: &'static str,
) -> Result<(), PersistError> {
    if offsets.first() != Some(&0) || offsets.last() != Some(&entries) {
        return Err(PersistError::Corrupt { context });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Corrupt { context });
    }
    Ok(())
}

fn decode_rows<S: ColumnSource>(
    src: &S,
    ids: [u16; 4],
    expect_rows: Option<usize>,
) -> Result<RowsSnapshot, PersistError> {
    let offsets = src.usizes(ids[0])?;
    let colors = src.u32s(ids[1])?;
    let weights = src.f64s(ids[2], colors.len())?;
    let dense = src.bools(ids[3])?;
    match expect_rows {
        None => {
            if !offsets.is_empty() || !colors.is_empty() || !weights.is_empty() || !dense.is_empty()
            {
                return Err(PersistError::Corrupt {
                    context: "accumulator row columns present for a direction that has none",
                });
            }
        }
        Some(n) => {
            if offsets.len() != n + 1 || dense.len() != n {
                return Err(PersistError::Corrupt {
                    context: "accumulator row column count does not match node count",
                });
            }
            check_offsets(
                &offsets,
                colors.len(),
                "accumulator row offsets are not monotone",
            )?;
            // Entries must be sorted ascending (strictly) per row — the
            // tier contract — and index live colors only.
            for v in 0..n {
                let row = &colors[offsets[v]..offsets[v + 1]];
                if row.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(PersistError::Corrupt {
                        context: "accumulator row entries are not strictly ascending",
                    });
                }
            }
        }
    }
    Ok(RowsSnapshot {
        offsets,
        colors,
        weights,
        dense,
    })
}

/// The engine presence scalars: enough to know which blocks must exist
/// and how long their columns have to be.
pub(crate) struct EngineScalars {
    pub k: usize,
    pub symmetric: bool,
    pub sparse_accum: bool,
    pub last_beta: f64,
}

/// The reduced-instance presence scalars.
pub(crate) struct ReducedScalars {
    pub k: usize,
    pub symmetric: bool,
}

/// The decoded scalar blob (block 0): run config, counters, presence
/// flags and cross-check values — everything fixed-size. A mapped
/// store parses this once at open; full assembly reuses the same
/// parse.
pub(crate) struct ScalarState {
    pub n: usize,
    pub directed: bool,
    pub config: RothkoConfig,
    pub iterations: usize,
    pub merges: usize,
    pub last_max_error: f64,
    pub done: bool,
    pub k: usize,
    pub engine: Option<EngineScalars>,
    pub reduced: Option<ReducedScalars>,
    pub wal_seq: u64,
    /// Mapped layouts only: the writer's edge count, cross-checked against
    /// the CSR during assembly.
    pub num_edges: Option<u64>,
}

/// Parse the scalar blob for the given (already validated) format
/// version.
pub(crate) fn parse_scalars(version: u32, payload: &[u8]) -> Result<ScalarState, PersistError> {
    let legacy = is_legacy(version);
    let mut s = ScalarReader::new(payload);
    let n = s.usize()?;
    let directed = s.flag()?;
    let config = RothkoConfig {
        max_colors: s.usize()?,
        target_error: s.f64()?,
        alpha: s.f64()?,
        beta: s.f64()?,
        split_mean: match s.u8()? {
            0 => SplitMean::Arithmetic,
            1 => SplitMean::Geometric,
            _ => {
                return Err(PersistError::Corrupt {
                    context: "unknown split-mean tag",
                })
            }
        },
        initial: None,
        max_iterations: s.opt_u64()?.map(|v| v as usize),
        threads: s.opt_u64()?.map(|v| v as usize),
        batch: s.usize()?,
        coarsen: s.flag()?,
        storage: {
            if legacy {
                // Retired relaxed-summation flag: read and ignored.
                s.flag()?;
            }
            match s.u8()? {
                0 => StorageMode::Dense,
                1 => StorageMode::Sparse,
                2 => StorageMode::Auto,
                _ => {
                    return Err(PersistError::Corrupt {
                        context: "unknown storage-mode tag",
                    })
                }
            }
        },
    };
    if config.batch == 0 {
        return Err(PersistError::Corrupt {
            context: "checkpoint config has batch size 0",
        });
    }
    let iterations = s.usize()?;
    let merges = s.usize()?;
    let last_max_error = s.f64()?;
    let done = s.flag()?;
    let k = s.usize()?;
    let engine = if s.flag()? {
        let k = s.usize()?;
        let symmetric = s.flag()?;
        // Versions 1 and 2 frame the storage flag with two retired mode
        // flags: summary tracking (always set) and row promotion (always
        // equal to the storage flag).
        if legacy && !s.flag()? {
            return Err(PersistError::Corrupt {
                context: "engine summary flag is clear",
            });
        }
        let sparse_accum = s.flag()?;
        if legacy && s.flag()? != sparse_accum {
            return Err(PersistError::Corrupt {
                context: "engine promote flag differs from its storage flag",
            });
        }
        Some(EngineScalars {
            k,
            symmetric,
            sparse_accum,
            last_beta: s.f64()?,
        })
    } else {
        None
    };
    let reduced = if s.flag()? {
        Some(ReducedScalars {
            k: s.usize()?,
            symmetric: s.flag()?,
        })
    } else {
        None
    };
    let wal_seq = s.u64()?;
    let num_edges = if is_mapped_version(version) {
        Some(s.u64()?)
    } else {
        None
    };
    s.finish()?;
    Ok(ScalarState {
        n,
        directed,
        config,
        iterations,
        merges,
        last_max_error,
        done,
        k,
        engine,
        reduced,
        wal_seq,
        num_edges,
    })
}

/// Assemble a fully validated [`CheckpointData`] from any column
/// source, checking every structural invariant with typed errors while
/// the data is still plain columns — the panicking constructors
/// downstream (`Partition::from_classes`, the `from_snapshot` family)
/// only ever see witnessed-consistent input.
pub(crate) fn assemble_checkpoint<S: ColumnSource>(
    src: &S,
) -> Result<CheckpointData, PersistError> {
    let sc = parse_scalars(src.version(), src.scalar_payload()?)?;
    let (n, k) = (sc.n, sc.k);

    // Graph: the columns flow into the typed-error CSR constructor,
    // which validates lengths, offset monotonicity, target range and
    // row order before any panicking code can see them. A mapped
    // source hands borrowed columns here, so the CSR sits on the page
    // cache instead of being copied out.
    let offsets = src.usize_col(BLK_GRAPH_OFFSETS)?;
    let targets = src.u32_col(BLK_GRAPH_TARGETS)?;
    let weights = src.f64_col(BLK_GRAPH_WEIGHTS, targets.len())?;
    let graph =
        Graph::from_mapped_columns(n, sc.directed, offsets, targets, weights).map_err(|_| {
            PersistError::Corrupt {
                context: "graph CSR columns failed validation",
            }
        })?;
    if let Some(m) = sc.num_edges {
        if graph.num_edges() as u64 != m {
            return Err(PersistError::Corrupt {
                context: "graph edge count disagrees with the scalar block",
            });
        }
    }

    // Partition.
    let part_offsets = src.usizes(BLK_PART_OFFSETS)?;
    let part_members = src.u32s(BLK_PART_MEMBERS)?;
    if part_offsets.len() != k + 1 {
        return Err(PersistError::Corrupt {
            context: "partition offsets length does not match color count",
        });
    }
    check_offsets(
        &part_offsets,
        part_members.len(),
        "partition offsets are not monotone",
    )?;
    if part_members.len() != n {
        return Err(PersistError::Corrupt {
            context: "partition member count does not match node count",
        });
    }
    let mut seen = vec![false; n];
    for &v in &part_members {
        let slot = seen.get_mut(v as usize).ok_or(PersistError::Corrupt {
            context: "partition member id out of range",
        })?;
        if *slot {
            return Err(PersistError::Corrupt {
                context: "partition member appears twice",
            });
        }
        *slot = true;
    }
    // n members, none twice, all in range => exact cover of 0..n.
    let classes: Vec<Vec<NodeId>> = (0..k)
        .map(|c| part_members[part_offsets[c]..part_offsets[c + 1]].to_vec())
        .collect();
    let partition = Partition::from_classes(n, classes);

    // Engine.
    let engine = if let Some(es) = &sc.engine {
        let EngineScalars {
            k: ek,
            symmetric,
            sparse_accum,
            last_beta,
        } = *es;
        if ek != k {
            return Err(PersistError::Corrupt {
                context: "engine color count disagrees with partition",
            });
        }
        if symmetric == sc.directed {
            return Err(PersistError::Corrupt {
                context: "engine symmetry flag disagrees with graph direction",
            });
        }
        // Accumulator planes: whole-axis columns a mapped source can
        // serve zero-copy (restore advises them sequential).
        let plane = count_product(n, k)?;
        let dout = src.f64_col(BLK_ENG_DOUT, if sparse_accum { 0 } else { plane })?;
        let din = src.f64_col(
            BLK_ENG_DIN,
            if sparse_accum || symmetric { 0 } else { plane },
        )?;
        let rows_out = decode_rows(
            src,
            [
                BLK_ROWS_OUT_OFFSETS,
                BLK_ROWS_OUT_COLORS,
                BLK_ROWS_OUT_WEIGHTS,
                BLK_ROWS_OUT_DENSE,
            ],
            (sparse_accum && n > 0).then_some(n),
        )?;
        let rows_in = decode_rows(
            src,
            [
                BLK_ROWS_IN_OFFSETS,
                BLK_ROWS_IN_COLORS,
                BLK_ROWS_IN_WEIGHTS,
                BLK_ROWS_IN_DENSE,
            ],
            (sparse_accum && !symmetric && n > 0).then_some(n),
        )?;
        if sparse_accum {
            // Entry colors must index live colors (the split-correctness
            // writer invariant: columns >= k are zero, hence absent).
            if rows_out
                .colors
                .iter()
                .chain(rows_in.colors.iter())
                .any(|&c| c as usize >= k)
            {
                return Err(PersistError::Corrupt {
                    context: "accumulator row entry color out of range",
                });
            }
        }
        if is_legacy(src.version()) {
            // The retired pair-summary blocks: the restore folds the
            // summaries from the accumulator rows, so these are checked
            // for shape and skipped, never decoded or trusted.
            let square = count_product(k, k)?;
            for id in LEGACY_SUMMARY_FIRST..=LEGACY_SUMMARY_LAST {
                let in_side = LEGACY_SUMMARY_IN.contains(&id);
                let expect = if symmetric && in_side { 0 } else { square };
                if src.entry(id)?.count != expect {
                    return Err(PersistError::Corrupt {
                        context: "retired pair-summary block count disagrees with the color count",
                    });
                }
            }
        }
        Some(EngineSnapshot {
            n,
            k,
            symmetric,
            sparse_accum,
            last_beta,
            dout,
            din,
            rows_out,
            rows_in,
        })
    } else {
        None
    };

    // Reduced instance.
    let reduced = if let Some(rs) = &sc.reduced {
        let (rk, rsym) = (rs.k, rs.symmetric);
        if rk != k {
            return Err(PersistError::Corrupt {
                context: "reduced color count disagrees with partition",
            });
        }
        let sum = src.f64s(BLK_RED_SUM, count_product(rk, rk)?)?;
        let sizes = src.usizes(BLK_RED_SIZES)?;
        let dirty = src.u32s(BLK_RED_DIRTY)?;
        if sizes.len() != rk {
            return Err(PersistError::Corrupt {
                context: "reduced matrix length mismatch",
            });
        }
        // Ids at or past `rk` are colors merges removed since the last
        // drain; they form the run `rk..=max` (see
        // `ReducedDelta::from_snapshot`), so each is below
        // `rk + dirty.len()`.
        let id_bound = rk + dirty.len();
        if dirty.iter().any(|&c| c as usize >= id_bound) {
            return Err(PersistError::Corrupt {
                context: "reduced dirty color out of range",
            });
        }
        let mut flagged = vec![false; id_bound];
        for &c in &dirty {
            if flagged[c as usize] {
                return Err(PersistError::Corrupt {
                    context: "reduced dirty color listed twice",
                });
            }
            flagged[c as usize] = true;
        }
        Some(ReducedSnapshot {
            k: rk,
            sum,
            sizes,
            symmetric: rsym,
            dirty,
        })
    } else {
        None
    };

    Ok(CheckpointData {
        graph,
        config: sc.config,
        run: RunSnapshot {
            partition,
            engine,
            iterations: sc.iterations,
            merges: sc.merges,
            last_max_error: sc.last_max_error,
            done: sc.done,
        },
        reduced,
        wal_seq: sc.wal_seq,
    })
}

/// Decode a checkpoint from bytes (either layout), validating every
/// structural invariant before touching a panicking constructor.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, PersistError> {
    let (version, blocks) = block_table(bytes)?;
    for e in &blocks {
        checked_payload(bytes, e)?;
    }
    assemble_checkpoint(&BlockMap {
        version,
        bytes,
        blocks,
    })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Write a checkpoint atomically: stream its blocks into a sibling temp
/// file as they are encoded ([`encode_checkpoint_into`]), fsync it,
/// rename it over `path`, fsync the parent directory. A crash at any
/// point leaves either the old checkpoint or the new one, never a torn
/// file. The file's bytes are exactly [`encode_checkpoint_with`]'s.
pub fn write_checkpoint_file(
    path: &Path,
    data: &CheckpointData,
) -> Result<CheckpointStats, PersistError> {
    write_checkpoint_file_with(path, data, Layout::Packed)
}

/// [`write_checkpoint_file`], with an explicit on-disk layout.
pub fn write_checkpoint_file_with(
    path: &Path,
    data: &CheckpointData,
    layout: Layout,
) -> Result<CheckpointStats, PersistError> {
    let tmp = path.with_extension("tmp");
    let stats = {
        let mut f = fs::File::create(&tmp)?;
        let stats = encode_checkpoint_into(&mut f, data, layout)?;
        f.sync_all()?;
        stats
    };
    fs::rename(&tmp, path)?;
    // The rename is durable only once the parent directory is flushed; a
    // failure to open or sync it is returned like any other write error.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()?;
    Ok(stats)
}

/// Read and fully validate a checkpoint file.
pub fn read_checkpoint_file(path: &Path) -> Result<CheckpointData, PersistError> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes)
}
