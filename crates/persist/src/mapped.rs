//! Zero-copy checkpoint access: a [`MappedStore`] memory-maps a
//! mapped-layout (v2) checkpoint and serves its raw-pinned columns as
//! borrowed slices, so opening a checkpoint costs O(blocks) header
//! validation instead of O(bytes) decoding — and a graph bigger than
//! RAM stays on the page cache, faulted in as it is touched.
//!
//! Integrity is not weakened, only deferred: every block header CRC is
//! verified at open (headers are tiny), and each payload's CRC is
//! verified **lazily on first touch** — the first accessor that reads a
//! column pays one sequential pass over it, after which the column is
//! served without re-validation. Damage anywhere still surfaces as a
//! typed [`PersistError`], never a panic; it just surfaces when the
//! damaged column is first used rather than at open.
//!
//! The fast queries ([`MappedStore::coloring`],
//! [`MappedStore::quotient_weight`]) touch only the partition /
//! reduced-matrix blocks; the graph CSR and accumulator planes stay
//! untouched on disk until [`MappedStore::checkpoint_data`] rebuilds
//! the full stack — and even then the mappable columns are borrowed,
//! not copied.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qsc_core::mmap::{MapError, MappedFile, MappedSlice, Pod};
use qsc_graph::{ColumnBuf, NodeId, SharedColumn};

use crate::checkpoint::{
    assemble_checkpoint, block_payload, bounded_block_count, check_f64_count, mappable_width,
    parse_scalars, CheckpointData, ColumnSource, ScalarState, BLK_PAD, BLK_PART_MEMBERS,
    BLK_PART_OFFSETS, BLK_RED_SUM, BLK_SCALARS, BLOCK_HEADER_V2, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION_MAPPED, FILE_HEADER, MAP_ALIGN,
};
use crate::codec::{crc32, decode_bools, decode_f64s, decode_u32s, decode_u64s, ENC_RAW};
use crate::error::PersistError;
use crate::store::CHECKPOINT_FILE;

/// One block's location inside the map, plus its lazy-validation state.
struct BlockEntry {
    id: u16,
    enc: u8,
    count: usize,
    /// Payload byte offset from the start of the file.
    offset: usize,
    /// Payload byte length.
    len: usize,
    pcrc: u32,
    /// Set once the payload CRC has been verified. Two threads racing
    /// the first touch both validate (benign: same bytes, same answer);
    /// Acquire/Release orders the flag against the reads it guards.
    validated: AtomicBool,
}

/// A checkpoint opened as a memory map: O(blocks) open, lazy per-block
/// payload validation, zero-copy column views for the mappable set.
pub struct MappedStore {
    file: Arc<MappedFile>,
    scalars: ScalarState,
    blocks: Vec<BlockEntry>,
}

fn map_err(e: MapError, context: &'static str) -> PersistError {
    match e {
        MapError::Misaligned { .. } => PersistError::Misaligned { context },
        MapError::Unsupported => PersistError::Mismatch {
            context: "platform cannot serve zero-copy columns",
        },
        MapError::OutOfBounds { .. } | MapError::BadLength { .. } => {
            PersistError::Corrupt { context }
        }
    }
}

impl MappedStore {
    /// Open the checkpoint file inside a store directory.
    pub fn open_dir(dir: &Path) -> Result<Self, PersistError> {
        Self::open(&dir.join(CHECKPOINT_FILE))
    }

    /// Map `path` and validate its skeleton: file header, every block
    /// header (v2 headers carry their own CRC), padding-block zeroing,
    /// mappable alignment, and the scalar blob. Payload CRCs of the
    /// remaining blocks are deferred to first touch.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        if !MappedFile::zero_copy_eligible() {
            // Raw little-endian payloads cannot be reinterpreted in
            // place here (big-endian or 32-bit target); callers fall
            // back to the owned decode path.
            return Err(PersistError::Mismatch {
                context: "platform cannot serve zero-copy columns",
            });
        }
        let file = Arc::new(MappedFile::open(path)?);
        let bytes = file.bytes();
        if bytes.len() < FILE_HEADER {
            return Err(PersistError::Truncated {
                context: "checkpoint shorter than its header",
            });
        }
        if &bytes[0..8] != CHECKPOINT_MAGIC {
            return Err(PersistError::BadMagic { kind: "checkpoint" });
        }
        let version = crate::le::le_u32(&bytes[8..12])?;
        if version != CHECKPOINT_VERSION_MAPPED {
            return Err(PersistError::Mismatch {
                context: "checkpoint is not in the mapped layout",
            });
        }
        let block_count = crate::le::le_u32(&bytes[12..16])?;
        let hcrc = crate::le::le_u32(&bytes[16..20])?;
        if crc32(&bytes[0..16]) != hcrc {
            return Err(PersistError::CrcMismatch {
                context: "checkpoint header",
            });
        }
        let block_count = bounded_block_count(block_count, bytes.len(), BLOCK_HEADER_V2)?;
        let mut pos = FILE_HEADER;
        let mut blocks: Vec<BlockEntry> = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            let hdr = bytes
                .get(pos..pos + BLOCK_HEADER_V2)
                .ok_or(PersistError::Truncated {
                    context: "checkpoint block header",
                })?;
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
            let want = crate::le::le_u32(&hdr[24..28])?;
            if crc32(&hdr[..24]) != want {
                return Err(PersistError::CrcMismatch {
                    context: "checkpoint block header",
                });
            }
            pos += BLOCK_HEADER_V2;
            let offset = pos;
            let payload = block_payload(bytes, pos, len)?;
            pos += len;
            if id == BLK_PAD {
                // Pads are tiny (< MAP_ALIGN bytes): validate eagerly.
                if count != len || payload.iter().any(|&b| b != 0) {
                    return Err(PersistError::Corrupt {
                        context: "padding block holds nonzero bytes",
                    });
                }
                continue;
            }
            if let Some(width) = mappable_width(id) {
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
                validated: AtomicBool::new(false),
            });
        }
        if pos != bytes.len() {
            return Err(PersistError::Corrupt {
                context: "checkpoint has trailing bytes after the last block",
            });
        }
        // Scalars are validated and parsed eagerly — every later query
        // needs them, and the blob is tiny.
        let scalar = blocks
            .iter()
            .find(|b| b.id == BLK_SCALARS)
            .ok_or(PersistError::Corrupt {
                context: "checkpoint is missing a required block",
            })?;
        let payload = &bytes[scalar.offset..scalar.offset + scalar.len];
        if crc32(payload) != scalar.pcrc {
            return Err(PersistError::CrcMismatch {
                context: "checkpoint block payload",
            });
        }
        if scalar.enc != ENC_RAW || scalar.count != scalar.len {
            return Err(PersistError::Corrupt {
                context: "scalar block has a non-raw encoding",
            });
        }
        scalar.validated.store(true, Ordering::Release);
        let scalars = parse_scalars(CHECKPOINT_VERSION_MAPPED, payload)?;
        Ok(MappedStore {
            file,
            scalars,
            blocks,
        })
    }

    /// Whether the file is served by a real memory map (as opposed to
    /// the heap-read fallback on platforms without `mmap`).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    /// Node count, straight from the scalar block.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.scalars.n
    }

    /// Color count, straight from the scalar block.
    #[must_use]
    pub fn num_colors(&self) -> usize {
        self.scalars.k
    }

    /// WAL sequence number the checkpoint covers.
    #[must_use]
    pub fn wal_seq(&self) -> u64 {
        self.scalars.wal_seq
    }

    fn entry(&self, id: u16) -> Result<&BlockEntry, PersistError> {
        self.blocks
            .iter()
            .find(|b| b.id == id)
            .ok_or(PersistError::Corrupt {
                context: "checkpoint is missing a required block",
            })
    }

    /// The block's payload bytes, CRC-validated on first touch.
    fn payload(&self, id: u16) -> Result<&[u8], PersistError> {
        let e = self.entry(id)?;
        let payload = &self.file.bytes()[e.offset..e.offset + e.len];
        if !e.validated.load(Ordering::Acquire) {
            if crc32(payload) != e.pcrc {
                return Err(PersistError::CrcMismatch {
                    context: "checkpoint block payload",
                });
            }
            e.validated.store(true, Ordering::Release);
        }
        Ok(payload)
    }

    /// A zero-copy typed view of a mappable block, CRC-validated on
    /// first touch. The view keeps the map alive via its `Arc`.
    fn view<T: Pod>(&self, id: u16) -> Result<MappedSlice<T>, PersistError> {
        let e = self.entry(id)?;
        self.payload(id)?;
        MappedSlice::new(Arc::clone(&self.file), e.offset, e.count)
            .map_err(|err| map_err(err, "mappable block view rejected"))
    }

    /// The node → color assignment, answered from the partition blocks
    /// alone — the graph CSR and accumulator planes stay untouched.
    pub fn coloring(&self) -> Result<Vec<NodeId>, PersistError> {
        let (n, k) = (self.scalars.n, self.scalars.k);
        let offsets: MappedSlice<usize> = self.view(BLK_PART_OFFSETS)?;
        let members: MappedSlice<NodeId> = self.view(BLK_PART_MEMBERS)?;
        let offsets = offsets.as_slice();
        let members = members.as_slice();
        if offsets.len() != k + 1
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&members.len())
            || members.len() != n
        {
            return Err(PersistError::Corrupt {
                context: "partition offsets length does not match color count",
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(PersistError::Corrupt {
                context: "partition offsets are not monotone",
            });
        }
        let mut coloring = vec![NodeId::MAX; n];
        for c in 0..k {
            for &v in &members[offsets[c]..offsets[c + 1]] {
                let slot = coloring.get_mut(v as usize).ok_or(PersistError::Corrupt {
                    context: "partition member id out of range",
                })?;
                if *slot != NodeId::MAX {
                    return Err(PersistError::Corrupt {
                        context: "partition member appears twice",
                    });
                }
                *slot = c as NodeId;
            }
        }
        // n members, none twice, all in range => every slot was filled.
        Ok(coloring)
    }

    /// One cell of the reduced (quotient) weight matrix, answered from
    /// the mapped `sum` block alone.
    pub fn quotient_weight(&self, a: usize, b: usize) -> Result<f64, PersistError> {
        let rk = self
            .scalars
            .reduced
            .as_ref()
            .ok_or(PersistError::Mismatch {
                context: "checkpoint carries no reduced instance",
            })?
            .k;
        if a >= rk || b >= rk {
            return Err(PersistError::Corrupt {
                context: "quotient weight query out of range",
            });
        }
        let sum: MappedSlice<f64> = self.view(BLK_RED_SUM)?;
        let sum = sum.as_slice();
        if sum.len() != rk * rk {
            return Err(PersistError::Corrupt {
                context: "reduced matrix length mismatch",
            });
        }
        Ok(sum[a * rk + b])
    }

    /// Rebuild the full [`CheckpointData`] with the mappable columns
    /// borrowed from the map: the graph CSR and accumulator planes are
    /// handed to the engine as shared views, not copies. Validation is
    /// the same typed-error pass the owned decoder runs.
    pub fn checkpoint_data(&self) -> Result<CheckpointData, PersistError> {
        // Full assembly reads the large columns front to back; let the
        // kernel stream them rather than fault page by page.
        self.file.advise_sequential();
        let data = assemble_checkpoint(self);
        self.file.advise_normal();
        data
    }
}

impl std::fmt::Debug for MappedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedStore")
            .field("mapped", &self.is_mapped())
            .field("n", &self.scalars.n)
            .field("k", &self.scalars.k)
            .field("wal_seq", &self.scalars.wal_seq)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl ColumnSource for MappedStore {
    fn version(&self) -> u32 {
        CHECKPOINT_VERSION_MAPPED
    }
    fn scalar_payload(&self) -> Result<&[u8], PersistError> {
        self.payload(BLK_SCALARS)
    }
    fn u64s(&self, id: u16) -> Result<Vec<u64>, PersistError> {
        let e = self.entry(id)?;
        decode_u64s(e.enc, self.payload(id)?, e.count)
    }
    fn u32s(&self, id: u16) -> Result<Vec<u32>, PersistError> {
        let e = self.entry(id)?;
        decode_u32s(e.enc, self.payload(id)?, e.count)
    }
    fn f64s(&self, id: u16, expect: usize) -> Result<Vec<f64>, PersistError> {
        let e = self.entry(id)?;
        check_f64_count(e.count, expect)?;
        decode_f64s(e.enc, self.payload(id)?, e.count)
    }
    fn bools(&self, id: u16) -> Result<Vec<bool>, PersistError> {
        let e = self.entry(id)?;
        decode_bools(e.enc, self.payload(id)?, e.count)
    }
    // The zero-copy hooks: mappable columns come back borrowed from the
    // map, everything else falls through to owned decoding.
    fn usize_col(&self, id: u16) -> Result<ColumnBuf<usize>, PersistError> {
        if mappable_width(id).is_some() {
            let col: Arc<dyn SharedColumn<usize>> = Arc::new(self.view::<usize>(id)?);
            Ok(ColumnBuf::from(col))
        } else {
            Ok(self.usizes(id)?.into())
        }
    }
    fn u32_col(&self, id: u16) -> Result<ColumnBuf<NodeId>, PersistError> {
        if mappable_width(id).is_some() {
            let col: Arc<dyn SharedColumn<NodeId>> = Arc::new(self.view::<NodeId>(id)?);
            Ok(ColumnBuf::from(col))
        } else {
            Ok(self.u32s(id)?.into())
        }
    }
    fn f64_col(&self, id: u16, expect: usize) -> Result<ColumnBuf<f64>, PersistError> {
        if mappable_width(id).is_some() {
            check_f64_count(self.entry(id)?.count, expect)?;
            let col: Arc<dyn SharedColumn<f64>> = Arc::new(self.view::<f64>(id)?);
            Ok(ColumnBuf::from(col))
        } else {
            Ok(self.f64s(id, expect)?.into())
        }
    }
}
