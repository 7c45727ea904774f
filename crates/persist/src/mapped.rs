//! Zero-copy checkpoint access: a [`MappedStore`] memory-maps a
//! mapped-layout (v2 or v4) checkpoint and serves its raw-pinned columns as
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
    assemble_checkpoint, block_table, check_f64_count, checked_payload, find_block,
    is_mapped_version, mappable_width, parse_scalars, scalar_blob, BlockEntry, CheckpointData,
    ColumnSource, ScalarState, BLK_PART_MEMBERS, BLK_PART_OFFSETS, BLK_RED_SUM,
};
use crate::error::PersistError;
use crate::store::CHECKPOINT_FILE;

/// A checkpoint opened as a memory map: O(blocks) open, lazy per-block
/// payload validation, zero-copy column views for the mappable set.
pub struct MappedStore {
    file: Arc<MappedFile>,
    version: u32,
    scalars: ScalarState,
    blocks: Vec<BlockEntry>,
    /// Per block, set once its payload CRC has been verified. Two threads
    /// racing the first touch both validate (benign: same bytes, same
    /// answer); Acquire/Release orders the flag against the reads it
    /// guards.
    validated: Vec<AtomicBool>,
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
    /// header (mapped headers carry their own CRC), the block-id rule,
    /// padding-block zeroing, mappable alignment, and the scalar blob —
    /// the same block-table walk the owned decoder runs. Payload CRCs of
    /// the remaining blocks are deferred to first touch.
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
        let (version, blocks) = block_table(file.bytes())?;
        if !is_mapped_version(version) {
            return Err(PersistError::Mismatch {
                context: "checkpoint is not in the mapped layout",
            });
        }
        // Scalars are validated and parsed eagerly — every later query
        // needs them, and the blob is tiny.
        let scalars = parse_scalars(version, scalar_blob(file.bytes(), &blocks)?)?;
        let validated = blocks.iter().map(|_| AtomicBool::new(false)).collect();
        Ok(MappedStore {
            file,
            version,
            scalars,
            blocks,
            validated,
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
        self.version
    }
    fn scalar_payload(&self) -> Result<&[u8], PersistError> {
        scalar_blob(self.file.bytes(), &self.blocks)
    }
    fn entry(&self, id: u16) -> Result<&BlockEntry, PersistError> {
        Ok(&self.blocks[find_block(&self.blocks, id)?])
    }
    /// The block's payload bytes, CRC-validated on first touch.
    fn payload(&self, id: u16) -> Result<&[u8], PersistError> {
        let i = find_block(&self.blocks, id)?;
        let bytes = self.file.bytes();
        let e = &self.blocks[i];
        if self.validated[i].load(Ordering::Acquire) {
            return Ok(&bytes[e.offset..e.offset + e.len]);
        }
        let payload = checked_payload(bytes, e)?;
        self.validated[i].store(true, Ordering::Release);
        Ok(payload)
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
