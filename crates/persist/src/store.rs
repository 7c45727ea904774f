//! The persistent store: one directory holding the latest checkpoint
//! (`CHECKPOINT`) plus WAL segments, with the write path (log batches,
//! periodically checkpoint + truncate) and the recovery path (load
//! checkpoint, replay the WAL tail through the public engine API).
//!
//! ```text
//!   store-dir/
//!     CHECKPOINT              columnar checkpoint (see crate docs)
//!     wal-<first_seq>.seg     WAL segments, contiguous sequence numbers
//! ```
//!
//! The logging methods ([`Store::log_edge_batch`] …) record exactly the
//! inputs the caller is about to hand the run, so the canonical usage
//! keeps log and state trivially in step:
//!
//! ```ignore
//! store.log_edge_batch(&events)?;
//! run.apply_edge_batch(compacted, &events);
//! reduced.apply_edge_batch(run.partition(), &events);
//! store.log_maintain()?;
//! run.maintain();
//! ```
//!
//! [`Store::recover`] inverts that: it rebuilds the run from the
//! checkpoint snapshot and re-drives every logged record through the
//! same calls (rebuilding each batch's compacted graph from the logged
//! events via a [`GraphDelta`]), validating ranges as it goes so a
//! CRC-clean but semantically poisoned log surfaces as a typed
//! [`PersistError`], never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{NodeChurnBatch, RothkoRun};
use qsc_graph::delta::{EdgeEvent, GraphDelta};

use crate::checkpoint::{
    is_mapped_version, read_checkpoint_file, write_checkpoint_file_with, CheckpointData,
    CheckpointStats, Layout, CHECKPOINT_MAGIC,
};
use crate::error::PersistError;
use crate::mapped::MappedStore;
use crate::wal::{last_wal_seq, read_wal, WalRecord, WalWriter};

/// File name of the checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "CHECKPOINT";

/// Tuning knobs for the write path.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Rotate to a new WAL segment once the current one exceeds this
    /// many bytes.
    pub segment_bytes: u64,
    /// Fsync after this many buffered WAL bytes (fsync batching). `0`
    /// fsyncs every append.
    pub sync_every_bytes: u64,
    /// On-disk layout for checkpoints this store writes. Recovery
    /// auto-detects the layout from the file, so stores can switch
    /// freely between checkpoints.
    pub layout: Layout,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 64 << 20,
            sync_every_bytes: 1 << 20,
            layout: Layout::Packed,
        }
    }
}

/// A store opened for writing: append WAL records, write checkpoints.
pub struct Store {
    dir: PathBuf,
    wal: WalWriter,
    options: StoreOptions,
}

/// What [`Store::recover`] returns: the rebuilt stack plus accounting.
pub struct Recovered {
    /// The run, bit-identical to the writer's at its last logged record.
    pub run: RothkoRun<'static>,
    /// The lockstep reduced instance, when the checkpoint carried one.
    pub reduced: Option<ReducedDelta>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Sequence number of the last applied record (checkpoint coverage
    /// when the tail was empty) — pass to [`Store::open_at`] to resume
    /// logging.
    pub last_seq: u64,
}

impl Store {
    /// Create a store in `dir` (created if missing; any previous store
    /// content there is removed). The WAL starts at sequence 1; write a
    /// checkpoint before relying on recovery.
    pub fn create(dir: &Path, options: StoreOptions) -> Result<Self, PersistError> {
        fs::create_dir_all(dir)?;
        for (_, path) in crate::wal::list_segments(dir)? {
            fs::remove_file(path)?;
        }
        let ckpt = dir.join(CHECKPOINT_FILE);
        if ckpt.exists() {
            fs::remove_file(ckpt)?;
        }
        let wal = WalWriter::create(dir, 1, options.segment_bytes, options.sync_every_bytes)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            wal,
            options,
        })
    }

    /// Reopen an existing store for appending: the next record continues
    /// the sequence after everything currently on disk (torn tails are
    /// ignored, matching what recovery would replay). Opens a fresh
    /// segment; it does not append into the old one.
    pub fn open(dir: &Path) -> Result<Self, PersistError> {
        Self::open_at(dir, last_wal_seq(dir)?, StoreOptions::default())
    }

    /// Reopen for appending with the next sequence number and options
    /// made explicit (see [`Recovered::last_seq`]).
    pub fn open_at(dir: &Path, last_seq: u64, options: StoreOptions) -> Result<Self, PersistError> {
        let wal = WalWriter::create(
            dir,
            last_seq + 1,
            options.segment_bytes,
            options.sync_every_bytes,
        )?;
        Ok(Store {
            dir: dir.to_path_buf(),
            wal,
            options,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the most recently logged record.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Log an edge batch (the `events` about to be applied via
    /// `RothkoRun::apply_edge_batch`).
    pub fn log_edge_batch(&mut self, events: &[EdgeEvent]) -> Result<u64, PersistError> {
        self.wal.append(&WalRecord::EdgeBatch(events.to_vec()))
    }

    /// Log a node-churn batch (about to be applied via
    /// `RothkoRun::apply_node_batch`). The remap is not logged — replay
    /// recomputes it from the same mutations.
    pub fn log_node_batch(&mut self, batch: &NodeChurnBatch) -> Result<u64, PersistError> {
        self.wal.append(&WalRecord::NodeBatch {
            inserted_colors: batch.inserted_colors.clone(),
            edge_events: batch.edge_events.clone(),
            removed: batch.removed.clone(),
        })
    }

    /// Log a `RothkoRun::maintain` call (about to be made).
    pub fn log_maintain(&mut self) -> Result<u64, PersistError> {
        self.wal.append(&WalRecord::Maintain)
    }

    /// Force an fsync durability point for everything logged so far.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()
    }

    /// Write a checkpoint of the current stack state, then rotate the
    /// WAL and delete the segments the checkpoint made redundant.
    /// Everything logged up to now is covered by the checkpoint;
    /// recovery replays only records logged after this call.
    pub fn checkpoint(
        &mut self,
        run: &RothkoRun<'_>,
        reduced: Option<&ReducedDelta>,
    ) -> Result<CheckpointStats, PersistError> {
        self.wal.sync()?;
        let data = CheckpointData {
            graph: run.graph().clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: reduced.map(ReducedDelta::snapshot),
            wal_seq: self.wal.last_seq(),
        };
        let stats = write_checkpoint_file_with(
            &self.dir.join(CHECKPOINT_FILE),
            &data,
            self.options.layout,
        )?;
        self.wal.rotate()?;
        self.wal.truncate_covered(data.wal_seq)?;
        Ok(stats)
    }

    /// Rebuild the full stack from `dir`: load the checkpoint, then
    /// replay the WAL tail through the public engine API. `threads`
    /// overrides the checkpointed thread count when given (results are
    /// thread-count independent; the pool is rebuilt either way).
    ///
    /// The checkpoint's layout is auto-detected from its header:
    /// mapped-layout (v2, v4) files restore through a [`MappedStore`], so
    /// the graph CSR and accumulator planes come back as borrowed
    /// views over the page cache instead of decoded copies. Packed
    /// (v1, v3) files — and any platform where zero-copy reinterpretation
    /// is unsound — take the owned decode path. Either way the
    /// recovered state is bit-identical.
    pub fn recover(dir: &Path, threads: Option<usize>) -> Result<Recovered, PersistError> {
        let ck = load_checkpoint_auto(&dir.join(CHECKPOINT_FILE))?;
        let records = read_wal(dir, ck.wal_seq)?;
        // The WAL must resume exactly where the checkpoint's coverage
        // ends; a later start means a whole leading segment went missing
        // (read_wal can only check continuity between segments it sees).
        if let Some(&(first, _)) = records.first() {
            if first != ck.wal_seq + 1 {
                return Err(PersistError::SequenceGap {
                    expected: ck.wal_seq + 1,
                    found: first,
                });
            }
        }
        replay(ck, records, threads)
    }
}

/// Load a checkpoint choosing the read path by its header version: a
/// mapped layout (v2 or v4) on a zero-copy-capable platform goes through
/// [`MappedStore`]
/// (borrowed columns), everything else through the owned decoder.
fn load_checkpoint_auto(path: &Path) -> Result<CheckpointData, PersistError> {
    use std::io::Read as _;
    let head = {
        let mut f = fs::File::open(path)?;
        let mut h = [0u8; 12];
        match f.read_exact(&mut h) {
            Ok(()) => Some(h),
            // Shorter than a header: let the owned path produce its
            // usual Truncated error.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => None,
            Err(e) => return Err(e.into()),
        }
    };
    let mapped = head.is_some_and(|h| {
        h[0..8] == *CHECKPOINT_MAGIC && crate::le::le_u32(&h[8..12]).is_ok_and(is_mapped_version)
    });
    if mapped && qsc_core::mmap::MappedFile::zero_copy_eligible() {
        MappedStore::open(path)?.checkpoint_data()
    } else {
        read_checkpoint_file(path)
    }
}

fn corrupt(context: &'static str) -> PersistError {
    PersistError::Corrupt { context }
}

/// Re-drive one logged edge-event list through a [`GraphDelta`],
/// reconstructing the writer's mutations from the signed deltas:
/// absent + δ → insert(δ); weight + δ = 0 → delete; otherwise reweight
/// to `weight + δ` (exact for exactly representable weights — the
/// engine's own contract regime).
fn apply_events_to_delta(delta: &mut GraphDelta, events: &[EdgeEvent]) -> Result<(), PersistError> {
    let n = delta.num_nodes() as u32;
    for e in events {
        if e.source >= n || e.target >= n {
            return Err(corrupt("WAL edge event endpoint out of range"));
        }
        // Presence, not weight, picks the branch: a zero-weight edge (an
        // edge list may hold one) is deleted or reweighted, not inserted.
        let old = delta.weight(e.source, e.target);
        let result = if !delta.has_edge(e.source, e.target) {
            delta.insert_edge(e.source, e.target, e.delta)
        } else if old + e.delta == 0.0 {
            delta.delete_edge(e.source, e.target)
        } else {
            delta.reweight_edge(e.source, e.target, old + e.delta)
        };
        result.map_err(|_| corrupt("WAL edge event inconsistent with graph state"))?;
    }
    Ok(())
}

/// Fold any buffered edge batches into the run: one compaction for the
/// whole run of batches (it may patch where the writer flattened or the
/// reverse — only the rows reach the engine and the checkpoint bytes),
/// then the engine applies each batch separately (via
/// [`RothkoRun::apply_edge_batches`]) so the f64 accumulator arithmetic is
/// bit-identical to the writer's one-call-per-batch history. Called at
/// every point that reads the graph — node batches, maintenance, end of
/// WAL.
fn flush_edge_batches(
    run: &mut RothkoRun<'static>,
    pending: &mut Vec<Vec<EdgeEvent>>,
    delta: Option<&mut GraphDelta>,
) {
    if pending.is_empty() {
        return;
    }
    // qsc-audit: allow(no-panic-on-input) -- internal replay invariant, not an input condition: replay() only buffers edge batches after it has constructed the delta it threads through here
    let delta = delta.expect("buffered edge batches imply a live delta");
    let compacted = delta.compact();
    let batches: Vec<&[EdgeEvent]> = pending.iter().map(Vec::as_slice).collect();
    run.apply_edge_batches(&batches, compacted);
    pending.clear();
}

fn replay(
    ck: CheckpointData,
    records: Vec<(u64, WalRecord)>,
    threads: Option<usize>,
) -> Result<Recovered, PersistError> {
    let mut config = ck.config;
    if let Some(t) = threads {
        config.threads = Some(t);
    }
    // The checkpoint's graph moves straight into the run — no copy. The
    // replay's working graph (`delta`, the same compaction cycle the
    // writer's ingest loop ran) is cloned off lazily on the first record
    // that needs it, so record-free recoveries never pay it.
    let mut run = RothkoRun::from_snapshot(ck.graph, config, &ck.run);
    let mut reduced = ck.reduced.as_ref().map(ReducedDelta::from_snapshot);
    let mut delta: Option<GraphDelta> = None;
    // Edge batches between graph-reading records share one compaction;
    // their event lists queue here until the next flush point.
    let mut pending: Vec<Vec<EdgeEvent>> = Vec::new();
    let mut last_seq = ck.wal_seq;
    let replayed = records.len();
    for (seq, rec) in records {
        last_seq = seq;
        match rec {
            WalRecord::EdgeBatch(events) => {
                let delta = delta.get_or_insert_with(|| GraphDelta::new(run.graph().clone()));
                apply_events_to_delta(delta, &events)?;
                // The logged events are authoritative; the delta's
                // re-derived copies are redundant bookkeeping.
                delta.drain_events();
                // Reduced-instance lockstep is independent of the engine
                // fold, and the partition cannot change before the next
                // flush point, so it applies immediately per batch.
                if let Some(rd) = &mut reduced {
                    rd.apply_edge_batch(run.partition(), &events);
                }
                pending.push(events);
            }
            WalRecord::NodeBatch {
                inserted_colors,
                edge_events,
                removed,
            } => {
                flush_edge_batches(&mut run, &mut pending, delta.as_mut());
                let delta = delta.get_or_insert_with(|| GraphDelta::new(run.graph().clone()));
                let k = run.partition().num_colors() as u32;
                if inserted_colors.iter().any(|&c| c >= k) {
                    return Err(corrupt(
                        "WAL node batch inserts into a color that does not exist",
                    ));
                }
                // Removals may not empty a color (the partition's
                // invariant): count per-color survivors up front.
                let mut sizes = run.partition().sizes();
                for &c in &inserted_colors {
                    sizes[c as usize] += 1;
                }
                for _ in 0..inserted_colors.len() {
                    delta.insert_node();
                }
                apply_events_to_delta(delta, &edge_events)?;
                let grown_n = delta.num_nodes() as u32;
                let old_n = run.partition().num_nodes() as u32;
                for &v in &removed {
                    if v >= grown_n {
                        return Err(corrupt("WAL node batch removes an out-of-range node"));
                    }
                    let color = if v < old_n {
                        run.partition().color_of(v)
                    } else {
                        inserted_colors[(v - old_n) as usize]
                    };
                    let size = &mut sizes[color as usize];
                    *size = size
                        .checked_sub(1)
                        .ok_or_else(|| corrupt("WAL node batch empties a color"))?;
                    if *size == 0 {
                        return Err(corrupt("WAL node batch empties a color"));
                    }
                    delta
                        .remove_node(v)
                        .map_err(|_| corrupt("WAL node removal inconsistent with graph state"))?;
                }
                let (compacted, remap) = delta.compact_renumber();
                delta.drain_events();
                delta.drain_node_events();
                // Reduced lockstep needs the *pre-remap* partition (the
                // batch's events speak the grown id space), so it runs
                // against a grown clone before the run applies the batch.
                if let Some(rd) = &mut reduced {
                    let mut p = run.partition().clone();
                    for &c in &inserted_colors {
                        p.insert_node(c);
                        rd.apply_node_insert(c);
                    }
                    rd.apply_edge_batch(&p, &edge_events);
                    for &v in &removed {
                        rd.apply_node_removal(p.color_of(v));
                    }
                }
                let batch = NodeChurnBatch {
                    inserted_colors,
                    edge_events,
                    removed,
                    remap,
                };
                run.apply_node_batch(compacted, &batch);
            }
            WalRecord::Maintain => {
                flush_edge_batches(&mut run, &mut pending, delta.as_mut());
                if let Some(rd) = &mut reduced {
                    // The lockstep closure needs the current graph while
                    // the run is mutably borrowed; the delta's base is
                    // that graph (cloned off here if no earlier record
                    // created it).
                    let delta = delta.get_or_insert_with(|| GraphDelta::new(run.graph().clone()));
                    let graph = delta.base();
                    run.maintain_with(|p, ev| match ev {
                        PartitionEvent::Split(s) => rd.apply_split(graph, p, s),
                        PartitionEvent::Merge(m) => rd.apply_merge(m),
                        PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
                    });
                } else {
                    run.maintain();
                }
            }
        }
    }
    flush_edge_batches(&mut run, &mut pending, delta.as_mut());
    Ok(Recovered {
        run,
        reduced,
        replayed,
        last_seq,
    })
}
