//! Columnar checkpoints + WAL replay for the incremental engine: warm
//! restarts that restore `RothkoRun` / `ReducedDelta` state bit-identical
//! to the writer, instead of recomputing it from scratch.
//!
//! Two artifacts live in a store directory (see [`store::Store`]):
//! a **checkpoint** (full columnar snapshot of the stack) and a **WAL**
//! (the input batches logged since that snapshot). Recovery loads the
//! checkpoint columns straight into engine state, folds the engine's
//! pair summaries from its accumulator rows, and replays the WAL tail
//! through the public API.
//!
//! # Checkpoint format (`CHECKPOINT`, versions 3 and 4)
//!
//! All integers little-endian. The file is a 20-byte header followed by
//! `block_count` self-describing blocks:
//!
//! ```text
//! header:  magic  b"QSC_CKPT"            8 bytes
//!          version u32                   4 bytes   (3 = packed, 4 = mapped)
//!          block_count u32               4 bytes
//!          crc32 over the 16 bytes above 4 bytes
//! block:   id u16 | enc u8 | reserved u8 (= 0)
//!          count u64                     logical element count
//!          payload_len u64               encoded payload bytes
//!          crc32 u32                     over the payload
//!          crc32 u32                     over the 24 header bytes above (mapped only)
//!          payload                       payload_len bytes
//! ```
//!
//! Block ids are assigned once and **never reused**:
//!
//! | id    | column                                   | element |
//! |-------|------------------------------------------|---------|
//! | 0     | scalars (header blob, see below)         | bytes   |
//! | 1–3   | graph CSR: out offsets / targets / weights | u64 / u32 / f64 |
//! | 4–5   | partition: member offsets / member lists | u64 / u32 |
//! | 6–7   | engine accumulators: dout / din          | f64     |
//! | 8–11  | sparse rows out: offsets / colors / weights / dense flags | u64 / u32 / f64 / bool |
//! | 12–15 | sparse rows in: same four columns        |         |
//! | 16–25 | retired, versions 1 and 2 only: pair summaries (min / max per side, their attainer ids, nonzero counts) | f64 / u32 |
//! | 26–28 | reduced instance: sums / sizes / dirty queue | f64 / u64 / u32 |
//!
//! The checkpoint holds only state that cannot be recomputed. The pair
//! summaries are a pure function of the accumulator rows and the
//! partition, so a restore folds them from the rows with the engine's
//! construction scan instead of reading them; the accumulator rows and
//! the reduced sums stay, because a maintained float sum carries bits a
//! fresh one need not reproduce.
//!
//! The scalar blob (block 0) packs dimensions, the full `RothkoConfig`
//! (minus the non-persistable `initial` partition), run counters, engine
//! mode flags, and the WAL coverage sequence, each as varints / raw f64
//! bits in a fixed order. Blocks for absent state (no engine, dense
//! storage, symmetric graphs) are simply omitted; presence flags in the
//! scalar blob say which to expect.
//!
//! # Column encodings
//!
//! Each block's `enc` byte names how its payload was encoded. Encoders
//! pick whichever applicable scheme is smallest for that column:
//!
//! * **raw (0)** — native little-endian bytes.
//! * **varint (1)** — LEB128, 7 bits per byte. Small magnitudes (sizes,
//!   counts) shrink to 1–2 bytes.
//! * **delta (2)** — consecutive differences, zigzag-mapped to unsigned,
//!   then varint. Sorted columns (CSR offsets, member offsets) become
//!   streams of tiny gaps.
//! * **shuffle (3)** — f64 columns split into 8 byte planes (all byte 0s,
//!   then all byte 1s, …) and run/literal RLE-compressed per plane.
//!   Uniform weights and repeated exponents collapse to runs.
//! * **bitmap (4)** — bools packed LSB-first, 8 per byte.
//!
//! Floats round-trip through `to_bits`, so `-0.0`, infinities and NaN
//! payloads survive exactly; restored state is bit-identical.
//!
//! # Mapped layout (version 4)
//!
//! Version 4 ([`checkpoint::Layout::MappedRaw`]) holds the same blocks
//! with three changes, so a reader can serve the large columns straight
//! out of a memory map ([`MappedStore`]):
//!
//! * **Raw pinning.** The *mappable* columns — graph CSR (ids 1–3),
//!   partition (4–5), accumulator planes (6–7), reduced sums (26) — are
//!   always stored as `enc = 0` (raw little-endian), never compressed,
//!   so their payload bytes *are* the in-memory representation
//!   (`u64`-widened offsets, `u32` ids, `f64` bit images). Small or
//!   irregular columns keep size-first encoding selection.
//! * **Alignment.** Every mappable payload starts at a file offset that
//!   is a multiple of 64. The writer inserts explicit padding blocks
//!   (id `0xFFFF`, `count == payload_len` zero bytes) to get there;
//!   readers verify the zeros and skip them.
//! * **Guarded headers.** Each mapped block header ends with a CRC over
//!   its own first 24 bytes, so no single header flip (id, enc, count,
//!   length, or the payload CRC itself) can misdirect a decoder — the
//!   packed layout leaves the `enc` byte unguarded and relies on the
//!   payload CRC alone.
//!
//! The mapped scalar blob additionally appends the graph's edge count
//! (u64) after `wal_seq`, cross-checked against the served CSR during
//! full assembly. Payload CRCs still guard every block; a
//! [`MappedStore`] verifies each one **lazily on the block's first
//! touch** (headers and scalars eagerly at open), which keeps
//! open-to-first-query cost proportional to the columns actually
//! touched instead of the file size.
//!
//! # WAL format (`wal-<first_seq>.seg`, version 1)
//!
//! A segment is a 24-byte header (`b"QSC_WAL\0"`, version u32, first
//! sequence u64, crc32) followed by length-prefixed records:
//! `len u32 | crc32 u32 | seq u64 | type u8 | payload`. Records are
//! **inputs** — edge batches, node-churn batches, maintain markers —
//! replayed through the same public calls the writer made. Sequence
//! numbers are global and contiguous across segments; an unparseable
//! tail in the *last* segment is dropped cleanly (a torn write), while
//! damage in a sealed segment is a hard error. See [`wal`] for details.
//!
//! # Versioning policy
//!
//! The writer emits only the current versions, 3 (packed) and 4
//! (mapped). Readers accept exactly the versions they know — 1 through 4
//! — and reject anything else with [`PersistError::UnsupportedVersion`]:
//! no silent best-effort parsing of future formats. Format evolution adds
//! or retires block ids and scalar fields under bumped version numbers;
//! existing ids keep their meaning forever and are never reassigned.
//! Versions 1 and 2 are versions 3 and 4 plus the retired summary
//! blocks 16–25 and three retired scalar flag bytes (a relaxed-summation
//! flag after `coarsen`, and a summary-tracking and a row-promotion
//! flag around the engine's storage flag). Readers check that a legacy
//! file's summary blocks are present with header counts of `k × k` (0
//! for a symmetric engine's in side) and skip them undecoded, and reject
//! flag bytes that name a retired engine mode. Unknown block ids under a
//! known version are an error, not ignorable padding: each version's
//! files contain exactly the blocks documented here, and both readers
//! enforce that through one block-table walk.
//!
//! # Corruption handling
//!
//! Every failure mode maps to a typed [`PersistError`]; decoding never
//! panics on hostile bytes. Structural validation (offset monotonicity,
//! id ranges, partition coverage, flag consistency) runs before any
//! state constructor with invariants is called, so a CRC-valid but
//! semantically poisoned file is caught as [`PersistError::Corrupt`].

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod error;
mod le;
pub mod mapped;
pub mod store;
pub mod wal;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_into, encode_checkpoint_with,
    read_checkpoint_file, write_checkpoint_file, write_checkpoint_file_with, CheckpointData,
    CheckpointStats, Layout, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CHECKPOINT_VERSION_MAPPED,
};
pub use error::PersistError;
pub use mapped::MappedStore;
pub use store::{Recovered, Store, StoreOptions, CHECKPOINT_FILE};
pub use wal::{last_wal_seq, read_wal, WalRecord, WalWriter, WAL_MAGIC, WAL_VERSION};
