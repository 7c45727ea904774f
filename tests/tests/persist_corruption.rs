//! Corruption robustness suite: hostile bytes are **typed errors, never
//! panics**.
//!
//! Checkpoints: every single-bit flip over the *entire* file (header,
//! every block header field, every payload byte) must either fail with a
//! typed [`qsc_persist::PersistError`] or decode to the exact original
//! state (flips landing in ignored padding); every strict prefix
//! truncation must fail typed. Targeted cases pin the specific error
//! variants for bad magic, unknown versions, and header CRC damage, and
//! crafted block counts and payload lengths behind valid CRCs fail typed
//! without allocating or overflowing.
//!
//! WAL: damage in a *sealed* segment is a hard error; any truncation or
//! flip in the *last* (open) segment recovers cleanly to the longest
//! prefix of complete records — the recover-to-last-complete-batch
//! guarantee, exercised at every byte boundary of the open segment.
//! CRC-valid but semantically poisoned records (out-of-range colors,
//! color-emptying removals, dangling node ids) must surface as
//! [`qsc_persist::PersistError::Corrupt`] from replay, not panics.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{NodeChurnBatch, Rothko, RothkoConfig, RothkoRun};
use qsc_graph::{Graph, GraphBuilder, GraphDelta, NodeRemap};
use qsc_persist::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_with, read_wal, CheckpointData, Layout,
    MappedStore, PersistError, Store, StoreOptions,
};
use rand::prelude::*;

fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qsc-persist-corrupt-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Small deterministic graph with exactly representable weights.
fn small_graph(n: usize, edges: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            b.add_edge(u, v, (rng.random_range(1u32..9) as f64) * 0.5);
        }
    }
    b.build()
}

/// A maintained run + reduced pair over a small graph.
fn small_stack(seed: u64) -> (Graph, RothkoRun<'static>, ReducedDelta) {
    let g = small_graph(30, 110, seed);
    let config = RothkoConfig {
        max_colors: 12,
        target_error: 3.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config.clone()).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let snap = run.snapshot();
    (
        g.clone(),
        RothkoRun::from_snapshot(g, config, &snap),
        reduced,
    )
}

fn checkpoint_bytes(seed: u64) -> Vec<u8> {
    let (g, run, reduced) = small_stack(seed);
    let data = CheckpointData {
        graph: g,
        config: run.config().clone(),
        run: run.snapshot(),
        reduced: Some(reduced.snapshot()),
        wal_seq: 7,
    };
    encode_checkpoint(&data).0
}

#[test]
fn every_checkpoint_bit_flip_is_detected_or_inert() {
    let bytes = checkpoint_bytes(3);
    let baseline = encode_checkpoint(&decode_checkpoint(&bytes).unwrap()).0;
    assert_eq!(baseline, bytes, "decode→encode must be the identity");
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            // Must never panic. Ok is tolerated only when the flip landed
            // in bytes the format ignores (reserved padding) — the
            // decoded state must then re-encode to the pristine bytes.
            if let Ok(data) = decode_checkpoint(&mutated) {
                assert_eq!(
                    encode_checkpoint(&data).0,
                    baseline,
                    "byte {i} bit {bit}: flip decoded Ok to a different state"
                );
            }
        }
    }
}

#[test]
fn every_checkpoint_truncation_fails_typed() {
    let bytes = checkpoint_bytes(4);
    for len in 0..bytes.len() {
        let err = decode_checkpoint(&bytes[..len]).expect_err("strict prefix must not decode");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
                    | PersistError::CrcMismatch { .. }
                    | PersistError::BadMagic { .. }
            ),
            "truncation to {len} gave unexpected error {err}"
        );
    }
}

#[test]
fn checkpoint_header_fields_fail_with_specific_errors() {
    let bytes = checkpoint_bytes(5);
    // Magic.
    let mut m = bytes.clone();
    m[0] = b'X';
    assert!(matches!(
        decode_checkpoint(&m),
        Err(PersistError::BadMagic { kind: "checkpoint" })
    ));
    // Version (future version, header CRC fixed up to isolate the check).
    let mut v = bytes.clone();
    v[8..12].copy_from_slice(&99u32.to_le_bytes());
    let crc = qsc_persist::codec::crc32(&v[0..16]);
    v[16..20].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode_checkpoint(&v),
        Err(PersistError::UnsupportedVersion {
            found: 99,
            supported: 4
        })
    ));
    // Block count (header CRC catches the edit).
    let mut c = bytes.clone();
    c[12] ^= 0xff;
    assert!(matches!(
        decode_checkpoint(&c),
        Err(PersistError::CrcMismatch { .. })
    ));
    // Header CRC itself.
    let mut h = bytes.clone();
    h[19] ^= 0x01;
    assert!(matches!(
        decode_checkpoint(&h),
        Err(PersistError::CrcMismatch { .. })
    ));
    // A payload byte (first block's payload starts at 20 + 24).
    let mut p = bytes;
    p[44] ^= 0x10;
    assert!(decode_checkpoint(&p).is_err());
}

/// Build a store with one checkpoint and `batches` logged edge batches,
/// returning (dir, per-batch state bytes) where entry `i` is the state
/// after batch `i` (entry 0 = checkpoint-only state).
fn store_with_batches(tag: &str, batches: usize) -> (PathBuf, Vec<Vec<u8>>) {
    let dir = temp_store_dir(tag);
    let (g, mut run, mut reduced) = small_stack(11);
    let mut store = Store::create(
        &dir,
        StoreOptions {
            segment_bytes: u64::MAX,
            sync_every_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g);
    let mut rng = StdRng::seed_from_u64(77);
    let state = |run: &RothkoRun<'_>, reduced: &ReducedDelta| {
        let data = CheckpointData {
            graph: run.graph().clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: Some(reduced.snapshot()),
            wal_seq: 0,
        };
        encode_checkpoint(&data).0
    };
    let mut states = vec![state(&run, &reduced)];
    for _ in 0..batches {
        let n = delta.num_nodes();
        let mut events = Vec::new();
        for _ in 0..6 {
            for _ in 0..20 {
                let u = rng.random_range(0..n) as u32;
                let v = rng.random_range(0..n) as u32;
                if u != v && !delta.has_edge(u, v) {
                    delta
                        .insert_edge(u, v, (rng.random_range(1u32..9) as f64) * 0.5)
                        .unwrap();
                    break;
                }
            }
        }
        events.extend(delta.drain_events());
        store.log_edge_batch(&events).unwrap();
        let compacted = delta.compact();
        run.apply_edge_batch(compacted, &events);
        reduced.apply_edge_batch(run.partition(), &events);
        states.push(state(&run, &reduced));
    }
    store.sync().unwrap();
    (dir, states)
}

/// The single open WAL segment in `dir` (the one recovery treats as last).
fn open_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    segs.pop().unwrap()
}

/// Byte offsets of record boundaries in a segment (24-byte header, then
/// `len u32 | crc u32 | body(len)` frames).
fn record_boundaries(seg: &[u8]) -> Vec<usize> {
    let mut bounds = vec![24usize];
    let mut pos = 24usize;
    while pos + 8 <= seg.len() {
        let len = u32::from_le_bytes(seg[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        bounds.push(pos);
    }
    assert_eq!(*bounds.last().unwrap(), seg.len(), "trailing garbage");
    bounds
}

#[test]
fn torn_wal_tail_recovers_to_last_complete_batch() {
    let (dir, states) = store_with_batches("torn", 3);
    let seg_path = open_segment(&dir);
    let pristine = fs::read(&seg_path).unwrap();
    let bounds = record_boundaries(&pristine);
    assert_eq!(bounds.len(), 4, "3 records expected");
    // Truncate the open segment at EVERY byte length: recovery must
    // succeed and land exactly on the last complete record's state.
    for cut in 0..pristine.len() {
        fs::write(&seg_path, &pristine[..cut]).unwrap();
        let rec = Store::recover(&dir, None)
            .unwrap_or_else(|e| panic!("cut at {cut} failed recovery: {e}"));
        let complete = bounds.iter().filter(|&&b| b <= cut && b > 24).count();
        assert_eq!(rec.replayed, complete, "cut at {cut}");
        let data = CheckpointData {
            graph: rec.run.graph().clone(),
            config: rec.run.config().clone(),
            run: rec.run.snapshot(),
            reduced: rec.reduced.as_ref().map(ReducedDelta::snapshot),
            wal_seq: 0,
        };
        assert_eq!(
            encode_checkpoint(&data).0,
            states[complete],
            "cut at {cut}: wrong recovered state"
        );
    }
    fs::write(&seg_path, &pristine).unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flips_in_open_segment_records_drop_the_tail_not_the_process() {
    let (dir, states) = store_with_batches("tailflip", 3);
    let seg_path = open_segment(&dir);
    let pristine = fs::read(&seg_path).unwrap();
    let bounds = record_boundaries(&pristine);
    // Flip one byte inside each record: everything from that record on
    // is dropped as a torn tail; earlier records survive.
    for (i, w) in bounds.windows(2).enumerate() {
        let mut mutated = pristine.clone();
        mutated[w[0] + (w[1] - w[0]) / 2] ^= 0x40;
        fs::write(&seg_path, &mutated).unwrap();
        let rec = Store::recover(&dir, None).unwrap();
        assert_eq!(rec.replayed, i, "flip in record {i}");
        let data = CheckpointData {
            graph: rec.run.graph().clone(),
            config: rec.run.config().clone(),
            run: rec.run.snapshot(),
            reduced: rec.reduced.as_ref().map(ReducedDelta::snapshot),
            wal_seq: 0,
        };
        assert_eq!(encode_checkpoint(&data).0, states[i]);
    }
    // A flip in the open segment's *header* is a hard error: headers are
    // written whole before any record is acknowledged.
    let mut mutated = pristine.clone();
    mutated[13] ^= 0x01;
    fs::write(&seg_path, &mutated).unwrap();
    assert!(Store::recover(&dir, None).is_err());
    fs::write(&seg_path, &pristine).unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damage_in_sealed_segments_is_a_hard_error() {
    // Tiny segment budget: every record rotates into its own segment, so
    // all but the newest are sealed.
    let dir = temp_store_dir("sealed");
    let (g, mut run, mut reduced) = small_stack(21);
    let mut store = Store::create(
        &dir,
        StoreOptions {
            segment_bytes: 64,
            sync_every_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g);
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..6 {
        let n = delta.num_nodes();
        loop {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v && !delta.has_edge(u, v) {
                delta.insert_edge(u, v, 1.5).unwrap();
                break;
            }
        }
        let events = delta.drain_events();
        store.log_edge_batch(&events).unwrap();
        let compacted = delta.compact();
        run.apply_edge_batch(compacted, &events);
        reduced.apply_edge_batch(run.partition(), &events);
    }
    store.sync().unwrap();
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 2, "rotation did not produce sealed segments");
    let sealed = &segs[0];
    let pristine = fs::read(sealed).unwrap();

    // Record CRC damage in a sealed segment.
    let mut m = pristine.clone();
    let last = m.len() - 1;
    m[last] ^= 0x02;
    fs::write(sealed, &m).unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::CrcMismatch { .. }) | Err(PersistError::Corrupt { .. })
    ));

    // Truncated sealed segment.
    fs::write(sealed, &pristine[..pristine.len() - 3]).unwrap();
    assert!(Store::recover(&dir, None).is_err());

    // Missing sealed segment: sequence gap.
    fs::remove_file(sealed).unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::SequenceGap { .. })
    ));

    fs::write(sealed, &pristine).unwrap();
    assert!(Store::recover(&dir, None).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_segment_header_fields_fail_typed() {
    let (dir, _) = store_with_batches("walhdr", 2);
    // Seal the segment by making it non-last: recovery treats the only
    // segment as the open one, so damage must be tested via read_wal on
    // a segment forced into sealed position — easiest is a second, later
    // segment created by reopening the store.
    let mut store = Store::open(&dir).unwrap();
    store.log_maintain().unwrap();
    store.sync().unwrap();
    drop(store);
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 2);
    let sealed = &segs[0];
    let pristine = fs::read(sealed).unwrap();

    let mut m = pristine.clone();
    m[0] = b'Z';
    fs::write(sealed, &m).unwrap();
    assert!(matches!(
        read_wal(&dir, 0),
        Err(PersistError::BadMagic {
            kind: "WAL segment"
        })
    ));

    let mut m = pristine.clone();
    m[8..12].copy_from_slice(&7u32.to_le_bytes());
    fs::write(sealed, &m).unwrap();
    assert!(matches!(
        read_wal(&dir, 0),
        Err(PersistError::UnsupportedVersion { found: 7, .. })
    ));

    let mut m = pristine.clone();
    m[15] ^= 0x20; // first_seq field: header CRC catches it
    fs::write(sealed, &m).unwrap();
    assert!(matches!(
        read_wal(&dir, 0),
        Err(PersistError::CrcMismatch { .. })
    ));

    fs::write(sealed, &pristine).unwrap();
    assert!(read_wal(&dir, 0).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn semantically_poisoned_wal_records_fail_replay_without_panicking() {
    // CRC-valid records whose content violates engine invariants must be
    // rejected by replay validation as Corrupt — these are exactly the
    // inputs that would otherwise panic inside Partition / GraphDelta.
    let make = |tag: &str| {
        let dir = temp_store_dir(tag);
        let (g, run, reduced) = small_stack(31);
        let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.checkpoint(&run, Some(&reduced)).unwrap();
        (dir, g, run, store)
    };
    // Replay recomputes the remap from the logged mutations, so the
    // poisoned batches can carry any placeholder.
    let remap = NodeRemap::identity(0);

    // Insert into a color that does not exist.
    let (dir, _, run, mut store) = make("poison-color");
    let k = run.partition().num_colors() as u32;
    store
        .log_node_batch(&NodeChurnBatch {
            inserted_colors: vec![k + 3],
            edge_events: vec![],
            removed: vec![],
            remap: remap.clone(),
        })
        .unwrap();
    store.sync().unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::Corrupt { .. })
    ));
    let _ = fs::remove_dir_all(&dir);

    // Remove every member of a color.
    let (dir, _, run, mut store) = make("poison-empty");
    let victims: Vec<u32> = run.partition().members(0).to_vec();
    store
        .log_node_batch(&NodeChurnBatch {
            inserted_colors: vec![],
            edge_events: vec![],
            removed: victims,
            remap: remap.clone(),
        })
        .unwrap();
    store.sync().unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::Corrupt { .. })
    ));
    let _ = fs::remove_dir_all(&dir);

    // Edge event with an out-of-range endpoint.
    let (dir, g, _, mut store) = make("poison-endpoint");
    store
        .log_edge_batch(&[qsc_graph::delta::EdgeEvent {
            source: g.num_nodes() as u32 + 5,
            target: 0,
            delta: 1.0,
        }])
        .unwrap();
    store.sync().unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::Corrupt { .. })
    ));
    let _ = fs::remove_dir_all(&dir);

    // Node removal out of range.
    let (dir, g, _, mut store) = make("poison-remove");
    store
        .log_node_batch(&NodeChurnBatch {
            inserted_colors: vec![],
            edge_events: vec![],
            removed: vec![g.num_nodes() as u32 + 9],
            remap,
        })
        .unwrap();
    store.sync().unwrap();
    assert!(matches!(
        Store::recover(&dir, None),
        Err(PersistError::Corrupt { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Mapped layout (version 4): the raw-pinned format must be exactly as
// hostile-byte-proof as the packed one, through both the owned decoder
// and the zero-copy `MappedStore` reader.
// ---------------------------------------------------------------------

fn mapped_checkpoint_bytes(seed: u64) -> Vec<u8> {
    let (g, run, reduced) = small_stack(seed);
    let data = CheckpointData {
        graph: g,
        config: run.config().clone(),
        run: run.snapshot(),
        reduced: Some(reduced.snapshot()),
        wal_seq: 7,
    };
    encode_checkpoint_with(&data, Layout::MappedRaw).0
}

/// A block's position inside a mapped file: (id, header offset, payload
/// offset, payload length).
fn mapped_blocks(bytes: &[u8]) -> Vec<(u16, usize, usize, usize)> {
    const FILE_HEADER: usize = 20;
    const BLOCK_HEADER: usize = 28;
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = FILE_HEADER;
    for _ in 0..count {
        let id = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
        out.push((id, at, at + BLOCK_HEADER, len));
        at += BLOCK_HEADER + len;
    }
    assert_eq!(at, bytes.len(), "header walk must cover the whole file");
    out
}

/// Recompute a mapped block's payload CRC and header CRC after a test
/// mutated its payload, isolating the structural check under test.
fn fix_mapped_block_crcs(bytes: &mut [u8], header_at: usize) {
    let len =
        u64::from_le_bytes(bytes[header_at + 12..header_at + 20].try_into().unwrap()) as usize;
    let payload_at = header_at + 28;
    let pcrc = qsc_persist::codec::crc32(&bytes[payload_at..payload_at + len]);
    bytes[header_at + 20..header_at + 24].copy_from_slice(&pcrc.to_le_bytes());
    let hcrc = qsc_persist::codec::crc32(&bytes[header_at..header_at + 24]);
    bytes[header_at + 24..header_at + 28].copy_from_slice(&hcrc.to_le_bytes());
}

/// Write `bytes` as a checkpoint file in a fresh temp dir, returning the
/// dir and file path.
fn mapped_file_with(tag: &str, bytes: &[u8]) -> (PathBuf, PathBuf) {
    let dir = temp_store_dir(tag);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(qsc_persist::CHECKPOINT_FILE);
    fs::write(&path, bytes).unwrap();
    (dir, path)
}

fn zero_copy_available() -> bool {
    qsc_core::mmap::MappedFile::zero_copy_eligible()
}

#[test]
fn every_mapped_checkpoint_bit_flip_is_detected_or_inert() {
    let bytes = mapped_checkpoint_bytes(3);
    let baseline = encode_checkpoint_with(&decode_checkpoint(&bytes).unwrap(), Layout::MappedRaw).0;
    assert_eq!(baseline, bytes, "decode→encode must be the identity");
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            if let Ok(data) = decode_checkpoint(&mutated) {
                assert_eq!(
                    encode_checkpoint_with(&data, Layout::MappedRaw).0,
                    baseline,
                    "byte {i} bit {bit}: flip decoded Ok to a different state"
                );
            }
        }
    }
}

#[test]
fn every_mapped_checkpoint_truncation_fails_typed() {
    let bytes = mapped_checkpoint_bytes(4);
    for len in 0..bytes.len() {
        let err = decode_checkpoint(&bytes[..len]).expect_err("strict prefix must not decode");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
                    | PersistError::CrcMismatch { .. }
                    | PersistError::BadMagic { .. }
            ),
            "truncation to {len} gave unexpected error {err}"
        );
    }
}

#[test]
fn mapped_store_rejects_truncated_maps_typed() {
    if !zero_copy_available() {
        return;
    }
    let bytes = mapped_checkpoint_bytes(6);
    // Every header-walk boundary plus a sample of interior cuts: open
    // must fail typed, never panic and never hand out a short column.
    let mut cuts: Vec<usize> = mapped_blocks(&bytes)
        .iter()
        .flat_map(|&(_, h, p, len)| [h, h + 1, p, p + 1, p + len - 1])
        .collect();
    cuts.extend([0, 1, 8, 12, 19]);
    cuts.retain(|&c| c < bytes.len());
    for cut in cuts {
        let (dir, path) = mapped_file_with("trunc", &bytes[..cut]);
        let err = MappedStore::open(&path).expect_err("truncated map must not open");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
                    | PersistError::CrcMismatch { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::Io { .. }
            ),
            "truncation to {cut} gave unexpected error {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn mapped_store_surfaces_payload_damage_on_first_touch() {
    if !zero_copy_available() {
        return;
    }
    let bytes = mapped_checkpoint_bytes(8);
    let blocks = mapped_blocks(&bytes);

    // Damage the partition members payload (id 5): open succeeds (lazy
    // payload validation), the coloring query that touches it fails.
    let (_, header_at, payload_at, len) = *blocks.iter().find(|b| b.0 == 5).unwrap();
    assert!(len > 0);
    let mut m = bytes.clone();
    m[payload_at + len / 2] ^= 0x04;
    let (dir, path) = mapped_file_with("flip-members", &m);
    let store = MappedStore::open(&path).expect("payload damage must not fail open");
    assert!(matches!(
        store.coloring(),
        Err(PersistError::CrcMismatch { .. })
    ));
    drop(store);
    let _ = fs::remove_dir_all(&dir);

    // Damage the graph targets payload (id 2): queries that never touch
    // the CSR still answer; full assembly fails on first touch.
    let (_, _, tpayload_at, tlen) = *blocks.iter().find(|b| b.0 == 2).unwrap();
    let mut m = bytes.clone();
    m[tpayload_at + tlen / 2] ^= 0x80;
    let (dir, path) = mapped_file_with("flip-targets", &m);
    let store = MappedStore::open(&path).expect("payload damage must not fail open");
    store
        .coloring()
        .expect("undamaged columns must still serve");
    assert!(matches!(
        store.checkpoint_data(),
        Err(PersistError::CrcMismatch { .. })
    ));
    drop(store);
    let _ = fs::remove_dir_all(&dir);

    // Damage a header byte instead: caught eagerly at open.
    let mut m = bytes;
    m[header_at + 4] ^= 0x01; // count field of the members block
    let (dir, path) = mapped_file_with("flip-header", &m);
    assert!(matches!(
        MappedStore::open(&path),
        Err(PersistError::CrcMismatch { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

/// Grow one padding block by `extra` zero bytes (fixing its header and
/// CRCs) so every later payload shifts by `extra`.
fn grow_pad(bytes: &[u8], extra: usize) -> Vec<u8> {
    let blocks = mapped_blocks(bytes);
    let &(_, header_at, payload_at, len) = blocks
        .iter()
        .find(|b| b.0 == 0xFFFF)
        .expect("mapped file must contain a padding block");
    let mut out = Vec::with_capacity(bytes.len() + extra);
    out.extend_from_slice(&bytes[..payload_at + len]);
    out.extend(std::iter::repeat_n(0u8, extra));
    out.extend_from_slice(&bytes[payload_at + len..]);
    let new_len = (len + extra) as u64;
    out[header_at + 4..header_at + 12].copy_from_slice(&new_len.to_le_bytes());
    out[header_at + 12..header_at + 20].copy_from_slice(&new_len.to_le_bytes());
    fix_mapped_block_crcs(&mut out, header_at);
    out
}

#[test]
fn mapped_misaligned_payload_is_rejected() {
    let bytes = mapped_checkpoint_bytes(9);
    // Growing a pad by one byte shifts the next mappable payload off its
    // 64-byte boundary: both readers must answer Misaligned, proving the
    // alignment contract is checked rather than assumed.
    let skewed = grow_pad(&bytes, 1);
    assert!(matches!(
        decode_checkpoint(&skewed),
        Err(PersistError::Misaligned { .. })
    ));
    if zero_copy_available() {
        let (dir, path) = mapped_file_with("misaligned", &skewed);
        assert!(matches!(
            MappedStore::open(&path),
            Err(PersistError::Misaligned { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
    // Growing by a full alignment quantum keeps every payload aligned:
    // the file stays readable and decodes to the identical state.
    let padded = grow_pad(&bytes, 64);
    let data = decode_checkpoint(&padded).expect("aligned growth must stay readable");
    assert_eq!(encode_checkpoint_with(&data, Layout::MappedRaw).0, bytes);
}

#[test]
fn mapped_nonzero_padding_is_rejected() {
    let bytes = mapped_checkpoint_bytes(10);
    let blocks = mapped_blocks(&bytes);
    let &(_, header_at, payload_at, len) = blocks
        .iter()
        .find(|b| b.0 == 0xFFFF && b.3 > 0)
        .expect("mapped file must contain a non-empty padding block");
    let mut m = bytes.clone();
    m[payload_at + len - 1] = 1;
    fix_mapped_block_crcs(&mut m, header_at); // CRC-valid, semantically bad
    assert!(matches!(
        decode_checkpoint(&m),
        Err(PersistError::Corrupt { .. })
    ));
    if zero_copy_available() {
        let (dir, path) = mapped_file_with("nonzero-pad", &m);
        assert!(matches!(
            MappedStore::open(&path),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn mapped_store_rejects_packed_files_and_vice_versa() {
    if !zero_copy_available() {
        return;
    }
    // A packed file through MappedStore: typed Mismatch, not a
    // misparse.
    let packed = checkpoint_bytes(12);
    let (dir, path) = mapped_file_with("packed-as-mapped", &packed);
    assert!(matches!(
        MappedStore::open(&path),
        Err(PersistError::Mismatch { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
    // The owned decoder accepts both layouts and agrees on the state.
    let mapped = mapped_checkpoint_bytes(12);
    let a = decode_checkpoint(&packed).unwrap();
    let b = decode_checkpoint(&mapped).unwrap();
    assert_eq!(encode_checkpoint(&a).0, encode_checkpoint(&b).0);
}

// ---------------------------------------------------------------------
// Crafted counts and lengths with valid CRCs: the decoders must bound
// what they read from the file before allocating or adding offsets.
// ---------------------------------------------------------------------

/// Overwrite the file header's block count and re-seal the header CRC.
fn with_block_count(bytes: &[u8], count: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[12..16].copy_from_slice(&count.to_le_bytes());
    let crc = qsc_persist::codec::crc32(&b[0..16]);
    b[16..20].copy_from_slice(&crc.to_le_bytes());
    b
}

/// Overwrite the first block's payload length (header at byte 20);
/// mapped headers get their header CRC re-sealed so only the length is
/// wrong.
fn with_first_payload_len(bytes: &[u8], len: u64, mapped: bool) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[32..40].copy_from_slice(&len.to_le_bytes());
    if mapped {
        let crc = qsc_persist::codec::crc32(&b[20..44]);
        b[44..48].copy_from_slice(&crc.to_le_bytes());
    }
    b
}

#[test]
fn crafted_block_count_fails_typed_in_both_layouts() {
    for bytes in [checkpoint_bytes(8), mapped_checkpoint_bytes(8)] {
        // A bare 20-byte header and a whole file, each claiming u32::MAX
        // blocks: no allocation sized by the count, a typed error.
        for len in [20, bytes.len()] {
            let crafted = with_block_count(&bytes[..len], u32::MAX);
            assert!(matches!(
                decode_checkpoint(&crafted),
                Err(PersistError::Truncated { .. })
            ));
        }
    }
    if zero_copy_available() {
        let bytes = mapped_checkpoint_bytes(8);
        for len in [20, bytes.len()] {
            let crafted = with_block_count(&bytes[..len], u32::MAX);
            let (dir, path) = mapped_file_with("block-count", &crafted);
            assert!(matches!(
                MappedStore::open(&path),
                Err(PersistError::Truncated { .. })
            ));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn crafted_payload_length_fails_typed_in_both_layouts() {
    // A length near u64::MAX would overflow `offset + len`.
    for len in [u64::MAX, u64::MAX - 8] {
        let packed = with_first_payload_len(&checkpoint_bytes(9), len, false);
        assert!(matches!(
            decode_checkpoint(&packed),
            Err(PersistError::Truncated { .. })
        ));
        let mapped = with_first_payload_len(&mapped_checkpoint_bytes(9), len, true);
        assert!(matches!(
            decode_checkpoint(&mapped),
            Err(PersistError::Truncated { .. })
        ));
        if zero_copy_available() {
            let (dir, path) = mapped_file_with("payload-len", &mapped);
            assert!(matches!(
                MappedStore::open(&path),
                Err(PersistError::Truncated { .. })
            ));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Replace block `id`'s payload with an RLE bomb behind valid CRCs: an
/// `ENC_SHUFFLE` column claiming `2^34` elements whose eight byte planes
/// are each one zero run of that length (56 bytes). Zero bytes pad the
/// payload so its length changes by a multiple of 64, keeping every later
/// mapped payload on its alignment boundary.
fn with_f64_bomb(bytes: &[u8], id: u16, mapped: bool) -> Vec<u8> {
    const FILE_HEADER: usize = 20;
    const COUNT: u64 = 1 << 34;
    let header = if mapped { 28 } else { 24 };
    let mut bomb = Vec::new();
    for _ in 0..8 {
        qsc_persist::codec::put_varint(&mut bomb, (COUNT << 1) | 1);
        bomb.push(0);
    }
    let mut out = bytes[..FILE_HEADER].to_vec();
    let mut at = FILE_HEADER;
    let mut found = false;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
        let block_id = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
        let (hdr, payload) = (
            &bytes[at..at + header],
            &bytes[at + header..at + header + len],
        );
        if block_id == id {
            found = true;
            let mut payload = bomb.clone();
            payload.resize(bomb.len() + (len + 64 - bomb.len() % 64) % 64, 0);
            let mut hdr = hdr.to_vec();
            hdr[2] = qsc_persist::codec::ENC_SHUFFLE;
            hdr[4..12].copy_from_slice(&COUNT.to_le_bytes());
            hdr[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            let pcrc = qsc_persist::codec::crc32(&payload);
            hdr[20..24].copy_from_slice(&pcrc.to_le_bytes());
            if mapped {
                let hcrc = qsc_persist::codec::crc32(&hdr[..24]);
                hdr[24..28].copy_from_slice(&hcrc.to_le_bytes());
            }
            out.extend_from_slice(&hdr);
            out.extend_from_slice(&payload);
        } else {
            out.extend_from_slice(hdr);
            out.extend_from_slice(payload);
        }
        at += header + len;
    }
    assert!(found, "block {id} not in the checkpoint");
    out
}

/// A checked-in legacy checkpoint: version 1 (packed) or 2 (mapped),
/// the versions that still carry the retired pair-summary blocks 16–25
/// and mode-flag bytes.
fn legacy_fixture(mapped: bool) -> Vec<u8> {
    let name = if mapped {
        "golden_checkpoint_v2_raw.ckpt"
    } else {
        "golden_checkpoint_v1.ckpt"
    };
    fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name),
    )
    .unwrap()
}

#[test]
fn rle_bomb_in_any_f64_block_fails_typed_before_allocating() {
    // Every f64 block: graph weights, the dense planes, tiered-row
    // weights and the reduced sum in current files, and the retired
    // pair-summary min/max blocks in legacy ones. The count the sibling
    // columns imply is known before the payload is decoded, so a header
    // claiming 2^34 elements (128 GiB of f64) fails typed instead of
    // aborting on the allocation; the retired blocks fail the header-count
    // check and are never decoded at all.
    const F64_BLOCKS: [u16; 6] = [3, 6, 7, 10, 14, 26];
    const LEGACY_F64_BLOCKS: [u16; 4] = [16, 17, 18, 19];
    for (bytes, mapped, ids) in [
        (checkpoint_bytes(10), false, &F64_BLOCKS[..]),
        (mapped_checkpoint_bytes(10), true, &F64_BLOCKS[..]),
        (legacy_fixture(false), false, &LEGACY_F64_BLOCKS[..]),
        (legacy_fixture(true), true, &LEGACY_F64_BLOCKS[..]),
    ] {
        for &id in ids {
            let crafted = with_f64_bomb(&bytes, id, mapped);
            assert!(
                matches!(
                    decode_checkpoint(&crafted),
                    Err(PersistError::Corrupt { .. })
                ),
                "block {id} (mapped = {mapped})"
            );
            // The mapped reader's owned-decode fallback serves the same
            // non-mappable blocks.
            if mapped && zero_copy_available() {
                let (dir, path) = mapped_file_with("f64-bomb", &crafted);
                match MappedStore::open(&path) {
                    Ok(store) => assert!(
                        matches!(store.checkpoint_data(), Err(PersistError::Corrupt { .. })),
                        "mapped block {id}"
                    ),
                    Err(e) => assert!(matches!(e, PersistError::Corrupt { .. }), "{e:?}"),
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Overwrite one of the engine's retired mode-flag bytes in the scalar
/// block of a legacy (v1 or v2) checkpoint and re-seal that block's
/// CRCs. `from_end` counts back from the end of the unpadded scalar blob,
/// whose tail after the summary flag (storage and promote flags, β, the
/// reduced presence scalars, the WAL sequence and — in v2 — the edge
/// count) is fixed-size. The original byte must be `expect`, so a format
/// change fails here instead of silently patching the wrong field.
fn with_engine_flag(bytes: &[u8], v2: bool, from_end: usize, expect: u8, value: u8) -> Vec<u8> {
    const FIRST_BLOCK: usize = 20;
    let header = if v2 { 28 } else { 24 };
    let mut b = bytes.to_vec();
    assert_eq!(u16::from_le_bytes([b[20], b[21]]), 0, "scalar block first");
    let count = u64::from_le_bytes(b[24..32].try_into().unwrap()) as usize;
    let at = FIRST_BLOCK + header + count - from_end - if v2 { 8 } else { 0 };
    assert_eq!(b[at], expect, "engine flag byte at {at}");
    b[at] = value;
    let len = u64::from_le_bytes(b[32..40].try_into().unwrap()) as usize;
    let payload = FIRST_BLOCK + header;
    let pcrc = qsc_persist::codec::crc32(&b[payload..payload + len]);
    b[40..44].copy_from_slice(&pcrc.to_le_bytes());
    if v2 {
        let hcrc = qsc_persist::codec::crc32(&b[20..44]);
        b[44..48].copy_from_slice(&hcrc.to_le_bytes());
    }
    b
}

#[test]
fn retired_engine_mode_flags_fail_typed() {
    // Engines always track pair summaries, and their rows promote exactly
    // when storage is sparse. Versions 1 and 2 still carry both flags; a
    // legacy checkpoint claiming otherwise behind valid CRCs must fail
    // with its own context instead of restoring an engine whose first
    // `maintain()` would find no summaries.
    const SUMMARY_FROM_END: usize = 29;
    const STORAGE_FROM_END: usize = 28;
    const PROMOTE_FROM_END: usize = 27;
    for (bytes, v2) in [(legacy_fixture(false), false), (legacy_fixture(true), true)] {
        let decoded = decode_checkpoint(&bytes).unwrap();
        let sparse = u8::from(decoded.run.engine.as_ref().unwrap().sparse_accum);
        let storage = with_engine_flag(&bytes, v2, STORAGE_FROM_END, sparse, sparse);
        assert_eq!(
            storage, bytes,
            "helper re-seals an unchanged block to the same bytes"
        );
        for (from_end, expect, value, context) in [
            (SUMMARY_FROM_END, 1, 0, "engine summary flag is clear"),
            (
                PROMOTE_FROM_END,
                sparse,
                1 - sparse,
                "engine promote flag differs from its storage flag",
            ),
        ] {
            let crafted = with_engine_flag(&bytes, v2, from_end, expect, value);
            match decode_checkpoint(&crafted) {
                Err(PersistError::Corrupt { context: got }) => {
                    assert_eq!(got, context, "v2 = {v2}")
                }
                other => panic!("v2 = {v2}: expected {context:?}, got {other:?}"),
            }
            if v2 && zero_copy_available() {
                let (dir, path) = mapped_file_with("engine-flags", &crafted);
                match MappedStore::open(&path) {
                    Err(PersistError::Corrupt { context: got }) => assert_eq!(got, context),
                    other => panic!("mapped: expected {context:?}, got {:?}", other.err()),
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Append one CRC-sealed block with `id` (an 8-byte payload) to a
/// checkpoint of either layout and bump the header's block count.
fn with_extra_block(bytes: &[u8], id: u16) -> Vec<u8> {
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload = [0u8; 8];
    let mut b = bytes.to_vec();
    let start = b.len();
    b.extend_from_slice(&id.to_le_bytes());
    b.extend_from_slice(&[qsc_persist::codec::ENC_RAW, 0]);
    b.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    b.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    b.extend_from_slice(&qsc_persist::codec::crc32(&payload).to_le_bytes());
    if version.is_multiple_of(2) {
        let hcrc = qsc_persist::codec::crc32(&b[start..start + 24]);
        b.extend_from_slice(&hcrc.to_le_bytes());
    }
    b.extend_from_slice(&payload);
    let count = u32::from_le_bytes(b[12..16].try_into().unwrap()) + 1;
    with_block_count(&b, count)
}

#[test]
fn unknown_block_ids_fail_typed() {
    // Block ids are fixed per version: a CRC-valid block whose id the
    // file's version does not define is corruption, in both readers. The
    // retired summary ids 16–25 are known only to versions 1 and 2, and
    // the padding id only to the mapped layouts (2 and 4).
    let cases: [(&str, Vec<u8>, &[u16]); 4] = [
        ("v1", legacy_fixture(false), &[29, 40, 0xFFFF]),
        ("v2", legacy_fixture(true), &[29, 40]),
        ("v3", checkpoint_bytes(13), &[16, 25, 29, 40, 0xFFFF]),
        ("v4", mapped_checkpoint_bytes(13), &[16, 25, 29, 40]),
    ];
    for (version, bytes, ids) in cases {
        assert!(decode_checkpoint(&bytes).is_ok(), "{version}");
        for &id in ids {
            let crafted = with_extra_block(&bytes, id);
            assert!(
                matches!(
                    decode_checkpoint(&crafted),
                    Err(PersistError::Corrupt { .. })
                ),
                "{version}: block id {id}"
            );
            if zero_copy_available() {
                let (dir, path) = mapped_file_with("unknown-id", &crafted);
                assert!(
                    matches!(MappedStore::open(&path), Err(PersistError::Corrupt { .. })),
                    "{version}: mapped block id {id}"
                );
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}
