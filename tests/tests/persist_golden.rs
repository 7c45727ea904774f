//! Format-compatibility canary: tiny checkpoints checked into the repo
//! must keep decoding, and the current-version ones must re-encode to the
//! exact same bytes.
//!
//! The fixtures are built from a fully deterministic stack (hand-coded
//! graph, single thread, fixed config), so any byte difference means the
//! on-disk format itself changed. That is only allowed together with a
//! version bump, a reader for the old versions and new fixtures — see
//! the versioning policy in the `qsc_persist` crate docs. The writer
//! emits versions 3 (packed) and 4 (mapped); the version 1 and 2
//! fixtures are decode-only: they predate the summary-free format, carry
//! the retired pair-summary blocks 16–25, and must decode to the same
//! state the version 3 and 4 fixtures hold, re-encoding to exactly their
//! bytes. Regenerate the current fixtures with
//! `QSC_REGEN_GOLDEN=1 cargo test -p qsc-tests --test persist_golden`;
//! the legacy fixtures are never regenerated.

use std::fs;
use std::path::PathBuf;

use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun};
use qsc_graph::GraphBuilder;
use qsc_persist::codec::crc32;
use qsc_persist::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_with, CheckpointData, Layout,
    CHECKPOINT_VERSION, CHECKPOINT_VERSION_MAPPED,
};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

const V1: &str = "golden_checkpoint_v1.ckpt";
const V2: &str = "golden_checkpoint_v2_raw.ckpt";
const V3: &str = "golden_checkpoint_v3.ckpt";
const V4: &str = "golden_checkpoint_v4_raw.ckpt";

fn read_fixture(name: &str) -> Vec<u8> {
    fs::read(fixture(name)).unwrap_or_else(|_| {
        panic!(
            "fixture {name} missing — the current ones regenerate with \
             QSC_REGEN_GOLDEN=1 cargo test -p qsc-tests --test persist_golden"
        )
    })
}

/// Deterministic miniature stack: two weighted cliques joined by a
/// bridge, maintained at a single thread.
fn golden_data() -> CheckpointData {
    let mut b = GraphBuilder::new_undirected(10);
    for c in [0u32, 5] {
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(c + i, c + j, 1.5);
            }
        }
    }
    b.add_edge(4, 5, 0.5);
    b.add_edge(0, 9, 0.5);
    let g = b.build();
    let config = RothkoConfig {
        max_colors: 6,
        target_error: 1.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config.clone()).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let snap = run.snapshot();
    drop(run);
    CheckpointData {
        graph: g,
        config,
        run: snap,
        reduced: Some(reduced.snapshot()),
        wal_seq: 3,
    }
}

/// Encode the golden stack in `layout`, optionally rewrite fixture
/// `name`, and assert the fixture holds exactly those bytes.
fn assert_fixture_stable(name: &str, layout: Layout) -> Vec<u8> {
    let (bytes, _) = encode_checkpoint_with(&golden_data(), layout);
    if std::env::var_os("QSC_REGEN_GOLDEN").is_some() {
        fs::write(fixture(name), &bytes).unwrap();
    }
    let golden = read_fixture(name);
    assert_eq!(
        bytes, golden,
        "{layout:?} encoding diverged from fixture {name}: the on-disk \
         format changed. If intentional, bump the version, keep a reader \
         for the old ones, and add new fixtures."
    );
    golden
}

#[test]
fn golden_checkpoint_stays_byte_stable() {
    assert_eq!(CHECKPOINT_VERSION, 3, "version bump requires a new fixture");
    let golden = assert_fixture_stable(V3, Layout::Packed);
    // The checked-in bytes stay readable and round-trip losslessly.
    let decoded = decode_checkpoint(&golden).expect("fixture no longer decodes");
    assert_eq!(encode_checkpoint(&decoded).0, golden);
    assert_eq!(decoded.wal_seq, 3);
    assert_eq!(decoded.graph.num_nodes(), 10);
    let (_, stats) = encode_checkpoint(&decoded);
    assert!(stats.compression_ratio() > 1.0, "fixture should compress");
}

#[test]
fn golden_mapped_checkpoint_stays_byte_stable() {
    assert_eq!(
        CHECKPOINT_VERSION_MAPPED, 4,
        "version bump requires a new fixture"
    );
    let golden = assert_fixture_stable(V4, Layout::MappedRaw);
    // The mapped bytes decode through the owned path and re-encode
    // byte-stably in both layouts; the packed rendering of the same state
    // must match the packed fixture exactly (layouts differ only in
    // bytes, never in meaning).
    let decoded = decode_checkpoint(&golden).expect("mapped fixture no longer decodes");
    assert_eq!(
        encode_checkpoint_with(&decoded, Layout::MappedRaw).0,
        golden
    );
    assert_eq!(
        encode_checkpoint(&decoded).0,
        read_fixture(V3),
        "mapped fixture decodes to a different state than the packed one"
    );
    assert_eq!(decoded.wal_seq, 3);
    assert_eq!(decoded.graph.num_nodes(), 10);
}

#[test]
fn legacy_fixtures_decode_and_reencode_to_current_fixtures() {
    for (legacy, current, layout) in [(V1, V3, Layout::Packed), (V2, V4, Layout::MappedRaw)] {
        let old = read_fixture(legacy);
        let decoded = decode_checkpoint(&old).unwrap_or_else(|e| panic!("{legacy}: {e}"));
        assert_eq!(
            encode_checkpoint_with(&decoded, layout).0,
            read_fixture(current),
            "{legacy} must re-encode to {current}"
        );
        assert!(
            encode_checkpoint_with(&decoded, layout).0.len() < old.len(),
            "{legacy}: dropping the summary blocks shrinks the file"
        );
    }
}

/// One checkpoint block: (id, enc, count, payload).
type Block = (u16, u8, u64, Vec<u8>);

/// The format version and the non-padding blocks of a checkpoint file.
fn blocks_of(bytes: &[u8]) -> (u32, Vec<Block>) {
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let header = if version.is_multiple_of(2) { 28 } else { 24 };
    let mut at = 20;
    let mut blocks = Vec::new();
    while at < bytes.len() {
        let id = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
        let count = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
        let payload = bytes[at + header..at + header + len].to_vec();
        if id != 0xFFFF {
            blocks.push((id, bytes[at + 2], count, payload));
        }
        at += header + len;
    }
    (version, blocks)
}

/// Serialize blocks into a checkpoint file of `version`, sealing every
/// CRC; the mapped layouts (even versions) get padding blocks so the
/// mappable payloads (ids 1–7 and 26) start on 64-byte boundaries.
fn file_of(version: u32, blocks: &[Block]) -> Vec<u8> {
    let mapped = version.is_multiple_of(2);
    let mut body: Vec<u8> = Vec::new();
    let mut count = 0u32;
    let mut emit = |body: &mut Vec<u8>, id: u16, enc: u8, n: u64, payload: &[u8]| {
        let start = body.len();
        body.extend_from_slice(&id.to_le_bytes());
        body.extend_from_slice(&[enc, 0]);
        body.extend_from_slice(&n.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&crc32(payload).to_le_bytes());
        if mapped {
            let hcrc = crc32(&body[start..start + 24]);
            body.extend_from_slice(&hcrc.to_le_bytes());
        }
        body.extend_from_slice(payload);
        count += 1;
    };
    for (id, enc, n, payload) in blocks {
        if mapped && matches!(id, 1..=7 | 26) {
            let payload_at = 20 + body.len() + 28;
            if !payload_at.is_multiple_of(64) {
                let pad = (64 - (payload_at + 28) % 64) % 64;
                emit(&mut body, 0xFFFF, 0, pad as u64, &vec![0; pad]);
            }
        }
        emit(&mut body, *id, *enc, *n, payload);
    }
    let mut file = b"QSC_CKPT".to_vec();
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&count.to_le_bytes());
    let hcrc = crc32(&file);
    file.extend_from_slice(&hcrc.to_le_bytes());
    file.extend_from_slice(&body);
    file
}

/// The restored run's checkpoint bytes followed by every engine summary
/// column, attainers included.
fn restored_state(data: CheckpointData) -> Vec<u8> {
    let run = RothkoRun::from_snapshot(data.graph.clone(), data.config.clone(), &data.run);
    let engine = run.engine().expect("golden run keeps an engine");
    assert_eq!(engine.verify_against(run.graph(), run.partition()), Ok(()));
    let mut bytes = encode_checkpoint(&CheckpointData {
        graph: run.graph().clone(),
        config: run.config().clone(),
        run: run.snapshot(),
        reduced: data.reduced,
        wal_seq: data.wal_seq,
    })
    .0;
    for outgoing in [true, false] {
        let (min, max, min_arg, max_arg, nz) = engine.summary_columns(outgoing);
        for x in min.iter().chain(&max) {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for c in min_arg.iter().chain(&max_arg).chain(&nz) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn legacy_summaries_are_never_trusted() {
    // Blocks 16–19 (pair-summary min/max per side) and 20–25 (attainer
    // ids and nonzero counts) of the legacy fixtures are rewritten, with
    // their header counts kept and every CRC resealed, to values no
    // accumulator row supports: every min above every max, attainers out
    // of range, nonzero counts past the node count. A reader that trusted
    // them would restore an engine that contradicts its own rows.
    for legacy in [V1, V2] {
        let honest = read_fixture(legacy);
        let (version, mut blocks) = blocks_of(&honest);
        assert_eq!(file_of(version, &blocks), honest, "{legacy}: rewriter");
        for (id, enc, count, payload) in &mut blocks {
            let n = *count as usize;
            *payload = match *id {
                16 | 18 => 1.0e6f64.to_le_bytes().repeat(n),
                17 | 19 => (-1.0e6f64).to_le_bytes().repeat(n),
                20..=23 => 1_000u32.to_le_bytes().repeat(n),
                24 | 25 => 777u32.to_le_bytes().repeat(n),
                _ => continue,
            };
            *enc = 0; // raw
        }
        let forged = file_of(version, &blocks);
        assert_ne!(forged, honest);
        let honest_state = restored_state(decode_checkpoint(&honest).unwrap());
        let forged_state = restored_state(
            decode_checkpoint(&forged).unwrap_or_else(|e| panic!("{legacy} forged: {e}")),
        );
        assert_eq!(
            forged_state, honest_state,
            "{legacy}: restored state depends on the retired summary blocks"
        );
    }
}
