//! Dynamic disjointness checker for [`SyncSliceMut`] claims (the runtime
//! half of the `qsc-audit` contract tooling; the static half is the
//! `qsc-audit` crate's lint pass).
//!
//! [`SyncSliceMut`]'s accessors are `unsafe` because their soundness rests
//! on a *value-level* argument — "each touched node appears in exactly one
//! shard" — that neither the borrow checker nor the lint pass can see.
//! With the `audit` feature enabled, this module checks that argument at
//! runtime: every `get_mut` / `slice_mut` call publishes the claimed byte
//! range into a global lock-free interval log, and a claim that overlaps a
//! live claim from a *different* thread aborts the process with both call
//! sites in the message. The existing parallel suites then double as
//! soundness tests: run them with `--features audit` and any sharding bug
//! that produces aliased `&mut`s dies loudly instead of corrupting floats.
//!
//! Scoping: claims live for the duration of a fork-join *region*. Every
//! [`ThreadPool::run`] (and every inline single-shard phase) opens a region
//! with a fresh id, and each of its slots runs with that id set on its
//! thread, so every claim carries the region it was made in. Only claims of
//! the same region are compared: the join barrier guarantees a finished
//! region's references are dead by the time `run` returns, and regions of
//! unrelated pools (say, two tests on libtest's parallel threads) never
//! share references at all, even when the allocator hands one region the
//! bytes another just freed. A claim made outside every region is not
//! checked. Same-thread overlapping claims are deliberately exempt:
//! sequential re-borrows from one thread (claim, drop, claim again) are the
//! common legitimate pattern and are indistinguishable from genuine
//! same-thread aliasing without tracking reference lifetimes.
//!
//! The checker is best-effort by design — publish-then-scan over a
//! fixed-size ring means detection is guaranteed only while a region's
//! claim count stays within [`LOG_LEN`] (engine regions make one claim
//! per worker slot, so the ring is ~64× oversized in practice) — but it
//! never false-positives: entries are seqlock-validated, so a torn read
//! is discarded, not reported.
//!
//! [`SyncSliceMut`]: crate::parallel::SyncSliceMut
//! [`ThreadPool::run`]: crate::parallel::ThreadPool::run

use std::cell::Cell;
use std::io::Write as _;
use std::panic::Location;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// Ring capacity. Detection is exhaustive while at most this many claims
/// are made per region; engine regions make one per worker slot.
const LOG_LEN: usize = 256;

/// One published claim. `meta` packs `(region << 32) | thread_token` and is
/// written last / read first (seqlock): a scanner re-reads `meta` after
/// `lo` / `hi` / `loc` and discards the entry if it changed underneath.
struct Entry {
    meta: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
    loc: AtomicPtr<Location<'static>>,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Entry = Entry {
    meta: AtomicU64::new(0),
    lo: AtomicU64::new(0),
    hi: AtomicU64::new(0),
    loc: AtomicPtr::new(std::ptr::null_mut()),
};

static LOG: [Entry; LOG_LEN] = [EMPTY; LOG_LEN];
/// Next ring slot; monotonically increasing, wrapped mod [`LOG_LEN`].
static CURSOR: AtomicU64 = AtomicU64::new(0);
/// Region-id allocator. Starts at 1: region 0 means "outside every
/// region", so a packed `meta` of 0 always means "slot never written".
/// Ids are 32 bits; a stale entry masquerading as a live region needs 2³²
/// intervening regions *and* a surviving ring slot, which the 256-slot
/// ring recycles after 256 claims.
static NEXT_REGION: AtomicU32 = AtomicU32::new(1);
/// Thread-token allocator; 0 is reserved for "not yet assigned".
static NEXT_TOKEN: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TOKEN: Cell<u32> = const { Cell::new(0) };
    /// The region this thread is running a slot of (0: none).
    static REGION: Cell<u32> = const { Cell::new(0) };
}

fn thread_token() -> u32 {
    TOKEN.with(|t| {
        let mut tok = t.get();
        if tok == 0 {
            tok = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            t.set(tok);
        }
        tok
    })
}

/// The id of a fork-join region, as its claims carry it.
pub(crate) type RegionId = u32;

/// Open a new fork-join region and return its id. Called by
/// [`ThreadPool::run`](crate::parallel::ThreadPool::run) on entry; each
/// slot then runs inside [`in_region`] with the id.
pub(crate) fn begin_region() -> RegionId {
    loop {
        // Skip 0 when the 32-bit id wraps: it means "no region".
        let id = NEXT_REGION.fetch_add(1, Ordering::Relaxed);
        if id != 0 {
            return id;
        }
    }
}

/// Run `f` on this thread as a slot of region `id`: claims it makes are
/// compared with the region's other claims only. The previous region is
/// restored afterwards, also on unwind, so nested regions nest.
pub(crate) fn in_region<R>(id: RegionId, f: impl FnOnce() -> R) -> R {
    struct Restore(RegionId);
    impl Drop for Restore {
        fn drop(&mut self) {
            REGION.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(REGION.with(|r| r.replace(id)));
    f()
}

/// Publish a claim over the byte range `[lo, hi)` and abort if it overlaps
/// a claim of the same region from a different thread.
///
/// Publish-then-scan with `SeqCst` metadata stores gives two genuinely
/// concurrent overlapping claims a total order: whichever publishes second
/// is guaranteed to observe the first during its scan, so a real overlap
/// cannot slip through the check-then-record window.
#[track_caller]
pub(crate) fn claim(lo: u64, hi: u64) {
    if lo >= hi {
        return; // empty ranges cannot alias anything
    }
    let region = REGION.with(Cell::get);
    if region == 0 {
        return; // outside every region: nothing runs beside it
    }
    let here: &'static Location<'static> = Location::caller();
    let tok = thread_token();
    let meta = (u64::from(region) << 32) | u64::from(tok);

    // Publish first (see above).
    let slot = (CURSOR.fetch_add(1, Ordering::Relaxed) as usize) % LOG_LEN;
    let own = &LOG[slot];
    own.meta.store(0, Ordering::SeqCst);
    own.lo.store(lo, Ordering::Relaxed);
    own.hi.store(hi, Ordering::Relaxed);
    own.loc.store(
        here as *const Location<'static> as *mut _,
        Ordering::Relaxed,
    );
    own.meta.store(meta, Ordering::SeqCst);

    for (i, entry) in LOG.iter().enumerate() {
        if i == slot {
            continue;
        }
        let m = entry.meta.load(Ordering::SeqCst);
        if m == 0 || (m >> 32) as u32 != region || (m & 0xffff_ffff) as u32 == tok {
            continue; // empty, another region, or our own thread
        }
        let (other_lo, other_hi) = (
            entry.lo.load(Ordering::Relaxed),
            entry.hi.load(Ordering::Relaxed),
        );
        let other_loc = entry.loc.load(Ordering::Relaxed);
        if entry.meta.load(Ordering::SeqCst) != m {
            continue; // torn read: the slot was recycled mid-scan
        }
        if other_lo < hi && lo < other_hi {
            // SAFETY-critical diagnostic path: two threads hold (or are
            // about to hold) `&mut`s over intersecting bytes. Unwinding
            // could let the aliased references keep running; die instead.
            let other_site = if other_loc.is_null() {
                "<unknown>".to_string()
            } else {
                // SAFETY: non-null `loc` values are only ever stored from
                // `Location::caller()`, which yields `&'static Location`,
                // and the seqlock re-check above proved the slot was not
                // recycled between the loads.
                unsafe { (*other_loc).to_string() }
            };
            // Straight to the stderr handle: `eprintln!` goes through the
            // test harness's output capture, which `abort` never flushes.
            let msg = format!(
                "qsc-audit: overlapping claim: bytes [{lo:#x}, {hi:#x}) claimed at {here} \
                 overlap live claim [{other_lo:#x}, {other_hi:#x}) from another thread \
                 at {other_site}; SyncSliceMut shards must be pairwise disjoint \
                 within a parallel region\n"
            );
            let _ = std::io::stderr().write_all(msg.as_bytes());
            std::process::abort();
        }
    }
}
