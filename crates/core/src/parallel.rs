//! A minimal persistent fork-join thread pool for the parallel refinement
//! engine.
//!
//! The build environment has no crates.io access, so instead of `rayon` this
//! module provides the one primitive the engine needs: [`ThreadPool::run`],
//! which executes a borrowed closure once per worker slot and returns only
//! when every slot has finished (a fork-join *broadcast*). Workers are
//! spawned once and parked between regions, so a region costs two
//! mutex/condvar handshakes instead of thread spawns — the engine enters a
//! region once or twice per split, which per-region spawning would dominate.
//!
//! Determinism contract: the pool provides *scheduling*, not *semantics*.
//! Every parallel region in this workspace shards its data into disjoint
//! ranges and reduces per-shard summaries with exact operations (min / max /
//! sum-of-disjoint-terms / logical or), so results are bit-identical for
//! every thread count, including 1. [`ThreadPool::run`] with one slot simply
//! invokes the closure inline — a single-threaded pool adds zero overhead
//! and zero unsafe.
//!
//! The default slot count comes from the `QSC_THREADS` environment variable
//! (see [`default_threads`]), which is how the CI matrix drives the whole
//! test suite through both the serial and the parallel paths.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default worker-slot count: the `QSC_THREADS` environment variable when
/// set to a positive integer, otherwise 1 (serial). Deliberately *not*
/// `available_parallelism()`: callers opt into parallelism explicitly, so
/// library users embedding the engine in their own thread-per-request
/// servers don't get surprise nested parallelism.
pub fn default_threads() -> usize {
    std::env::var("QSC_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// A fork-join job: type-erased borrowed closure plus the generation it
/// belongs to. The raw pointer is only dereferenced between the publishing
/// [`ThreadPool::run`] call and its completion handshake, during which the
/// closure is guaranteed alive (see the safety comment in `run`).
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// The claim checker's region the job's slots run in.
    region: RegionId,
}

// The claim checker's regions (see `crate::audit`); without the `audit`
// feature a region is nothing and entering one just calls the closure.
#[cfg(feature = "audit")]
use crate::audit::{begin_region, in_region, RegionId};
#[cfg(not(feature = "audit"))]
#[derive(Clone, Copy)]
struct RegionId;
#[cfg(not(feature = "audit"))]
fn begin_region() -> RegionId {
    RegionId
}
#[cfg(not(feature = "audit"))]
fn in_region<R>(_: RegionId, f: impl FnOnce() -> R) -> R {
    f()
}

// SAFETY: the pointee is `Sync` (the closure is shared immutably across
// workers) and `run` keeps it alive for the whole time workers can observe
// the job, so shipping the pointer across threads is sound; `region` is a
// plain id.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotone job generation; workers run at most one job per generation.
    generation: u64,
    job: Option<Job>,
    /// Workers still executing the current generation's job.
    running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new generation (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that all workers finished the current generation.
    done: Condvar,
}

/// Persistent fork-join pool with `slots` worker slots. Slot 0 is the
/// calling thread itself; slots `1..slots` are parked OS threads. See the
/// module docs for the determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    slots: usize,
    /// Guards against overlapping [`Self::run`] calls (the fork-join
    /// protocol serves one broadcast at a time); checked in release builds
    /// too, since a second concurrent caller could otherwise free a
    /// borrowed closure while workers still dereference it.
    busy: AtomicBool,
}

impl ThreadPool {
    /// Create a pool with `slots` total worker slots (clamped to at least
    /// one). `slots - 1` OS threads are spawned and parked immediately.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..slots)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qsc-pool-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            slots,
            busy: AtomicBool::new(false),
        }
    }

    /// Total worker slots (including the calling thread).
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Execute `f(slot)` once for every slot `0..slots()`, concurrently, and
    /// return once all invocations completed. The caller runs slot 0. With a
    /// single slot this is an inline call with no synchronization.
    ///
    /// Panic behavior: a panic on the caller's slot is re-raised *after*
    /// the workers finish (the borrowed closure must outlive every worker
    /// dereference); a panic on a worker thread aborts the process — it
    /// cannot be propagated, and leaving `running` undecremented would
    /// deadlock the caller forever.
    /// Panics if called while another `run` is in flight on the same pool
    /// (the protocol serves one broadcast at a time; overlapping calls
    /// could otherwise free a borrowed closure under a running worker).
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.slots == 1 {
            run_inline(f);
            return;
        }
        // A new fork-join region: SyncSliceMut claims are checked against
        // this region's other claims only (the previous `run` returned
        // through the join barrier, so its references are dead).
        let region = begin_region();
        assert!(
            self.busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "overlapping ThreadPool::run calls on a shared pool"
        );
        let wide: *const (dyn Fn(usize) + Sync) = &f;
        // SAFETY: erase the borrow lifetime to park the pointer in shared
        // state. The pointee `f` outlives every dereference because this
        // function does not return until `running == 0`, and workers only
        // dereference the job before decrementing `running` for its
        // generation.
        #[allow(clippy::missing_transmute_annotations)]
        let job = Job {
            f: unsafe { std::mem::transmute(wide) },
            region,
        };
        {
            let mut state = self.shared.state.lock().unwrap();
            debug_assert_eq!(state.running, 0, "overlapping ThreadPool::run calls");
            state.generation += 1;
            state.job = Some(job);
            state.running = self.slots - 1;
            self.shared.work.notify_all();
        }
        // The caller is slot 0. Defer a caller-side panic until the
        // workers are done with the closure.
        let caller_result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| in_region(region, || f(0))));
        let mut state = self.shared.state.lock().unwrap();
        while state.running > 0 {
            state = self.shared.done.wait(state).unwrap();
        }
        state.job = None;
        drop(state);
        self.busy.store(false, Ordering::Release);
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Run `f(0)` on the calling thread as a fork-join region of its own: what
/// [`ThreadPool::run`] does with one slot, for phases that skip the pool.
pub(crate) fn run_inline(f: impl FnOnce(usize)) {
    in_region(begin_region(), || f(0));
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("slots", &self.slots)
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen {
                    seen = state.generation;
                    break state.job.expect("job published with its generation");
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        // SAFETY: `run` keeps the closure alive until `running` drops to
        // zero, which happens strictly after this dereference.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_region(job.region, || unsafe { (*job.f)(slot) })
        }));
        if result.is_err() {
            // A worker panic cannot be propagated to the caller, and
            // skipping the decrement would deadlock it — fail loudly.
            eprintln!("qsc-pool worker {slot} panicked; aborting");
            std::process::abort();
        }
        let mut state = shared.state.lock().unwrap();
        state.running -= 1;
        if state.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// Shared mutable slice handle for parallel regions whose shards write
/// provably disjoint index sets (distinct accumulator rows, distinct matrix
/// entries, distinct scratch slots).
///
/// This is the engine's replacement for `split_at_mut` in the cases where
/// the disjointness is by *value* (e.g. "each touched node appears in
/// exactly one shard") rather than by contiguous range, which the borrow
/// checker cannot express.
pub struct SyncSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper only hands out `&mut T` through `unsafe` accessors
// whose callers promise disjoint indices; sending/sharing the handle itself
// is no more than sending/sharing `&mut [T]` split into disjoint parts.
unsafe impl<T: Send> Send for SyncSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for SyncSliceMut<'_, T> {}

impl<'a, T> SyncSliceMut<'a, T> {
    /// Wrap an exclusive slice borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        SyncSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to element `index`.
    ///
    /// # Safety
    /// No two concurrently live references returned by this handle (from any
    /// thread) may target the same index.
    #[inline]
    #[track_caller]
    #[allow(clippy::mut_from_ref)]
    // SAFETY: soundness is delegated to the caller's disjointness promise
    // (the contract above); with the `audit` feature that promise is
    // checked at runtime by the claim below.
    pub unsafe fn get_mut(&self, index: usize) -> &mut T {
        debug_assert!(index < self.len);
        #[cfg(feature = "audit")]
        self.record_claim(index, index + 1);
        // SAFETY: `index < self.len` keeps the offset inside the wrapped
        // allocation, and the caller's contract (no concurrently live
        // reference to the same index) rules out aliasing the `&mut`.
        unsafe { &mut *self.ptr.add(index) }
    }

    /// Exclusive access to the subslice `lo..hi`.
    ///
    /// # Safety
    /// Concurrent callers must use pairwise disjoint ranges.
    #[inline]
    #[track_caller]
    #[allow(clippy::mut_from_ref)]
    // SAFETY: soundness is delegated to the caller's disjointness promise
    // (the contract above); with the `audit` feature that promise is
    // checked at runtime by the claim below.
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        #[cfg(feature = "audit")]
        self.record_claim(lo, hi);
        // SAFETY: `lo <= hi <= self.len` keeps the range inside the
        // wrapped allocation, and the caller's contract (pairwise disjoint
        // concurrent ranges) rules out aliasing the returned `&mut [T]`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Publish the claimed element range `[lo, hi)` to the global interval
    /// log as a byte range, aborting on cross-thread overlap. See the
    /// [`crate::audit`] module docs for the exact guarantees.
    #[cfg(feature = "audit")]
    #[track_caller]
    fn record_claim(&self, lo: usize, hi: usize) {
        let base = self.ptr as usize as u64;
        let size = std::mem::size_of::<T>() as u64;
        crate::audit::claim(base + lo as u64 * size, base + hi as u64 * size);
    }
}

/// The half-open range of chunk `index` when `len` items are split into
/// `chunks` near-equal contiguous chunks (earlier chunks take the
/// remainder). Used by every parallel region so shard boundaries are a pure
/// function of `(len, chunks)` — independent of scheduling.
#[inline]
pub fn chunk_range(len: usize, chunks: usize, index: usize) -> (usize, usize) {
    let base = len / chunks;
    let rem = len % chunks;
    let lo = index * base + index.min(rem);
    let hi = lo + base + usize::from(index < rem);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_tile_the_input() {
        for len in [0usize, 1, 5, 16, 97] {
            for chunks in 1usize..=9 {
                let mut next = 0usize;
                for i in 0..chunks {
                    let (lo, hi) = chunk_range(len, chunks, i);
                    assert_eq!(lo, next);
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn single_slot_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.slots(), 1);
        let counter = AtomicUsize::new(0);
        pool.run(|slot| {
            assert_eq!(slot, 0);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let hits = [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ];
            pool.run(|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn sharded_sum_matches_serial() {
        let pool = ThreadPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let mut out = vec![0u64; 3];
        let slices = SyncSliceMut::new(&mut out);
        pool.run(|slot| {
            let (lo, hi) = chunk_range(data.len(), 3, slot);
            // SAFETY: each slot writes only its own index.
            unsafe { *slices.get_mut(slot) = data[lo..hi].iter().sum() };
        });
        assert_eq!(out.iter().sum::<u64>(), (0..1000u64).sum());
    }

    #[test]
    fn pool_survives_many_generations() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
