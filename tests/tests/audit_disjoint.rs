//! Tests for the dynamic `SyncSliceMut` disjointness checker
//! (`qsc-core --features audit`): disjoint sharding passes, claims are
//! compared only within their own fork-join region (so cross-region and
//! cross-pool reuse stays legal), and deliberately overlapping
//! cross-thread claims abort the process.
//!
//! The whole file is compiled only with the `audit` feature; the negative
//! tests re-exec the test binary (the checker aborts, which cannot be
//! caught in-process) and assert on the child's exit status and stderr.
#![cfg(feature = "audit")]

use qsc_core::parallel::{chunk_range, SyncSliceMut, ThreadPool};
use std::process::Command;

const CHILD_ENV: &str = "QSC_AUDIT_OVERLAP_CHILD";

/// Re-run exactly one test of this binary in a child process with
/// `CHILD_ENV` set, returning `(success, stderr)`.
fn run_child(test_name: &str) -> (bool, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .arg("--exact")
        .arg(test_name)
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn child test process");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn is_child() -> bool {
    std::env::var_os(CHILD_ENV).is_some()
}

#[test]
fn disjoint_shards_pass_with_checker_enabled() {
    if is_child() {
        return;
    }
    let pool = ThreadPool::new(4);
    let data: Vec<u64> = (0..997).collect();
    let mut out = vec![0u64; 4];
    let shards = SyncSliceMut::new(&mut out);
    pool.run(|slot| {
        let (lo, hi) = chunk_range(data.len(), 4, slot);
        // SAFETY: each slot writes only its own index.
        unsafe { *shards.get_mut(slot) = data[lo..hi].iter().sum() };
    });
    assert_eq!(out.iter().sum::<u64>(), (0..997u64).sum());
}

#[test]
fn same_thread_reclaims_are_exempt() {
    if is_child() {
        return;
    }
    // Sequential re-borrows from one thread claim the same index twice;
    // the checker only polices *cross-thread* overlap.
    let pool = ThreadPool::new(1);
    let mut data = vec![0u64; 4];
    let shards = SyncSliceMut::new(&mut data);
    pool.run(|_| {
        // SAFETY: single-threaded region; each reference is dropped
        // before the next claim.
        unsafe { *shards.get_mut(1) += 1 };
        unsafe { *shards.get_mut(1) += 1 };
        unsafe { shards.slice_mut(0, 4)[1] += 1 };
    });
    assert_eq!(data[1], 3);
}

#[test]
fn epoch_retirement_allows_cross_region_reuse() {
    if is_child() {
        return;
    }
    // Region r has slot i claim chunk (i + r) % slots: across regions the
    // same range is claimed by different threads, which must be legal
    // because ThreadPool::run retires the previous region's claims.
    let pool = ThreadPool::new(4);
    let mut data = vec![0u64; 64];
    let shards = SyncSliceMut::new(&mut data);
    for r in 0..8 {
        pool.run(|slot| {
            let (lo, hi) = chunk_range(64, 4, (slot + r) % 4);
            // SAFETY: the four rotated chunks are pairwise disjoint
            // within each region.
            let chunk = unsafe { shards.slice_mut(lo, hi) };
            for x in chunk {
                *x += 1;
            }
        });
    }
    assert!(data.iter().all(|&x| x == 8));
}

/// Two threads, each with its own pool, allocate a buffer of one size,
/// claim it in halves, free it and go again. The allocator hands either
/// thread's regions the bytes the other just freed; regions of different
/// pools never share references, so none of it is an overlap.
#[test]
fn concurrent_pools_reusing_freed_memory_pass() {
    if is_child() {
        return;
    }
    let worker = || {
        let pool = ThreadPool::new(2);
        for round in 0..1_000u64 {
            let mut data = vec![0u64; 256];
            let shards = SyncSliceMut::new(&mut data);
            pool.run(|slot| {
                let (lo, hi) = chunk_range(256, 2, slot);
                // SAFETY: the two chunks are disjoint.
                for x in unsafe { shards.slice_mut(lo, hi) } {
                    *x = round;
                }
            });
            assert!(data.iter().all(|&x| x == round));
        }
    };
    std::thread::scope(|s| {
        let a = s.spawn(worker);
        let b = s.spawn(worker);
        a.join().expect("first pool thread");
        b.join().expect("second pool thread");
    });
}

/// The interleaving behind a shared epoch's false positive, forced with
/// barriers: pool B opens its region, pool A claims a buffer and finishes
/// its region, then B's still-open region claims the same buffer. The
/// accesses are sequenced, so the checker must let them through.
#[test]
fn a_finished_region_does_not_block_another_pools_region() {
    use std::sync::Barrier;
    if is_child() {
        return;
    }
    let mut data = vec![0u64; 64];
    let shared = SyncSliceMut::new(&mut data);
    let (opened, done) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        let (shared, opened, done) = (&shared, &opened, &done);
        s.spawn(move || {
            let pool_b = ThreadPool::new(1);
            pool_b.run(|_| {
                opened.wait();
                done.wait();
                // SAFETY: pool A's region has returned; its slice is dead.
                unsafe { shared.slice_mut(0, 64) }.fill(2);
            });
        });
        s.spawn(move || {
            let pool_a = ThreadPool::new(1);
            opened.wait();
            // SAFETY: pool B touches the buffer only after `done`.
            pool_a.run(|_| unsafe { shared.slice_mut(0, 64) }.fill(1));
            done.wait();
        });
    });
    assert!(data.iter().all(|&x| x == 2));
}

#[test]
fn overlapping_get_mut_claims_abort() {
    if is_child() {
        // Deliberate violation: both slots claim element 0.
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 4];
        let shards = SyncSliceMut::new(&mut data);
        pool.run(|slot| {
            // SAFETY: deliberately unsound — this is the negative test
            // the checker exists to catch; it aborts before the second
            // reference materializes.
            unsafe { *shards.get_mut(0) = slot as u64 };
        });
        // Only reached if the checker failed to fire.
        eprintln!("child survived overlapping get_mut claims");
        std::process::exit(0);
    }
    let (ok, stderr) = run_child("overlapping_get_mut_claims_abort");
    assert!(
        !ok,
        "child must die on overlapping claims; stderr: {stderr}"
    );
    assert!(
        stderr.contains("qsc-audit: overlapping claim"),
        "checker diagnostic missing from child stderr: {stderr}"
    );
    assert!(
        !stderr.contains("child survived"),
        "checker let the overlap through: {stderr}"
    );
}

#[test]
fn overlapping_slice_mut_claims_abort() {
    if is_child() {
        // Deliberate violation: ranges [0, 3) and [2, 4) intersect at 2.
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 4];
        let shards = SyncSliceMut::new(&mut data);
        pool.run(|slot| {
            let (lo, hi) = if slot == 0 { (0, 3) } else { (2, 4) };
            // SAFETY: deliberately unsound — negative test for the
            // checker; it aborts before both slices are live.
            unsafe { shards.slice_mut(lo, hi)[0] = 1 };
        });
        eprintln!("child survived overlapping slice_mut claims");
        std::process::exit(0);
    }
    let (ok, stderr) = run_child("overlapping_slice_mut_claims_abort");
    assert!(
        !ok,
        "child must die on overlapping claims; stderr: {stderr}"
    );
    assert!(
        stderr.contains("qsc-audit: overlapping claim"),
        "checker diagnostic missing from child stderr: {stderr}"
    );
    assert!(
        !stderr.contains("child survived"),
        "checker let the overlap through: {stderr}"
    );
}
