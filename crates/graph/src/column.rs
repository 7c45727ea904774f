//! Borrowed-or-owned column storage for CSR arrays.
//!
//! [`ColumnBuf<T>`] is the storage behind every [`crate::Graph`] column and
//! the engine's persisted accumulator planes: either an owned `Vec<T>`
//! behind an `Arc`, or a shared reference-counted view into memory owned
//! by someone else — in practice a checkpoint file mapped by
//! `qsc_core::mmap::MappedFile` and sliced by `qsc-persist`. Both variants
//! are `Arc`-shared, so cloning a column (and hence a `Graph`) is O(1) and
//! never copies elements; two graphs can hold the same column. The mapped
//! slice's lifetime is carried by the `Arc` inside the trait object, so a
//! `Graph` built over mapped columns is `'static` and freely clonable
//! while the file stays mapped exactly as long as any column references
//! it.
//!
//! This crate sits *below* `qsc-core` in the dependency order, so it
//! cannot name the concrete mapped type. Instead the provider implements
//! [`SharedColumn`] — an object-safe slice-plus-advice trait — and hands
//! the column in as `Arc<dyn SharedColumn<T>>`. Everything downstream
//! (the engine's kernels, the persist encoder) sees only `&[T]` via
//! `Deref`, so owned and mapped stacks run byte-identical code paths.
//!
//! Mutation never happens through a `ColumnBuf`: `Graph` is immutable,
//! builders and flattening compactions construct fresh owned vectors, and
//! a patching compaction keeps the previous graph's columns as they are,
//! so sharing one column between clones is always safe.

use std::ops::Deref;
use std::sync::Arc;

/// Paging advice for a shared (typically memory-mapped) column, forwarded
/// to `madvise` by providers that map files. Owned columns ignore advice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnAdvice {
    /// Reset to the default paging behavior.
    Normal,
    /// The column is about to be scanned front to back: read ahead
    /// aggressively and drop pages behind the scan.
    Sequential,
    /// The range will be needed soon: start faulting it in now.
    WillNeed,
}

/// An immutable shared column: a typed slice whose backing memory is owned
/// elsewhere (a mapped checkpoint file), plus optional paging advice.
///
/// Implementations must return the *same* slice for the lifetime of the
/// object — `ColumnBuf` exposes it through `Deref` and equality /
/// encoding assume a stable view.
pub trait SharedColumn<T>: Send + Sync {
    /// The column contents.
    fn as_slice(&self) -> &[T];

    /// Advise the OS about the upcoming access pattern for the whole
    /// column. Best-effort; the default does nothing.
    fn advise(&self, advice: ColumnAdvice) {
        let _ = advice;
    }

    /// Advise for `lo..hi` (element indices) only. Best-effort; the
    /// default does nothing.
    fn advise_range(&self, advice: ColumnAdvice, lo: usize, hi: usize) {
        let _ = (advice, lo, hi);
    }
}

/// A column that is either owned (an `Arc`-shared `Vec<T>`) or a shared
/// view into memory owned elsewhere (see module docs). Dereferences to
/// `&[T]` either way; `clone` is O(1) for both.
pub enum ColumnBuf<T: 'static> {
    /// Owned storage — the default for every built graph. Clones share
    /// the vector.
    Owned(Arc<Vec<T>>),
    /// Shared storage; the `Arc` keeps the backing (e.g. a mapped file)
    /// alive for as long as this column exists.
    Shared(Arc<dyn SharedColumn<T>>),
}

impl<T> ColumnBuf<T> {
    /// The column as a slice (same as `Deref`, usable in const-generic or
    /// method-chain positions where auto-deref does not fire).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            ColumnBuf::Owned(v) => v,
            ColumnBuf::Shared(s) => s.as_slice(),
        }
    }

    /// Whether this column borrows shared (mapped) memory.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self, ColumnBuf::Shared(_))
    }

    /// Forward paging advice to the provider (no-op for owned columns).
    #[inline]
    pub fn advise(&self, advice: ColumnAdvice) {
        if let ColumnBuf::Shared(s) = self {
            s.advise(advice);
        }
    }

    /// Forward paging advice for the element range `lo..hi` (no-op for
    /// owned columns). Out-of-range bounds are clamped by the provider.
    #[inline]
    pub fn advise_range(&self, advice: ColumnAdvice, lo: usize, hi: usize) {
        if let ColumnBuf::Shared(s) = self {
            s.advise_range(advice, lo, hi);
        }
    }
}

impl<T: Clone> ColumnBuf<T> {
    /// The column contents as a fresh owned vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T> Deref for ColumnBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for ColumnBuf<T> {
    #[inline]
    fn from(v: Vec<T>) -> Self {
        ColumnBuf::Owned(Arc::new(v))
    }
}

impl<T> From<Arc<dyn SharedColumn<T>>> for ColumnBuf<T> {
    #[inline]
    fn from(s: Arc<dyn SharedColumn<T>>) -> Self {
        ColumnBuf::Shared(s)
    }
}

impl<T> Default for ColumnBuf<T> {
    fn default() -> Self {
        ColumnBuf::Owned(Arc::default())
    }
}

impl<T> Clone for ColumnBuf<T> {
    fn clone(&self) -> Self {
        match self {
            ColumnBuf::Owned(v) => ColumnBuf::Owned(Arc::clone(v)),
            ColumnBuf::Shared(s) => ColumnBuf::Shared(Arc::clone(s)),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ColumnBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_shared() { "Shared" } else { "Owned" };
        f.debug_tuple(tag).field(&self.as_slice()).finish()
    }
}

impl<T: PartialEq> PartialEq for ColumnBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for ColumnBuf<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<[T]> for ColumnBuf<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct StaticCol(&'static [u64]);
    impl SharedColumn<u64> for StaticCol {
        fn as_slice(&self) -> &[u64] {
            self.0
        }
    }

    #[test]
    fn owned_roundtrip() {
        let c: ColumnBuf<u64> = vec![1, 2, 3].into();
        assert_eq!(&c[..], &[1, 2, 3]);
        assert!(!c.is_shared());
        c.advise(ColumnAdvice::Sequential); // no-op, must not panic
    }

    #[test]
    fn clones_share_storage() {
        static DATA: [u64; 4] = [9, 8, 7, 6];
        let shared: Arc<dyn SharedColumn<u64>> = Arc::new(StaticCol(&DATA));
        let c: ColumnBuf<u64> = shared.into();
        assert!(c.is_shared());
        assert_eq!(&c[..], &[9, 8, 7, 6]);
        let c2 = c.clone();
        assert_eq!(c, c2);
        assert!(c2.is_shared());
        assert_eq!(c.as_ptr(), c2.as_ptr());
        let owned: ColumnBuf<u64> = vec![1, 2].into();
        assert_eq!(owned.clone().as_ptr(), owned.as_ptr());
    }

    #[test]
    fn equality_across_variants() {
        static DATA: [u64; 2] = [1, 2];
        let shared: Arc<dyn SharedColumn<u64>> = Arc::new(StaticCol(&DATA));
        let a: ColumnBuf<u64> = shared.into();
        let b: ColumnBuf<u64> = vec![1u64, 2].into();
        assert_eq!(a, b);
        assert_eq!(a, vec![1u64, 2]);
    }
}
