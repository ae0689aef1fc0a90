//! Offline stand-in for the `rayon` crate (see `stubs/README.md`).
//!
//! Implements the slice/range data-parallel surface this workspace uses
//! — `par_iter()`, `into_par_iter()`, `map`, `for_each`, `collect` — on
//! top of `std::thread::scope`. Work is split into one contiguous chunk
//! per worker, so results come back in input order and `collect` is
//! deterministic regardless of the worker count. There is deliberately
//! no `sum`, `fold` or `reduce`: a parallel float reduction would make
//! the low bits depend on the chunking, so it must not compile.
//!
//! The worker count is re-read from `RAYON_NUM_THREADS` on every
//! parallel call (real rayon fixes it at global-pool creation); set it
//! to `1` to force fully serial execution. With one worker no threads
//! are spawned at all.

#![forbid(unsafe_code)]

use std::ops::Range;

/// The conventional bulk import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of workers parallel calls will use: `RAYON_NUM_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn current_num_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon-stub worker panicked");
        (ra, rb)
    })
}

/// Order-preserving parallel map over owned items: the workhorse behind
/// every adapter in this stub.
fn par_map_vec<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    // One contiguous chunk per worker keeps output order == input order.
    let len = items.len();
    let chunk = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    // Split from the back so each drain is O(chunk).
    while items.len() > chunk {
        chunks.push(items.split_off(items.len() - chunk));
    }
    chunks.push(items);
    chunks.reverse(); // back-to-front splitting reversed the order
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("rayon-stub worker panicked"));
        }
        out
    })
}

/// A parallel iterator: an eager snapshot of the items plus the adapter
/// surface (`map`, `for_each`, `collect`).
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The adapter trait, so call sites can write `rayon::prelude::*` and
/// use the same names as real rayon.
pub trait ParallelIterator: Sized {
    /// Item type produced by this iterator.
    type Item: Send;

    /// Consumes the iterator into its (input-ordered) item buffer.
    fn into_items(self) -> Vec<Self::Item>;

    /// Maps every item through `f`, in parallel.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        Map { inner: self, f }
    }

    /// Applies `f` to every item, in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _ = par_map_vec(self.into_items(), &|x| f(x));
    }

    /// Collects the items, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_ordered_vec(self.into_items())
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Lazy `map` adapter; the closure runs (in parallel) when the adapter
/// is consumed.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    type Item = U;

    fn into_items(self) -> Vec<U> {
        par_map_vec(self.inner.into_items(), &self.f)
    }
}

/// Conversion from an ordered item buffer, mirroring rayon's
/// `FromParallelIterator` so `collect::<Vec<_>>()` works verbatim.
pub trait FromParallelIterator<T> {
    /// Builds the collection from items in input order.
    fn from_ordered_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(v: Vec<T>) -> Self {
        v
    }
}

/// Types convertible into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Converts into a parallel iterator over owned items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Types offering a borrowing parallel iterator (`par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type of the resulting iterator (a shared reference).
    type Item: Send;
    /// A parallel iterator over shared references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn slice_par_iter() {
        let v = vec![3, 1, 4, 1, 5];
        let out: Vec<i32> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![4, 2, 5, 2, 6]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn for_each_visits_every_item() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        (0..37).into_par_iter().for_each(|_| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 37);
    }

    #[test]
    fn empty_inputs() {
        let out: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }
}
