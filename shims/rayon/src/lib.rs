//! First-party, dependency-free shim of the `rayon` API surface used by
//! the OIPA workspace.
//!
//! The build environment has no crates-registry access (see
//! `shims/README.md`), so this crate provides the slice-parallel subset
//! the samplers need, built on `std::thread::scope`:
//!
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` — an **order-preserving**
//!   parallel map: output index `i` always holds `f(&slice[i])`, which is
//!   what makes the samplers' chunked generation bitwise deterministic
//!   under any thread count;
//! * `vec.into_par_iter().map(f).collect::<Vec<_>>()` — the same map over
//!   owned items, each moved into its call of `f`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — scoped thread-count
//!   control (a thread-local override here, not a real persistent pool);
//! * [`current_num_threads`].
//!
//! Work distribution is dynamic (an atomic cursor over items), so uneven
//! per-item cost still balances across workers, like real rayon's stealing.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    //! Traits that make `.par_iter()` available on slices and vectors,
    //! and `.into_par_iter()` on vectors.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads parallel operations will use on this
/// thread: the innermost [`ThreadPool::install`] override, or the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    let overridden = THREAD_OVERRIDE.with(Cell::get);
    if overridden > 0 {
        overridden
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Builder for a [`ThreadPool`] with an explicit thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (machine) parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count; `0` means machine parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible here; the `Result` mirrors rayon's
    /// signature so call sites read identically.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Error type mirroring `rayon::ThreadPoolBuildError` (never produced by
/// this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A scoped thread-count context. Unlike real rayon there are no
/// persistent workers; [`ThreadPool::install`] pins the thread count that
/// parallel operations inside `op` will spawn.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        THREAD_OVERRIDE.with(|cell| {
            let previous = cell.get();
            cell.set(self.num_threads);
            let result = op();
            cell.set(previous);
            result
        })
    }

    /// The configured thread count (0 = machine parallelism).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Conversion into a parallel iterator over `&T` items, implemented for
/// slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Item type yielded by reference.
    type Item: 'a;

    /// Returns a parallel iterator borrowing the collection.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowing parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item through `f` in parallel, preserving order.
    pub fn map<O, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&T) -> O + Sync,
        O: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]: a lazy parallel map, executed by
/// [`ParMap::collect`].
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, F, O> ParMap<'a, T, F>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    /// Executes the map and collects results **in input order**.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        par_map_vec(self.items, &self.f).into_iter().collect()
    }
}

/// Conversion into a parallel iterator over owned items, implemented for
/// `Vec<T>`.
pub trait IntoParallelIterator {
    /// The owned item type.
    type Item;
    /// Consumes `self` into a parallel iterator.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// An owning parallel iterator over a vector.
#[derive(Debug)]
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Maps each item through `f` in parallel, preserving order.
    pub fn map<O, F>(self, f: F) -> IntoParMap<T, F>
    where
        F: Fn(T) -> O + Sync,
        O: Send,
    {
        IntoParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`IntoParIter::map`]: a lazy parallel map, executed by
/// [`IntoParMap::collect`].
#[derive(Debug)]
pub struct IntoParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F, O> IntoParMap<T, F>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    /// Executes the map and collects results **in input order**. Each
    /// item is moved into `f` and dropped there, so its memory is freed
    /// as soon as its call returns.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        let slots: Vec<Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let take = |slot: &Mutex<Option<T>>| {
            let item = slot.lock().expect("unpoisoned slot").take();
            (self.f)(item.expect("each item is taken once"))
        };
        par_map_vec(&slots, &take).into_iter().collect()
    }
}

/// Order-preserving parallel map: dynamic scheduling via an atomic item
/// cursor, results reassembled by index.
fn par_map_vec<T: Sync, O: Send>(items: &[T], f: &(impl Fn(&T) -> O + Sync)) -> Vec<O> {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, O)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("rayon shim worker panicked"));
        }
    });
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        out[i] = Some(value);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn owned_map_preserves_order() {
        let input: Vec<Vec<u64>> = (0..100).map(|i| vec![i; 3]).collect();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let sums: Vec<u64> =
            pool.install(|| input.into_par_iter().map(|v| v.iter().sum()).collect());
        assert_eq!(sums, (0..100).map(|i| 3 * i).collect::<Vec<_>>());
    }

    #[test]
    fn install_pins_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 3));
        let nested = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            nested.install(|| assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let input: Vec<u64> = (0..5000).collect();
        let reference: Vec<u64> = input.iter().map(|x| x.wrapping_mul(0x9e3779b9)).collect();
        for threads in [1, 2, 5, 16] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<u64> = pool.install(|| {
                input
                    .par_iter()
                    .map(|x| x.wrapping_mul(0x9e3779b9))
                    .collect()
            });
            assert_eq!(got, reference);
        }
    }
}
