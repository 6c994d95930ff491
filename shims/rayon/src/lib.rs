//! Offline drop-in replacement for the subset of the `rayon` API used by
//! QuaTrEx-RS.
//!
//! The build environment has no crates.io access, so this shim provides the
//! data-parallel iterator surface the solver uses (`par_iter`,
//! `into_par_iter`, `par_iter_mut` with `map` / `enumerate` / `zip` /
//! `for_each` / `collect`) on top of `std::thread::scope`. Unlike rayon's
//! work-stealing deques, work is distributed through a shared index queue —
//! adequate for the coarse-grained per-energy and per-element parallelism of
//! the SCBA loop, where each work item is an entire RGF solve or FFT batch.
//!
//! Semantics match rayon where the workspace relies on them: `map` preserves
//! item order in `collect`, closures must be `Sync`, and `collect` supports
//! both `Vec<T>` and `Result<Vec<T>, E>` targets (via `FromIterator`).

use quatrex_sync::race;
use quatrex_sync::race::{AccessKind, SharedId};
use quatrex_sync::sched;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads used for parallel stages.
fn worker_count(len: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(len).max(1)
}

/// Lock a mutex regardless of poisoning: every work/out slot is claimed by
/// exactly one worker, so a poisoned lock carries no torn state — and a
/// panicking sibling worker must never escalate into a second panic (which
/// would abort the process).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` on every element of `items`, in parallel, preserving order.
///
/// Work is claimed in *chunks*: the items are pre-split into contiguous
/// batches and workers claim whole batches with one `fetch_add` — two mutex
/// locks and one atomic per **chunk** instead of per item, so the per-item
/// overhead no longer dominates maps over many small work items (e.g. the
/// per-element convolution batches). Chunks are sized to hand every worker
/// several batches, preserving load balancing for uneven item costs.
///
/// Panic semantics match rayon: a panic inside `f` is caught on the worker,
/// the remaining workers drain without starting new chunks, and the **first**
/// panic payload is re-raised on the calling thread with
/// [`std::panic::resume_unwind`] once the scope has joined — one clean
/// panic, never a poisoned-mutex double panic that aborts the process.
fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if sched::is_registered() {
        // Under schedule exploration the caller is a serialised rank thread;
        // worker OS threads would be outside the scheduler's model, so run
        // the map inline — same results, deterministic order.
        return items.into_iter().map(f).collect();
    }
    let workers = worker_count(n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // 4 chunks per worker keeps dynamic balancing while amortising the
    // claim/synchronisation cost over the chunk.
    let chunk = n.div_ceil(workers * 4).max(1);
    let n_chunks = n.div_ceil(chunk);
    let mut iter = items.into_iter();
    let work: Vec<Mutex<Vec<T>>> = (0..n_chunks)
        .map(|_| Mutex::new(iter.by_ref().take(chunk).collect()))
        .collect();
    let out: Vec<Mutex<Vec<R>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // Race-detector task edges: workers adopt the spawner's clock, their
    // final clocks flow back through the scope join, and each claimed chunk
    // is an annotated shared object (written by exactly one worker, read by
    // the spawner at collect).
    let chunk_ids = AtomicU64::new(0);
    let chunk_id = |c: usize| {
        SharedId::new(
            "rayon.chunk",
            (quatrex_sync::object_id(&chunk_ids) << 16) | c as u64,
        )
    };
    let fork = race::fork();
    let join_points: Mutex<Vec<race::JoinPoint>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                race::adopt(&fork);
                loop {
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let batch = std::mem::take(&mut *lock_unpoisoned(&work[c]));
                    debug_assert!(!batch.is_empty(), "chunk claimed twice");
                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        batch.into_iter().map(&f).collect::<Vec<R>>()
                    })) {
                        Ok(results) => {
                            *lock_unpoisoned(&out[c]) = results;
                            race::access_shared(chunk_id(c), AccessKind::Write);
                        }
                        Err(payload) => {
                            panicked.store(true, Ordering::Relaxed);
                            let mut slot = lock_unpoisoned(&first_panic);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            break;
                        }
                    }
                }
                lock_unpoisoned(&join_points).push(race::depart());
            });
        }
    });
    for point in lock_unpoisoned(&join_points).drain(..) {
        race::join(point);
    }
    if let Some(payload) = lock_unpoisoned(&first_panic).take() {
        std::panic::resume_unwind(payload);
    }
    let mut flat = Vec::with_capacity(n);
    for (c, slot) in out.into_iter().enumerate() {
        race::access_shared(chunk_id(c), AccessKind::Read);
        let mut results = slot.into_inner().unwrap_or_else(|p| p.into_inner());
        flat.append(&mut results);
    }
    assert_eq!(flat.len(), n, "chunked map lost items");
    flat
}

/// An eager "parallel iterator": the items are materialised up front and every
/// parallel adaptor runs to completion before returning.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Apply `f` to every item in parallel, preserving order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync + Send>(self, f: F) -> ParIter<R> {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Pair every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Zip with another parallel iterator (truncates to the shorter one).
    pub fn zip<U: Send, I: IntoParallelIterator<Item = U>>(self, other: I) -> ParIter<(T, U)> {
        let other = other.into_par_iter();
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync + Send>(self, f: F) {
        parallel_map(self.items, f);
    }

    /// Collect the (already computed) items; `C` may be `Vec<T>` or, when the
    /// items are `Result`s, `Result<Vec<_>, _>` — any `FromIterator` target.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sum the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Conversion into an owning parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Materialise the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Borrowing parallel iteration (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// Iterate over shared references in parallel.
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

/// Mutably borrowing parallel iteration (`par_iter_mut`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// Iterate over exclusive references in parallel.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Run two closures, potentially in parallel, and return both results: `a`
/// on the calling thread, `b` on a spawned one. As in rayon, a panic in `b`
/// is re-raised on the calling thread with its original payload.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if sched::is_registered() {
        // Serialised under schedule exploration (see `parallel_map`).
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let fork = race::fork();
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || {
            race::adopt(&fork);
            let rb = b();
            (rb, race::depart())
        });
        let ra = a();
        let (rb, point) = hb
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        race::join(point);
        (ra, rb)
    })
}

/// The rayon prelude: the traits needed for method resolution.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_claiming_covers_every_length() {
        // Lengths around chunk boundaries: nothing lost, order preserved.
        for n in [1usize, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 255, 257] {
            let v: Vec<usize> = (0..n).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(v, (1..=n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn collect_into_result_short_circuits_on_err() {
        let r: Result<Vec<usize>, &'static str> = (0..10)
            .into_par_iter()
            .map(|i| if i == 7 { Err("boom") } else { Ok(i) })
            .collect();
        assert_eq!(r, Err("boom"));
        let ok: Result<Vec<usize>, &'static str> = (0..10).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v = vec![1u64; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn zip_and_enumerate_line_up() {
        let a = vec![10, 20, 30];
        let b = vec![1, 2, 3];
        let v: Vec<usize> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(v, vec![11, 22, 33]);
        let e: Vec<(usize, usize)> = a.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(e, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_re_raises_the_spawned_closure_panic() {
        let payload = std::panic::catch_unwind(|| super::join(|| 1, || panic!("singular at 7")))
            .expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"singular at 7"));
    }

    #[test]
    fn a_panicking_closure_surfaces_as_one_clean_panic() {
        // A panic inside a worker used to risk a poisoned-mutex double panic
        // (process abort); now the first payload is re-raised on the calling
        // thread and is catchable like any ordinary panic.
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..512)
                .into_par_iter()
                .map(|i| {
                    if i == 137 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .collect();
        });
        let payload = result.expect_err("the panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert_eq!(msg, "boom at 137");
        // The pool is still usable after a propagated panic.
        let v: Vec<usize> = (0..64).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panics_from_multiple_workers_propagate_exactly_one_payload() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..512)
                .into_par_iter()
                .map(|i| {
                    if i % 7 == 3 {
                        panic!("many panics");
                    }
                    i
                })
                .collect();
        });
        assert!(result.is_err(), "one of the panics must propagate");
    }
}
