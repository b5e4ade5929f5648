#![deny(missing_docs)]

//! # capstan-par
//!
//! A deterministic-order parallel map for the experiment harness.
//!
//! The harness sweeps many independent `(dataset x config)` simulation
//! points (paper Tables 4/9/10/12, Fig. 4/5), so the natural tool is
//! `rayon::par_iter`. This container builds fully offline, so rayon is
//! not available; this crate provides the one primitive the workspace
//! needs — [`par_map`] — on `std::thread::scope`, with the same
//! determinism contract rayon's indexed collect gives: **results are
//! returned in input order regardless of execution interleaving**.
//!
//! Work is distributed dynamically (a shared atomic cursor), so skewed
//! item costs — e.g. the flickr graph next to a tiny circuit matrix —
//! still balance across cores.
//!
//! Thread count comes from `std::thread::available_parallelism`,
//! overridden by the `CAPSTAN_THREADS` environment variable in either
//! direction (`CAPSTAN_THREADS=1` forces the serial path, which is also
//! used for empty and single-element inputs; larger values exercise the
//! parallel machinery even on single-core machines). The serial path
//! calls `f` in index order, so `par_map` with one thread is
//! *observably identical* to a plain `iter().map().collect()`, a
//! property the regression tests rely on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the harness will use.
///
/// `available_parallelism`, clamped to `[1, items]`. The
/// `CAPSTAN_THREADS` environment variable *overrides* the hardware
/// count in either direction — `1` forces the serial path, larger
/// values exercise the parallel machinery even on single-core machines.
pub fn thread_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::var("CAPSTAN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw)
        .min(items)
        .max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` up to execution
/// interleaving: `f` must therefore be independent per item (no
/// order-dependent side effects). Panics in `f` propagate.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_threads(items, thread_count(items.len()), f)
}

/// [`par_map`] with an explicit worker count (1 = serial). Exposed so
/// tests can pin the thread count without environment games.
pub fn par_map_threads<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len()).max(1);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            buckets.push(handle.join().expect("par_map worker panicked"));
        }
    });

    // Re-establish input order: place each result at its source index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn balances_skewed_work() {
        // One heavy item among many light ones must not change results.
        let items: Vec<u64> = (0..64).map(|i| if i == 0 { 200_000 } else { 50 }).collect();
        let spin = |&n: &u64| -> u64 { (0..n).fold(0u64, |a, b| a.wrapping_add(b * b)) };
        let par = par_map(&items, spin);
        let serial: Vec<u64> = items.iter().map(spin).collect();
        assert_eq!(par, serial);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_threads(&items, 4, |&i| {
            if i == 13 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..321).map(|i| i * 17 % 97).collect();
        let f = |&n: &u64| -> u64 { n * n + 1 };
        let serial = par_map_threads(&items, 1, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map_threads(&items, threads, f), serial);
        }
    }
}
