//! Chunked fan-out shared by every neighbour scan — the exact and int8
//! brute-force passes and the HNSW build and query batches — and by the
//! day-shard corpus build: each splits its output into contiguous
//! chunks, one per worker.

/// Resolves a `threads` setting (0 = one per available core) against
/// `work` items: never more workers than items, never fewer than one.
pub fn resolve_threads(threads: usize, work: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    }
    .min(work)
    .max(1)
}

/// Splits `out` into one contiguous chunk per resolved worker and runs
/// `scan(base, chunk)` on each, `base` being the chunk's first index in
/// `out`. The chunk boundaries depend only on `out.len()` and the
/// resolved thread count, and each item is written by exactly one scan.
///
/// With a single chunk the scan runs on the calling thread. A spawn would
/// cost a fresh OS thread and a span-registry thread entry that is never
/// freed — per call, which for the serve daemon means per request. With
/// more chunks each runs on a scoped worker under a `span_name` span
/// parented to the caller's innermost span.
///
/// # Panics
/// Re-raises a panic from any worker.
pub fn for_each_chunk<T, F>(out: &mut [T], threads: usize, span_name: &'static str, scan: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    let threads = resolve_threads(threads, out.len());
    if threads == 1 {
        scan(0, out);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    let ctx = darkvec_obs::span::context();
    let scan = &scan;
    crossbeam::scope(|scope| {
        for (c, part) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move |_| {
                let _worker = darkvec_obs::span!(span_name, ctx);
                scan(c * chunk, part);
            });
        }
    })
    .expect("chunk worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_is_scanned_once_at_its_own_base() {
        for threads in [1, 2, 3, 8, 40] {
            let mut out = vec![usize::MAX; 17];
            for_each_chunk(&mut out, threads, "test.chunk", |base, part| {
                for (off, slot) in part.iter_mut().enumerate() {
                    assert_eq!(*slot, usize::MAX, "item written twice");
                    *slot = base + off;
                }
            });
            assert_eq!(out, (0..17).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn threads_resolve_within_work() {
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(1, 10), 1);
        assert_eq!(resolve_threads(3, 0), 1);
        assert!(resolve_threads(0, 1000) >= 1);
    }
}
