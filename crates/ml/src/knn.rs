//! Parallel brute-force k-nearest-neighbour search under cosine similarity.
//!
//! DarkVec's embeddings have 10^4–10^5 rows of 50 dimensions, where exact
//! brute force (normalise once, then dot products) is both simple and fast —
//! a few hundred million fused multiply-adds, spread over cores with
//! crossbeam scoped threads.
//!
//! The scan is cache-blocked: queries advance in blocks of
//! [`QUERY_BLOCK`] over candidate tiles of [`TILE_ROWS`] rows, so each
//! ~50 KB tile is read from memory once per query block instead of once
//! per query. Tiles and rows are visited in ascending index order — the
//! exact candidate order of a row-at-a-time scan — so results (including
//! tie-breaking) are identical to the unblocked form.

use crate::par::for_each_chunk;
use crate::vectors::{dot, normalize_vec, Matrix, NormalizedMatrix};
use std::time::Instant;

/// Candidate rows per cache tile (× 50 dims × 4 bytes ≈ 50 KB, sized for
/// L2 residency with headroom for the queries). Shared with the
/// quantized scan in [`crate::quant`], whose tiles are 4× smaller in
/// bytes at the same row count.
pub(crate) const TILE_ROWS: usize = 256;

/// Queries advanced together over one tile.
pub(crate) const QUERY_BLOCK: usize = 8;

/// One neighbour of a query row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbour.
    pub index: usize,
    /// Cosine similarity to the query row.
    pub similarity: f32,
}

/// Computes, for every row of `matrix`, its `k` nearest other rows by
/// cosine similarity (self excluded), ordered by decreasing similarity.
///
/// `threads = 0` uses one thread per available core.
///
/// # Panics
/// Panics if `k == 0`.
pub fn knn_all(matrix: Matrix<'_>, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
    // Normalise once so similarity is a dot product.
    let normed = matrix.normalized();
    knn_all_normalized(&normed, k, threads)
}

/// [`knn_all`] over an already-normalised matrix — the entry point for
/// callers that share one [`NormalizedMatrix`] across several passes.
///
/// # Panics
/// Panics if `k == 0`.
pub fn knn_all_normalized(
    normed: &NormalizedMatrix,
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    let _span = darkvec_obs::span!("ml.knn");
    let n = normed.rows();
    if n == 0 {
        return Vec::new();
    }
    darkvec_obs::metrics::counter("ml.knn.queries").add(n as u64);
    let start = Instant::now();

    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    for_each_chunk(&mut results, threads, "ml.knn.chunk", |base, out| {
        knn_chunk(normed, base, out, k)
    });
    darkvec_obs::metrics::gauge("ml.knn.rows_per_sec")
        .set(n as f64 / start.elapsed().as_secs_f64().max(1e-9));
    results
}

/// Neighbour search for the query rows `base..base + out.len()`, blocked
/// over candidate tiles so a tile stays cache-hot across a query block.
fn knn_chunk(normed: &NormalizedMatrix, base: usize, out: &mut [Vec<Neighbor>], k: usize) {
    let dim = normed.dim();
    let queries = &normed.data()[base * dim..(base + out.len()) * dim];
    scan_tiled(normed, queries, Some(base), out, k);
}

/// The shared cache-blocked scan: for each `dim`-sized row of `queries`
/// (already unit-norm), the `k` most similar rows of `normed`. When the
/// queries are themselves rows of `normed` starting at `exclude_base`,
/// passing `Some(exclude_base)` skips each query's own row.
fn scan_tiled(
    normed: &NormalizedMatrix,
    queries: &[f32],
    exclude_base: Option<usize>,
    out: &mut [Vec<Neighbor>],
    k: usize,
) {
    let n = normed.rows();
    let dim = normed.dim();
    debug_assert_eq!(queries.len(), out.len() * dim);
    let query_latency = darkvec_obs::metrics::histogram("ml.knn.query_ns");
    for (b, block) in out.chunks_mut(QUERY_BLOCK).enumerate() {
        let block_started = Instant::now();
        let qbase = b * QUERY_BLOCK;
        for tile_start in (0..n).step_by(TILE_ROWS) {
            let tile_end = (tile_start + TILE_ROWS).min(n);
            for (off, best) in block.iter_mut().enumerate() {
                let qi = qbase + off;
                let q = &queries[qi * dim..(qi + 1) * dim];
                let skip = exclude_base.map(|base| base + qi).unwrap_or(usize::MAX);
                for i in tile_start..tile_end {
                    if i == skip {
                        continue;
                    }
                    insert_bounded(best, k, i, dot(q, normed.row(i)));
                }
            }
        }
        // Queries in a block interleave across tiles, so per-query time
        // is the block's wall time amortized over its queries — one
        // histogram sample per query keeps counts meaningful.
        let per_query_ns = (block_started.elapsed().as_nanos() / block.len() as u128)
            .try_into()
            .unwrap_or(u64::MAX);
        for _ in 0..block.len() {
            query_latency.record(per_query_ns);
        }
    }
}

/// Bounded insertion into a small sorted buffer: O(n·k) worst case but
/// k is tiny (≤ ~35 in every experiment) and the branch predictor loves
/// the common no-insert path.
#[inline]
pub(crate) fn insert_bounded(best: &mut Vec<Neighbor>, k: usize, index: usize, similarity: f32) {
    if best.len() == k && similarity <= best[k - 1].similarity {
        return;
    }
    let pos = best.partition_point(|b| b.similarity >= similarity);
    best.insert(pos, Neighbor { index, similarity });
    if best.len() > k {
        best.pop();
    }
}

/// The `k` nearest rows to an external query vector (not a row of the
/// matrix). Used when classifying new senders against a trained embedding.
pub fn knn_query(matrix: Matrix<'_>, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert_eq!(query.len(), matrix.dim(), "query dimension mismatch");
    let normed = matrix.normalized();
    knn_query_normalized(&normed, query, k)
}

/// [`knn_query`] over an already-normalised matrix.
///
/// # Panics
/// Panics if `k == 0` or the query dimension does not match.
pub fn knn_query_normalized(normed: &NormalizedMatrix, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), normed.dim(), "query dimension mismatch");
    let mut q = query.to_vec();
    normalize_vec(&mut q);
    let mut best = vec![Vec::with_capacity(k + 1)];
    scan_tiled(normed, &q, None, &mut best, k);
    best.pop().expect("one query in, one result out")
}

/// Batched external-query search: for each `dim`-sized row of `queries`
/// (*not* rows of the matrix — nothing is excluded), its `k` most similar
/// rows of `normed`, ordered by decreasing similarity. Queries are
/// L2-normalised internally; zero queries return neighbours with
/// similarity 0, tie-broken by ascending row index.
///
/// Uses the same cache-blocked tiled scan as [`knn_all_normalized`], with
/// query chunks spread over `threads` (0 = one per core) — the batch
/// replacement for calling [`knn_query_normalized`] in a loop.
///
/// # Panics
/// Panics if `k == 0` or `queries.len()` is not a multiple of the matrix
/// dimension.
pub fn knn_batch(
    normed: &NormalizedMatrix,
    queries: &[f32],
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(k > 0, "k must be positive");
    let dim = normed.dim();
    assert_eq!(queries.len() % dim, 0, "query batch dimension mismatch");
    let nq = queries.len() / dim;
    if nq == 0 {
        return Vec::new();
    }
    let _span = darkvec_obs::span!("ml.knn_batch");
    darkvec_obs::metrics::counter("ml.knn.queries").add(nq as u64);
    let mut normed_q = queries.to_vec();
    crate::vectors::normalize_rows(&mut normed_q, dim);

    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
    for_each_chunk(&mut results, threads, "ml.knn.chunk", |base, out| {
        let q = &normed_q[base * dim..(base + out.len()) * dim];
        scan_tiled(normed, q, None, out, k)
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight groups on the unit circle.
    fn grouped_matrix() -> Vec<f32> {
        let mut data = Vec::new();
        for (cx, cy) in [(1.0f32, 0.0f32), (0.0, 1.0), (-1.0, 0.0)] {
            for d in 0..4 {
                let eps = d as f32 * 0.01;
                data.extend_from_slice(&[cx + eps, cy + eps]);
            }
        }
        data
    }

    #[test]
    fn neighbours_come_from_own_group() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let nn = knn_all(m, 3, 1);
        for (i, neigh) in nn.iter().enumerate() {
            assert_eq!(neigh.len(), 3);
            let group = i / 4;
            for n in neigh {
                assert_eq!(n.index / 4, group, "row {i} got neighbour {}", n.index);
                assert_ne!(n.index, i, "self must be excluded");
            }
        }
    }

    #[test]
    fn neighbours_sorted_by_similarity() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        for neigh in knn_all(m, 5, 1) {
            for pair in neigh.windows(2) {
                assert!(pair[0].similarity >= pair[1].similarity);
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let serial = knn_all(m, 4, 1);
        let parallel = knn_all(m, 4, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let si: Vec<usize> = s.iter().map(|n| n.index).collect();
            let pi: Vec<usize> = p.iter().map(|n| n.index).collect();
            assert_eq!(si, pi);
        }
    }

    #[test]
    fn k_larger_than_rows_returns_all_others() {
        let data = [1.0f32, 0.0, 0.9, 0.1, 0.0, 1.0];
        let m = Matrix::new(&data, 3, 2);
        let nn = knn_all(m, 10, 1);
        assert_eq!(nn[0].len(), 2);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::new(&[], 0, 3);
        assert!(knn_all(m, 3, 1).is_empty());
    }

    #[test]
    fn knn_query_finds_nearest_group() {
        let data = grouped_matrix();
        let m = Matrix::new(&data, 12, 2);
        let res = knn_query(m, &[0.1, 0.95], 4);
        assert_eq!(res.len(), 4);
        for n in &res {
            assert!(
                (4..8).contains(&n.index),
                "query near group 1, got {}",
                n.index
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = [1.0f32, 0.0];
        knn_all(Matrix::new(&data, 1, 2), 0, 1);
    }

    #[test]
    fn zero_vector_query_returns_zero_similarities() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let res = knn_query_normalized(&normed, &[0.0, 0.0], 3);
        assert_eq!(res.len(), 3);
        for (rank, n) in res.iter().enumerate() {
            assert_eq!(n.similarity, 0.0);
            // All ties at 0: stable insertion keeps ascending row order.
            assert_eq!(n.index, rank);
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let queries = [0.1f32, 0.95, 1.0, 0.0, -0.9, 0.1, 0.0, 0.0];
        let batch = knn_batch(&normed, &queries, 4, 1);
        assert_eq!(batch.len(), 4);
        for (qi, got) in batch.iter().enumerate() {
            let single = knn_query_normalized(&normed, &queries[qi * 2..qi * 2 + 2], 4);
            assert_eq!(got, &single, "query {qi}");
        }
    }

    #[test]
    fn batch_thread_count_is_invisible() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        let queries: Vec<f32> = (0..10).flat_map(|i| [1.0 - 0.1 * i as f32, 0.2]).collect();
        assert_eq!(
            knn_batch(&normed, &queries, 3, 1),
            knn_batch(&normed, &queries, 3, 4)
        );
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        assert!(knn_batch(&normed, &[], 3, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn batch_rejects_ragged_queries() {
        let data = grouped_matrix();
        let normed = Matrix::new(&data, 12, 2).normalized();
        knn_batch(&normed, &[1.0, 0.0, 0.5], 3, 1);
    }
}
