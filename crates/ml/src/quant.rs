//! Int8 scalar quantization of embedding rows.
//!
//! A [`QuantizedMatrix`] stores each row of a [`NormalizedMatrix`] as
//! `dim` signed 8-bit codes plus three per-row constants — a scale, a
//! zero-point and the code sum — quantized once and queried many times.
//! At the paper's 50 dimensions that is 59 bytes per row against 200 for
//! f32 (29.5%), and similarity reduces to the all-integer
//! [`darkvec_kernels::dot_i8`] kernel plus a constant-time dequantization
//! correction.
//!
//! ## Scheme
//!
//! Per-row *affine* quantization over a range widened to include zero:
//! with `lo = min(row ∪ {0})` and `hi = max(row ∪ {0})`,
//!
//! ```text
//! scale = (hi - lo) / 254
//! zp    = -round((lo + hi) / (2·scale))          (fits i8 by the widening)
//! code  = clamp(round(x / scale) + zp, -127, 127)
//! x̂     = scale · (code - zp)
//! ```
//!
//! so the dot of two rows dequantizes exactly from integer sums:
//!
//! ```text
//! dot(a, b) = sa·sb · (Σ ca·cb − zb·Σca − za·Σcb + d·za·zb)
//! ```
//!
//! with every integer term precomputed (`Σc` is stored per row) except
//! the `Σ ca·cb` kernel call. An **all-zero row quantizes to `scale = 0`**
//! and therefore compares as similarity exactly `0.0` against everything
//! — never NaN — mirroring the zero-vector contract of
//! [`crate::knn::knn_query_normalized`].
//!
//! Codes stay in `[-127, 127]`; `-128` is never emitted, which keeps the
//! symmetric range assumptions of the SIMD kernels trivially safe.

use crate::knn::{insert_bounded, Neighbor, QUERY_BLOCK, TILE_ROWS};
use crate::par::for_each_chunk;
use crate::vectors::NormalizedMatrix;
use darkvec_kernels::dot_i8;

/// An embedding matrix with int8 scalar-quantized rows.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    /// Row-major codes, `rows × dim`.
    codes: Vec<i8>,
    /// Per-row dequantization scale (0.0 for all-zero rows).
    scales: Vec<f32>,
    /// Per-row zero-point, in code units.
    zero_points: Vec<i8>,
    /// Per-row `Σ code[i]`, precomputed for the zero-point correction.
    sums: Vec<i32>,
    rows: usize,
    dim: usize,
}

/// A single quantized query vector, produced by
/// [`QuantizedMatrix::quantize_query`].
#[derive(Clone, Debug)]
pub struct QuantizedQuery {
    codes: Vec<i8>,
    scale: f32,
    zero_point: i8,
    sum: i32,
}

/// Quantizes one `f32` row into `out` (already sized to the row length),
/// returning `(scale, zero_point, code_sum)`.
fn quantize_row(row: &[f32], out: &mut [i8]) -> (f32, i8, i32) {
    debug_assert_eq!(row.len(), out.len());
    // Widen the range to include zero so the zero-point fits an i8 (for
    // unit-norm embedding rows lo < 0 < hi essentially always anyway).
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let scale = (hi - lo) / 254.0;
    if scale == 0.0 {
        // All-zero row: scale 0 makes every dequantized product exactly 0.
        out.fill(0);
        return (0.0, 0, 0);
    }
    // lint: cast-ok(float-to-int `as` saturates in Rust; the debug_assert below pins zp to i8 range)
    let zp = (-(lo + hi) / (2.0 * scale)).round() as i32;
    debug_assert!((-127..=127).contains(&zp), "zero-point {zp} out of i8");
    let mut sum = 0i32;
    for (o, &x) in out.iter_mut().zip(row) {
        // lint: cast-ok(float-to-int `as` saturates, never UB; clamp then bounds the code)
        let c = ((x / scale).round() as i32 + zp).clamp(-127, 127);
        *o = c as i8; // lint: cast-ok(c is clamped to [-127, 127] on the line above)
        sum += c;
    }
    // lint: cast-ok(zp asserted within [-127, 127] after rounding)
    (scale, zp as i8, sum)
}

impl QuantizedMatrix {
    /// Quantizes every row of an already-normalised matrix, once.
    pub fn from_normalized(normed: &NormalizedMatrix) -> Self {
        Self::from_rows_f32(normed.data(), normed.dim())
    }

    /// Quantizes a flat row-major `f32` buffer (rows need not be
    /// unit-norm; chunk-at-a-time loaders quantize straight from disk).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_rows_f32(data: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a whole number of rows");
        let rows = data.len() / dim;
        let mut qm = QuantizedMatrix {
            codes: vec![0i8; rows * dim],
            scales: Vec::with_capacity(rows),
            zero_points: Vec::with_capacity(rows),
            sums: Vec::with_capacity(rows),
            rows,
            dim,
        };
        for r in 0..rows {
            let (s, z, sum) = quantize_row(
                &data[r * dim..(r + 1) * dim],
                &mut qm.codes[r * dim..(r + 1) * dim],
            );
            qm.scales.push(s);
            qm.zero_points.push(z);
            qm.sums.push(sum);
        }
        qm
    }

    /// Appends pre-quantized rows from another matrix chunk (the
    /// chunk-at-a-time store loader's accumulation path).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn append(&mut self, chunk: &QuantizedMatrix) {
        assert_eq!(self.dim, chunk.dim, "dimension mismatch");
        self.codes.extend_from_slice(&chunk.codes);
        self.scales.extend_from_slice(&chunk.scales);
        self.zero_points.extend_from_slice(&chunk.zero_points);
        self.sums.extend_from_slice(&chunk.sums);
        self.rows += chunk.rows;
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The codes of row `i`.
    pub fn row(&self, i: usize) -> &[i8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    /// Bytes of quantized payload: codes + per-row scale/zero-point/sum.
    /// The memory-ratio numbers in BENCH_ann/BENCH_scale come from here.
    pub fn bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<i8>()
            + self.scales.len() * std::mem::size_of::<f32>()
            + self.zero_points.len() * std::mem::size_of::<i8>()
            + self.sums.len() * std::mem::size_of::<i32>()
    }

    /// Bytes the same matrix occupies in f32 (`rows × dim × 4`).
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.dim * std::mem::size_of::<f32>()
    }

    /// Quantizes an external query vector (callers normalise first when
    /// cosine semantics are wanted; an all-zero query gets `scale = 0`
    /// and compares as similarity 0 to everything).
    ///
    /// # Panics
    /// Panics if the query dimension does not match.
    pub fn quantize_query(&self, query: &[f32]) -> QuantizedQuery {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut codes = vec![0i8; self.dim];
        let (scale, zero_point, sum) = quantize_row(query, &mut codes);
        QuantizedQuery {
            codes,
            scale,
            zero_point,
            sum,
        }
    }

    /// Dequantized inner product of rows `i` and `j`.
    #[inline]
    pub fn dot_rows(&self, i: usize, j: usize) -> f32 {
        let d = dot_i8(self.row(i), self.row(j));
        self.correct(
            d,
            self.scales[i],
            self.zero_points[i],
            self.sums[i],
            self.scales[j],
            self.zero_points[j],
            self.sums[j],
        )
    }

    /// Dequantized inner product of a quantized query against row `i`.
    #[inline]
    pub fn dot_query(&self, q: &QuantizedQuery, i: usize) -> f32 {
        let d = dot_i8(&q.codes, self.row(i));
        self.correct(
            d,
            q.scale,
            q.zero_point,
            q.sum,
            self.scales[i],
            self.zero_points[i],
            self.sums[i],
        )
    }

    /// The shared dequantization: `sa·sb·(D − zb·Sa − za·Sb + d·za·zb)`,
    /// with the integer part in i64 (headroom for any dimension).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn correct(&self, d: i32, sa: f32, za: i8, suma: i32, sb: f32, zb: i8, sumb: i32) -> f32 {
        let (za, zb) = (i64::from(za), i64::from(zb));
        let int =
            i64::from(d) - zb * i64::from(suma) - za * i64::from(sumb) + self.dim as i64 * za * zb;
        sa * sb * int as f32
    }

    /// For every row, its `k` nearest *other* rows by decreasing
    /// dequantized similarity — the int8 twin of
    /// [`crate::knn::knn_all_normalized`], with the same tiled scan
    /// shape, NaN-free ordering and ascending-index tie-breaks.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn knn_all(&self, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        assert!(k > 0, "k must be positive");
        let _span = darkvec_obs::span!("ml.knn_int8");
        let n = self.rows;
        if n == 0 {
            return Vec::new();
        }
        darkvec_obs::metrics::counter("ml.knn.queries").add(n as u64);
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        for_each_chunk(&mut results, threads, "ml.knn.chunk", |base, out| {
            self.scan_rows(base, out, k)
        });
        results
    }

    /// Batched external-query search over the quantized rows: queries are
    /// L2-normalised, quantized once each, then scanned. Mirrors
    /// [`crate::knn::knn_batch`].
    ///
    /// # Panics
    /// Panics if `k == 0` or `queries.len()` is not a multiple of `dim`.
    pub fn knn_batch(&self, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        assert!(k > 0, "k must be positive");
        assert_eq!(
            queries.len() % self.dim,
            0,
            "query batch dimension mismatch"
        );
        let nq = queries.len() / self.dim;
        if nq == 0 {
            return Vec::new();
        }
        let _span = darkvec_obs::span!("ml.knn_int8.batch");
        darkvec_obs::metrics::counter("ml.knn.queries").add(nq as u64);
        let mut normed_q = queries.to_vec();
        crate::vectors::normalize_rows(&mut normed_q, self.dim);
        let quantized: Vec<QuantizedQuery> = normed_q
            .chunks_exact(self.dim)
            .map(|q| self.quantize_query(q))
            .collect();

        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        for_each_chunk(&mut results, threads, "ml.knn.chunk", |base, out| {
            self.scan_queries(&quantized[base..base + out.len()], None, out, k)
        });
        results
    }

    /// Indexed-row scan for queries `base..base + out.len()`: each query
    /// is a row of the matrix (already quantized in place — no
    /// requantization error), with its own row excluded.
    fn scan_rows(&self, base: usize, out: &mut [Vec<Neighbor>], k: usize) {
        let n = self.rows;
        for (b, block) in out.chunks_mut(QUERY_BLOCK).enumerate() {
            let qbase = base + b * QUERY_BLOCK;
            for tile_start in (0..n).step_by(TILE_ROWS) {
                let tile_end = (tile_start + TILE_ROWS).min(n);
                for (off, best) in block.iter_mut().enumerate() {
                    let qi = qbase + off;
                    for i in tile_start..tile_end {
                        if i == qi {
                            continue;
                        }
                        insert_bounded(best, k, i, self.dot_rows(qi, i));
                    }
                }
            }
        }
    }

    /// External-query scan, tiled like [`crate::knn`]'s `scan_tiled`.
    fn scan_queries(
        &self,
        queries: &[QuantizedQuery],
        exclude_base: Option<usize>,
        out: &mut [Vec<Neighbor>],
        k: usize,
    ) {
        let n = self.rows;
        for (b, block) in out.chunks_mut(QUERY_BLOCK).enumerate() {
            let qbase = b * QUERY_BLOCK;
            for tile_start in (0..n).step_by(TILE_ROWS) {
                let tile_end = (tile_start + TILE_ROWS).min(n);
                for (off, best) in block.iter_mut().enumerate() {
                    let qi = qbase + off;
                    let q = &queries[qi];
                    let skip = exclude_base.map(|base| base + qi).unwrap_or(usize::MAX);
                    for i in tile_start..tile_end {
                        if i == skip {
                            continue;
                        }
                        insert_bounded(best, k, i, self.dot_query(q, i));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::dot;
    use proptest::prelude::*;

    fn seeded_rows(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..rows * dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn quantized_dot_tracks_f32_dot() {
        let data = seeded_rows(64, 50, 7);
        let normed = NormalizedMatrix::from_flat(data, 50);
        let qm = QuantizedMatrix::from_normalized(&normed);
        for i in 0..normed.rows() {
            for j in 0..normed.rows() {
                let exact = dot(normed.row(i), normed.row(j));
                let quant = qm.dot_rows(i, j);
                assert!(
                    (exact - quant).abs() < 0.02,
                    "rows {i},{j}: exact {exact} vs quantized {quant}"
                );
            }
        }
    }

    #[test]
    fn query_path_matches_row_path_for_indexed_rows() {
        let data = seeded_rows(16, 50, 9);
        let normed = NormalizedMatrix::from_flat(data, 50);
        let qm = QuantizedMatrix::from_normalized(&normed);
        // Re-quantizing an already-normalised row gives the same codes,
        // so the query path reproduces the row path exactly.
        for i in 0..normed.rows() {
            let q = qm.quantize_query(normed.row(i));
            for j in 0..normed.rows() {
                assert_eq!(qm.dot_query(&q, j), qm.dot_rows(i, j), "rows {i},{j}");
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_scale_zero_and_similarity_zero() {
        let mut data = seeded_rows(4, 8, 3);
        data[8..16].fill(0.0); // row 1 all-zero
        let normed = NormalizedMatrix::from_flat(data, 8);
        let qm = QuantizedMatrix::from_normalized(&normed);
        assert_eq!(qm.scales[1], 0.0);
        for j in 0..4 {
            let s = qm.dot_rows(1, j);
            assert_eq!(s, 0.0, "zero row vs {j}: got {s}");
            assert!(!s.is_nan());
        }
        // The zero query likewise: similarity exactly 0, ascending-index
        // ties — the contract knn_query_normalized documents for f32.
        let res = qm.knn_batch(&[0.0; 8], 2, 1);
        assert_eq!(res[0].len(), 2);
        for (rank, n) in res[0].iter().enumerate() {
            assert_eq!(n.similarity, 0.0);
            assert_eq!(n.index, rank);
        }
    }

    #[test]
    fn knn_matches_exact_neighbours_on_separated_groups() {
        // Three tight groups of 4, k = 3: each row's neighbour *set* is
        // forced to be its 3 group-mates (the inter-group gap dwarfs
        // quantization noise), but ordering inside a group may differ —
        // the true similarity spread there is below int8 resolution.
        let mut data = Vec::new();
        for (cx, cy) in [(1.0f32, 0.0f32), (0.0, 1.0), (-1.0, 0.0)] {
            for d in 0..4 {
                let eps = d as f32 * 0.01;
                data.extend_from_slice(&[cx + eps, cy + eps]);
            }
        }
        let normed = NormalizedMatrix::from_flat(data, 2);
        let qm = QuantizedMatrix::from_normalized(&normed);
        let exact = crate::knn::knn_all_normalized(&normed, 3, 1);
        let quant = qm.knn_all(3, 1);
        for (i, (e, q)) in exact.iter().zip(&quant).enumerate() {
            let mut ei: Vec<usize> = e.iter().map(|n| n.index).collect();
            let mut qi: Vec<usize> = q.iter().map(|n| n.index).collect();
            ei.sort_unstable();
            qi.sort_unstable();
            assert_eq!(ei, qi, "row {i}");
        }
    }

    #[test]
    fn knn_all_thread_count_is_invisible() {
        let data = seeded_rows(100, 16, 5);
        let normed = NormalizedMatrix::from_flat(data, 16);
        let qm = QuantizedMatrix::from_normalized(&normed);
        assert_eq!(qm.knn_all(5, 1), qm.knn_all(5, 4));
        let queries = seeded_rows(10, 16, 6);
        assert_eq!(qm.knn_batch(&queries, 5, 1), qm.knn_batch(&queries, 5, 3));
    }

    #[test]
    fn bytes_accounting_is_under_30_percent_of_f32_at_paper_dim() {
        let data = seeded_rows(100, 50, 11);
        let normed = NormalizedMatrix::from_flat(data, 50);
        let qm = QuantizedMatrix::from_normalized(&normed);
        assert_eq!(qm.f32_bytes(), 100 * 50 * 4);
        assert_eq!(qm.bytes(), 100 * (50 + 4 + 1 + 4));
        assert!((qm.bytes() as f64) <= 0.30 * qm.f32_bytes() as f64);
    }

    #[test]
    fn append_concatenates_chunks() {
        let data = seeded_rows(10, 8, 13);
        let normed = NormalizedMatrix::from_flat(data.clone(), 8);
        let whole = QuantizedMatrix::from_normalized(&normed);
        let mut glued = QuantizedMatrix::from_rows_f32(&normed.data()[..4 * 8], 8);
        glued.append(&QuantizedMatrix::from_rows_f32(&normed.data()[4 * 8..], 8));
        assert_eq!(whole, glued);
    }

    proptest! {
        /// Property sweep alongside the NaN-safe `total_cmp` suite: no
        /// quantized similarity is ever NaN, zero rows always compare as
        /// exactly 0, and every similarity stays within the dequantized
        /// error envelope of the f32 dot.
        #[test]
        fn quantized_similarities_are_finite_and_close(seed in 0u64..50) {
            let dim = 8 + (seed as usize % 13);
            let mut data = seeded_rows(12, dim, seed);
            // Force one all-zero row into every case.
            let z = (seed as usize * 7) % 12;
            data[z * dim..(z + 1) * dim].fill(0.0);
            let normed = NormalizedMatrix::from_flat(data, dim);
            let qm = QuantizedMatrix::from_normalized(&normed);
            for i in 0..12 {
                for j in 0..12 {
                    let s = qm.dot_rows(i, j);
                    prop_assert!(s.is_finite(), "rows {i},{j}: {s}");
                    if i == z || j == z {
                        prop_assert_eq!(s, 0.0, "zero row {} vs {}", i, j);
                    } else {
                        let exact = dot(normed.row(i), normed.row(j));
                        prop_assert!((s - exact).abs() < 0.05,
                            "rows {},{}: {} vs {}", i, j, s, exact);
                    }
                }
            }
        }
    }
}
