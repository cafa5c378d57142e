//! The trainer's parameter matrices: plain row-major `f32` rows.
//!
//! A [`Matrix`] owns its weights as a `Vec<f32>`. Training reaches the
//! rows through one of two [`RowStore`]s, which differ only in how a row
//! is reached:
//!
//! * [`InPlace`] — one thread: rows are the matrix's own storage,
//!   borrowed mutably for the whole run.
//! * [`Snapshots`] over an [`AtomicView`] — `threads > 1`: Hogwild SGD
//!   (Niu et al., 2011; also how `word2vec.c` and Gensim train) updates
//!   the rows from many threads with no locks, which on a plain
//!   `&mut [f32]` would be undefined behaviour in Rust. The view
//!   reinterprets the *same* buffer as relaxed `AtomicU32` cells holding
//!   the `f32` bit patterns — plain `mov`s on x86-64 and AArch64, and no
//!   second copy. Each worker snapshots a row into a private buffer,
//!   updates the copy with the SIMD kernels, and publishes it back with
//!   relaxed stores; a concurrent writer's update to the same row can be
//!   lost, which SGD tolerates.
//!
//!   CBOW's context rows, read once and written once per centre, skip
//!   the snapshot: one relaxed pass over the cells adds them.
//!
//! On one thread both stores see the same values in the same order, so
//! they train bit-identical embeddings.

// lint: relaxed-ok(the Hogwild view IS the lock-free weight matrix: relaxed AtomicU32 f32 cells are the documented design; lost updates are tolerated by SGD)

use darkvec_kernels::{axpy_on, Path, Rows};
use std::sync::atomic::{AtomicU32, Ordering};

/// A `rows × dim` row-major matrix of `f32` weights.
pub struct Matrix {
    data: Vec<f32>,
    dim: usize,
}

impl Matrix {
    /// A zero-initialised matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// A matrix initialised with the `word2vec.c` input-layer scheme:
    /// uniform in `(-0.5/dim, 0.5/dim)`, from a splitmix-style hash of
    /// `(seed, cell index)` so initialisation is reproducible and
    /// thread-count independent.
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let data = (0..rows * dim)
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // Map to [0,1) then to (-0.5, 0.5)/dim.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                ((u - 0.5) / dim as f64) as f32
            })
            .collect();
        Matrix { data, dim }
    }

    /// One row, mutably.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// The one-thread store: rows borrowed in place.
    pub fn in_place(&mut self) -> InPlace<'_> {
        InPlace {
            data: &mut self.data,
            dim: self.dim,
        }
    }

    /// The Hogwild view: the same buffer as relaxed atomic cells that
    /// many threads may read and write at once.
    pub fn atomic_view(&mut self) -> AtomicView<'_> {
        const _: () = assert!(
            std::mem::size_of::<AtomicU32>() == std::mem::size_of::<f32>()
                && std::mem::align_of::<AtomicU32>() == std::mem::align_of::<f32>()
        );
        let data: &mut [f32] = &mut self.data;
        // SAFETY: `AtomicU32` has the size and alignment of `f32`
        // (asserted above) and every bit pattern is a valid `u32`, so the
        // cast keeps the length and yields well-aligned, initialised
        // cells. The view borrows the matrix mutably for its whole
        // lifetime, so nothing reaches the buffer except through these
        // atomic cells until the view is gone — the same contract as the
        // standard library's `AtomicU32::from_mut_slice`.
        let cells = unsafe { &*(data as *mut [f32] as *const [AtomicU32]) };
        AtomicView {
            cells,
            dim: self.dim,
        }
    }

    /// The weights, row-major.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Rows of a [`Matrix`] updated in place (one thread).
pub struct InPlace<'a> {
    data: &'a mut [f32],
    dim: usize,
}

impl Rows for InPlace<'_> {
    #[inline]
    fn row(&mut self, t: usize) -> &mut [f32] {
        &mut self.data[t * self.dim..(t + 1) * self.dim]
    }

    #[inline]
    fn publish(&mut self, _t: usize) {}
}

/// A trainer's weight store: row access for the fused kernel, plus the
/// two whole-row additions a CBOW centre makes on each context row.
///
/// Both additions compute `y += 1 · x`, which every kernel path rounds
/// exactly like the plain `y + x` (the product is exact, so the fused
/// and unfused forms round once, identically). The stores may
/// therefore implement them differently and still train the same bits.
pub trait RowStore: Rows {
    /// `acc += row t`.
    fn add_row_into(&mut self, path: Path, t: usize, acc: &mut [f32]);
    /// `row t += v`, made visible in the matrix.
    fn add_to_row(&mut self, path: Path, t: usize, v: &[f32]);
}

impl RowStore for InPlace<'_> {
    #[inline]
    fn add_row_into(&mut self, path: Path, t: usize, acc: &mut [f32]) {
        axpy_on(path, 1.0, self.row(t), acc);
    }

    #[inline]
    fn add_to_row(&mut self, path: Path, t: usize, v: &[f32]) {
        axpy_on(path, 1.0, v, self.row(t));
    }
}

/// A [`Matrix`] seen as relaxed-atomic `f32` cells, shared by the
/// Hogwild workers.
#[derive(Clone, Copy)]
pub struct AtomicView<'a> {
    cells: &'a [AtomicU32],
    dim: usize,
}

impl<'a> AtomicView<'a> {
    /// One worker's store over the view.
    pub fn snapshots(self) -> Snapshots<'a> {
        Snapshots {
            view: self,
            buf: vec![0.0; self.dim],
        }
    }

    fn cells(&self, t: usize) -> &'a [AtomicU32] {
        &self.cells[t * self.dim..(t + 1) * self.dim]
    }
}

/// One Hogwild worker's store: `row(t)` snapshots row `t` into a private
/// buffer, `publish(t)` stores the buffer back (store-only, no
/// read-modify-write). On one thread the round trip is exact.
pub struct Snapshots<'a> {
    view: AtomicView<'a>,
    buf: Vec<f32>,
}

impl Rows for Snapshots<'_> {
    #[inline]
    fn row(&mut self, t: usize) -> &mut [f32] {
        for (slot, c) in self.buf.iter_mut().zip(self.view.cells(t)) {
            *slot = f32::from_bits(c.load(Ordering::Relaxed));
        }
        &mut self.buf
    }

    #[inline]
    fn publish(&mut self, t: usize) {
        for (c, &v) in self.view.cells(t).iter().zip(&self.buf) {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// One pass over the cells instead of a snapshot, an add and a publish:
/// a CBOW centre touches up to `2 · window` context rows twice each, so
/// the round trips would outweigh the arithmetic.
impl RowStore for Snapshots<'_> {
    #[inline]
    fn add_row_into(&mut self, _path: Path, t: usize, acc: &mut [f32]) {
        for (a, c) in acc.iter_mut().zip(self.view.cells(t)) {
            *a += f32::from_bits(c.load(Ordering::Relaxed));
        }
    }

    #[inline]
    fn add_to_row(&mut self, _path: Path, t: usize, v: &[f32]) {
        for (c, &x) in self.view.cells(t).iter().zip(v) {
            let sum = f32::from_bits(c.load(Ordering::Relaxed)) + x;
            c.store(sum.to_bits(), Ordering::Relaxed);
        }
    }
}

/// SplitMix64 — tiny, high-quality 64-bit mixer used for reproducible
/// initialisation independent of thread scheduling.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_reads_zero() {
        assert_eq!(Matrix::zeros(3, 4).into_vec(), vec![0.0; 12]);
    }

    #[test]
    fn uniform_init_in_range_and_deterministic() {
        let a = Matrix::uniform_init(10, 50, 42).into_vec();
        let b = Matrix::uniform_init(10, 50, 42).into_vec();
        let c = Matrix::uniform_init(10, 50, 43).into_vec();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bound = 0.5 / 50.0;
        assert!(a.iter().all(|v| v.abs() < bound));
        // Not all identical (sanity that the hash actually varies).
        assert!(a.iter().any(|&v| v != a[0]));
    }

    #[test]
    fn in_place_rows_are_the_matrix_storage() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        let mut rows = m.in_place();
        assert_eq!(rows.row(1), &[1.0, 2.0]);
        rows.row(2)[0] = 5.0;
        assert_eq!(m.into_vec(), vec![0.0, 0.0, 1.0, 2.0, 5.0, 0.0]);
    }

    #[test]
    fn atomic_view_aliases_the_buffer() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(0).copy_from_slice(&[1.5, -2.0]);
        let view = m.atomic_view();
        let mut rows = view.snapshots();
        // A snapshot reads what the owned buffer holds...
        assert_eq!(rows.row(0), &[1.5, -2.0]);
        // ...an unpublished update stays private...
        rows.row(2).copy_from_slice(&[3.0, 4.0]);
        let mut other = view.snapshots();
        assert_eq!(other.row(2), &[0.0, 0.0]);
        // ...and a published one lands in the owned buffer itself.
        rows.publish(2);
        assert_eq!(other.row(2), &[3.0, 4.0]);
        assert_eq!(m.into_vec(), vec![1.5, -2.0, 0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn concurrent_publishes_do_not_tear() {
        // Relaxed 32-bit atomics can lose updates under contention but can
        // never produce a torn or garbage bit pattern: every value a
        // snapshot reads is one some writer published.
        let mut m = Matrix::zeros(1, 4);
        let view = m.atomic_view();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let mut rows = view.snapshots();
                    for _ in 0..200 {
                        rows.row(0).fill(t as f32 + 1.0);
                        rows.publish(0);
                        for &v in rows.row(0).iter() {
                            assert!((1.0..=4.0).contains(&v), "torn read: {v}");
                        }
                    }
                });
            }
        });
        assert!(m.into_vec().iter().all(|v| (1.0..=4.0).contains(v)));
    }

    #[test]
    fn both_stores_add_whole_rows_to_the_same_bits() {
        // Odd length and awkward values: a SIMD body plus a scalar tail,
        // signed zeros, and sums that round.
        let init = [0.25f32, -1.5, 3.0, 1e-8, -0.0, 0.1, -7.75, 2.5e-3, 9.0];
        let v = [1.0f32, 0.5, -3.0, 1.0, 0.0, 0.2, 1e-9, -2.5e-3, -0.0];
        let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for path in darkvec_kernels::available_paths() {
            let mut a = Matrix::zeros(2, init.len());
            a.row_mut(1).copy_from_slice(&init);
            let mut b = Matrix::zeros(2, init.len());
            b.row_mut(1).copy_from_slice(&init);
            let (mut acc_a, mut acc_b) = (v, v);
            let mut rows = a.in_place();
            rows.add_row_into(path, 1, &mut acc_a);
            rows.add_to_row(path, 1, &v);
            let mut rows = b.atomic_view().snapshots();
            rows.add_row_into(path, 1, &mut acc_b);
            rows.add_to_row(path, 1, &v);
            assert_eq!(bits(&acc_a), bits(&acc_b), "{}", path.name());
            assert_eq!(bits(&a.into_vec()), bits(&b.into_vec()), "{}", path.name());
        }
    }
}
