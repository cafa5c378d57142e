//! AVX2 + FMA kernels for `x86_64`.
//!
//! Every function here carries `#[target_feature(enable = "avx2", enable =
//! "fma")]` and is therefore `unsafe fn`: the dispatcher in `lib.rs` only
//! reaches them after `is_x86_feature_detected!` confirmed both features,
//! which is exactly the safety contract.
//!
//! `dot` keeps two 256-bit accumulators so consecutive FMAs target
//! different registers — a single accumulator serialises on the ~4-cycle
//! FMA latency and caps throughput at ¼ of what the two FMA ports sustain.
//! The horizontal sum performs the same pairwise tree as
//! [`crate::reduce8`], keeping the reduction order a property of the path,
//! not the caller.
//!
//! `sgns_pair` instantiates the fused Word2Vec loop ([`crate::sgns`])
//! inside this feature context, so `dot` and `axpy` inline into it.

use crate::sgns::{self, Rows, Target};
use std::arch::x86_64::*;

/// Pairwise tree sum of 8 lanes, matching [`crate::reduce8`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA (`#[target_feature]`
/// makes calling this UB otherwise). Pure register math — no memory
/// access, no alignment or length requirements.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum256(v: __m256) -> f32 {
    // [l0+l4, l1+l5, l2+l6, l3+l7]
    let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    // [q0+q2, q1+q3, ..]
    let s = _mm_add_ps(q, _mm_movehl_ps(q, q));
    // (q0+q2) + (q1+q3)
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01)))
}

/// Inner product with two FMA accumulators.
///
/// # Safety
/// Caller must ensure (1) the CPU supports AVX2+FMA — the dispatcher in
/// `lib.rs` checks `is_x86_feature_detected!` first — and (2)
/// `b.len() >= a.len()`: both pointers are read at offsets `0..a.len()`.
/// All loads are `loadu` (unaligned-tolerant), so the slices impose no
/// alignment requirement beyond `f32`'s own, which `&[f32]` guarantees.
/// `a` and `b` are shared borrows; nothing is written.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
    while i < n {
        sum += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    sum
}

/// Lane sum of 8 packed i32s. Integer adds are associative, so the
/// shuffle order is irrelevant for the result — unlike [`hsum256`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA. Pure register math —
/// no memory access.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum256_epi32(v: __m256i) -> i32 {
    let q = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_add_epi32(q, _mm_unpackhi_epi64(q, q));
    _mm_cvtsi128_si32(_mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01)))
}

/// Quantized inner product: sign-extend 16 `i8`s to `i16`, multiply-add
/// adjacent pairs into `i32` (`pmaddwd`), accumulate in 8 `i32` lanes.
/// `i16·i16` products fit `i32` even at the ±127 saturation boundary, so
/// the result is exact and bit-identical to the scalar reference.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA and that
/// `b.len() >= a.len()` — both pointers are read at offsets
/// `0..a.len()`. Loads are `loadu` (unaligned-tolerant); `&[i8]` has no
/// extra alignment to violate. Read-only.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i).cast()));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i).cast()));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
        let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i + 16).cast()));
        let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i + 16).cast()));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
        i += 32;
    }
    if i + 16 <= n {
        let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i).cast()));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i).cast()));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
        i += 16;
    }
    let mut sum = hsum256_epi32(_mm256_add_epi32(acc0, acc1));
    while i < n {
        sum += i32::from(*pa.add(i)) * i32::from(*pb.add(i));
        i += 1;
    }
    sum
}

/// `y += alpha · x`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA and that
/// `x.len() >= y.len()` — both are accessed at offsets `0..y.len()`.
/// `x` and `y` cannot alias (`&`/`&mut` exclusivity already forbids
/// overlap). Unaligned loads/stores throughout; no alignment contract.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
        _mm256_storeu_ps(py.add(i), r);
        i += 8;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

/// `y *= alpha`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA. Accesses stay inside
/// `y` (offsets `0..y.len()`), loads/stores are unaligned-tolerant, and
/// `&mut` exclusivity rules out aliasing — feature support is the whole
/// contract.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale(y: &mut [f32], alpha: f32) {
    let n = y.len();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(py.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(py.add(i))));
        i += 8;
    }
    while i < n {
        *py.add(i) *= alpha;
        i += 1;
    }
}

/// `y = alpha · y + x`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA and that
/// `x.len() >= y.len()` — both are accessed at offsets `0..y.len()`.
/// No aliasing (borrow exclusivity) and no alignment contract (`loadu`/
/// `storeu`).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale_add(y: &mut [f32], alpha: f32, x: &[f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(py.add(i)), _mm256_loadu_ps(px.add(i)));
        _mm256_storeu_ps(py.add(i), r);
        i += 8;
    }
    while i < n {
        *py.add(i) = alpha * *py.add(i) + *px.add(i);
        i += 1;
    }
}

/// The fused per-pair Word2Vec update ([`crate::sgns::pair`]) over this
/// path's [`dot`] and [`axpy`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2+FMA. The lengths `dot` and
/// `axpy` rely on are checked by the loop itself, which panics unless
/// `neu1e` and every row `out` hands out are as long as `input`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sgns_pair<R: Rows, G: Fn(f32, f32) -> f32>(
    input: &mut [f32],
    neu1e: &mut [f32],
    targets: &[Target],
    out: &mut R,
    gain: G,
) {
    sgns::pair(
        // SAFETY: the closures inherit this fn's AVX2+FMA context, whose
        // support is the caller's contract; `pair` asserts both operands
        // have `input`'s length before every call.
        |a, b| unsafe { dot(a, b) },
        // SAFETY: as above — feature support from the caller, equal
        // lengths asserted by `pair`.
        |alpha, x, y| unsafe { axpy(alpha, x, y) },
        input,
        neu1e,
        targets,
        out,
        gain,
    );
}
