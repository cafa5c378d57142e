//! NEON kernels for `aarch64`.
//!
//! Mirrors `x86.rs` with 128-bit lanes: two `vfmaq_f32` accumulators for
//! `dot` (hiding FMA latency), plain fused loops for the element-wise
//! kernels. The dispatcher only calls in after
//! `is_aarch64_feature_detected!("neon")`, which is the safety contract
//! for the `target_feature` functions below. `sgns_pair` instantiates
//! the fused Word2Vec loop ([`crate::sgns`]) in this feature context.

use crate::sgns::{self, Rows, Target};
use core::arch::aarch64::*;

/// Inner product with two FMA accumulators.
///
/// # Safety
/// Caller must ensure (1) NEON support — the dispatcher checks
/// `is_aarch64_feature_detected!("neon")` first — and (2)
/// `b.len() >= a.len()`: both pointers are read at offsets `0..a.len()`.
/// `vld1q` loads are unaligned-tolerant, so `&[f32]`'s own alignment
/// suffices. Read-only.
#[inline]
#[target_feature(enable = "neon")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        i += 8;
    }
    if i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        i += 4;
    }
    let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        sum += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    sum
}

/// Quantized inner product: widening `i8×i8→i16` multiplies
/// (`vmull_s8`), pairwise-accumulated into `i32` lanes (`vpadalq_s16`).
/// All-integer arithmetic, so the result is bit-identical to the scalar
/// reference.
///
/// # Safety
/// Caller must ensure NEON support and `b.len() >= a.len()` — both
/// pointers are read at offsets `0..a.len()`. Unaligned-tolerant loads;
/// read-only.
#[target_feature(enable = "neon")]
pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_s32(0);
    let mut acc1 = vdupq_n_s32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        let va = vld1q_s8(pa.add(i));
        let vb = vld1q_s8(pb.add(i));
        acc0 = vpadalq_s16(acc0, vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
        acc1 = vpadalq_s16(acc1, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
        i += 16;
    }
    if i + 8 <= n {
        acc0 = vpadalq_s16(acc0, vmull_s8(vld1_s8(pa.add(i)), vld1_s8(pb.add(i))));
        i += 8;
    }
    let mut sum = vaddvq_s32(vaddq_s32(acc0, acc1));
    while i < n {
        sum += i32::from(*pa.add(i)) * i32::from(*pb.add(i));
        i += 1;
    }
    sum
}

/// `y += alpha · x`.
///
/// # Safety
/// Caller must ensure NEON support and `x.len() >= y.len()` — both are
/// accessed at offsets `0..y.len()`. Borrow exclusivity rules out
/// `x`/`y` overlap; loads/stores are unaligned-tolerant.
#[inline]
#[target_feature(enable = "neon")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = vdupq_n_f32(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        let r = vfmaq_f32(vld1q_f32(py.add(i)), va, vld1q_f32(px.add(i)));
        vst1q_f32(py.add(i), r);
        i += 4;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

/// `y *= alpha`.
///
/// # Safety
/// Caller must ensure NEON support; accesses stay inside `y` and the
/// loads/stores are unaligned-tolerant, so feature support is the whole
/// contract.
#[target_feature(enable = "neon")]
pub unsafe fn scale(y: &mut [f32], alpha: f32) {
    let n = y.len();
    let py = y.as_mut_ptr();
    let va = vdupq_n_f32(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        vst1q_f32(py.add(i), vmulq_f32(va, vld1q_f32(py.add(i))));
        i += 4;
    }
    while i < n {
        *py.add(i) *= alpha;
        i += 1;
    }
}

/// `y = alpha · y + x`.
///
/// # Safety
/// Caller must ensure NEON support and `x.len() >= y.len()` — both are
/// accessed at offsets `0..y.len()`. No aliasing (borrow exclusivity),
/// no alignment contract (unaligned-tolerant loads/stores).
#[target_feature(enable = "neon")]
pub unsafe fn scale_add(y: &mut [f32], alpha: f32, x: &[f32]) {
    let n = y.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let va = vdupq_n_f32(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        let r = vfmaq_f32(vld1q_f32(px.add(i)), va, vld1q_f32(py.add(i)));
        vst1q_f32(py.add(i), r);
        i += 4;
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
/// Caller must ensure NEON support. The lengths `dot` and `axpy` rely
/// on are checked by the loop itself, which panics unless `neu1e` and
/// every row `out` hands out are as long as `input`.
#[target_feature(enable = "neon")]
pub unsafe fn sgns_pair<R: Rows, G: Fn(f32, f32) -> f32>(
    input: &mut [f32],
    neu1e: &mut [f32],
    targets: &[Target],
    out: &mut R,
    gain: G,
) {
    sgns::pair(
        // SAFETY: the closures inherit this fn's NEON context, whose
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
