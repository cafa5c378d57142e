//! Cross-path parity: every dispatchable kernel must agree with the
//! scalar reference within 1e-5 relative error, on every path this
//! machine can execute, across awkward lengths (remainder tails) and
//! misaligned sub-slices (SIMD paths must not assume alignment).

use darkvec_kernels::{
    available_paths, axpy_on, dot_i8_on, dot_on, normalize_rows_on, scale_add_on, scale_on,
    sgns_pair_on, squared_norm, Path, Rows, Target,
};

/// Vector lengths exercising every tail case: below one lane, below one
/// 8-wide stride, one-off-a-stride, mid-size, and a prime well past the
/// unrolled 16-element stride.
const LENS: &[usize] = &[1, 7, 31, 50, 63, 257];

/// Byte offsets into an over-allocated buffer, so SIMD loads start off
/// the allocation's natural alignment.
const OFFSETS: &[usize] = &[0, 1, 3];

/// SplitMix64: a tiny seeded generator so this integration test needs no
/// dependencies (the crate under test is std-only).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (2.0 / (1u32 << 24) as f32) - 1.0
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.f32()).collect()
    }

    /// Uniform over the full `i8` range, saturation boundaries included.
    fn vec_i8(&mut self, n: usize) -> Vec<i8> {
        (0..n).map(|_| self.next_u64() as i8).collect()
    }
}

/// Relative-error check at the tolerance the kernels guarantee.
fn assert_close(got: f32, want: f32, what: &str) {
    let tol = 1e-5 * want.abs().max(got.abs()).max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got}, want {want} (tol {tol})"
    );
}

fn assert_slices_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_close(g, w, &format!("{what}[{i}]"));
    }
}

/// Paths to test against the scalar reference.
fn non_scalar_paths() -> Vec<Path> {
    available_paths()
        .into_iter()
        .filter(|&p| p != Path::Scalar)
        .collect()
}

#[test]
fn dot_matches_scalar_on_every_path() {
    let mut rng = Rng(11);
    for &len in LENS {
        for &off in OFFSETS {
            let a = rng.vec(len + off);
            let b = rng.vec(len + off);
            let want = dot_on(Path::Scalar, &a[off..], &b[off..]);
            for path in non_scalar_paths() {
                let got = dot_on(path, &a[off..], &b[off..]);
                assert_close(got, want, &format!("dot len={len} off={off} {path:?}"));
            }
        }
    }
}

/// The quantized dot is all-integer, so parity is *exact* equality — no
/// tolerance — across every path, length tail, and misaligned sub-slice.
#[test]
fn dot_i8_matches_scalar_bit_exactly_on_every_path() {
    let mut rng = Rng(88);
    for &len in LENS {
        for &off in OFFSETS {
            let a = rng.vec_i8(len + off);
            let b = rng.vec_i8(len + off);
            let want = dot_i8_on(Path::Scalar, &a[off..], &b[off..]);
            for path in non_scalar_paths() {
                let got = dot_i8_on(path, &a[off..], &b[off..]);
                assert_eq!(got, want, "dot_i8 len={len} off={off} {path:?}");
            }
        }
    }
}

/// Saturation boundaries: every combination of the extreme codes
/// (±127, and -128 which quantization never emits but the kernel must
/// still handle) accumulated over SIMD-width runs.
#[test]
fn dot_i8_saturation_boundaries() {
    for &len in LENS {
        for (va, vb) in [
            (127i8, 127i8),
            (127, -127),
            (-127, -127),
            (-128, 127),
            (-128, -128),
        ] {
            let a = vec![va; len];
            let b = vec![vb; len];
            let want = len as i32 * i32::from(va) * i32::from(vb);
            for path in available_paths() {
                assert_eq!(
                    dot_i8_on(path, &a, &b),
                    want,
                    "saturation {va}×{vb} len={len} {path:?}"
                );
            }
        }
    }
}

#[test]
fn axpy_matches_scalar_on_every_path() {
    let mut rng = Rng(22);
    for &len in LENS {
        for &off in OFFSETS {
            let x = rng.vec(len + off);
            let y0 = rng.vec(len + off);
            let alpha = rng.f32();
            let mut want = y0.clone();
            axpy_on(Path::Scalar, alpha, &x[off..], &mut want[off..]);
            for path in non_scalar_paths() {
                let mut got = y0.clone();
                axpy_on(path, alpha, &x[off..], &mut got[off..]);
                assert_slices_close(
                    &got[off..],
                    &want[off..],
                    &format!("axpy len={len} off={off} {path:?}"),
                );
            }
        }
    }
}

#[test]
fn scale_matches_scalar_on_every_path() {
    let mut rng = Rng(33);
    for &len in LENS {
        for &off in OFFSETS {
            let y0 = rng.vec(len + off);
            let alpha = rng.f32();
            let mut want = y0.clone();
            scale_on(Path::Scalar, &mut want[off..], alpha);
            for path in non_scalar_paths() {
                let mut got = y0.clone();
                scale_on(path, &mut got[off..], alpha);
                assert_slices_close(
                    &got[off..],
                    &want[off..],
                    &format!("scale len={len} off={off} {path:?}"),
                );
            }
        }
    }
}

#[test]
fn scale_add_matches_scalar_on_every_path() {
    let mut rng = Rng(44);
    for &len in LENS {
        for &off in OFFSETS {
            let x = rng.vec(len + off);
            let y0 = rng.vec(len + off);
            let alpha = rng.f32();
            let mut want = y0.clone();
            scale_add_on(Path::Scalar, &mut want[off..], alpha, &x[off..]);
            for path in non_scalar_paths() {
                let mut got = y0.clone();
                scale_add_on(path, &mut got[off..], alpha, &x[off..]);
                assert_slices_close(
                    &got[off..],
                    &want[off..],
                    &format!("scale_add len={len} off={off} {path:?}"),
                );
            }
        }
    }
}

#[test]
fn normalize_rows_matches_scalar_on_every_path() {
    let mut rng = Rng(55);
    for &dim in LENS {
        let rows = 5;
        let data = rng.vec(rows * dim);
        let mut want = data.clone();
        normalize_rows_on(Path::Scalar, &mut want, dim);
        for path in non_scalar_paths() {
            let mut got = data.clone();
            normalize_rows_on(path, &mut got, dim);
            assert_slices_close(&got, &want, &format!("normalize dim={dim} {path:?}"));
        }
        // Unit norms (except all-zero rows, which stay zero).
        for r in 0..rows {
            let n = squared_norm(&want[r * dim..(r + 1) * dim]).sqrt();
            assert_close(n, 1.0, &format!("row {r} norm, dim={dim}"));
        }
    }
}

#[test]
fn zero_rows_survive_normalization() {
    for path in available_paths() {
        let mut data = vec![0.0f32; 3 * 7];
        normalize_rows_on(path, &mut data, 7);
        assert!(data.iter().all(|&x| x == 0.0), "{path:?}");
    }
}

/// Row-major rows updated in place — the one-thread trainer's store.
struct Flat<'a> {
    data: &'a mut [f32],
    dim: usize,
}

impl Rows for Flat<'_> {
    fn row(&mut self, t: usize) -> &mut [f32] {
        &mut self.data[t * self.dim..(t + 1) * self.dim]
    }

    fn publish(&mut self, _t: usize) {}
}

/// Dimensions for the fused kernel: one lane, short of / exactly / one
/// past an 8-wide stride, two strides, the paper's 50, and one short of
/// a 64-wide run.
const SGNS_DIMS: &[usize] = &[1, 7, 8, 9, 16, 50, 63];

/// A positive target, negatives, and a row drawn twice (as the unigram
/// table can), so a later target reads an earlier target's update.
const SGNS_TARGETS: &[Target] = &[
    Target { row: 2, label: 1.0 },
    Target { row: 0, label: 0.0 },
    Target { row: 3, label: 0.0 },
    Target { row: 2, label: 0.0 },
];

fn sgns_gain(f: f32, label: f32) -> f32 {
    (label - 1.0 / (1.0 + (-f).exp())) * 0.05
}

/// Runs the fused kernel on `path` over misaligned sub-slices (`off`
/// elements into over-allocated buffers); returns input, gradient and
/// output rows afterwards.
fn run_sgns(
    path: Path,
    input0: &[f32],
    rows0: &[f32],
    dim: usize,
    off: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut input = input0.to_vec();
    let mut neu1e = vec![7.0f32; dim + off];
    let mut rows = rows0.to_vec();
    let mut out = Flat {
        data: &mut rows[off..],
        dim,
    };
    sgns_pair_on(
        path,
        &mut input[off..],
        &mut neu1e[off..],
        SGNS_TARGETS,
        &mut out,
        sgns_gain,
    );
    (
        input[off..].to_vec(),
        neu1e[off..].to_vec(),
        rows[off..].to_vec(),
    )
}

#[test]
fn sgns_pair_matches_scalar_on_every_path() {
    let mut rng = Rng(66);
    for &dim in SGNS_DIMS {
        for &off in OFFSETS {
            let input0 = rng.vec(dim + off);
            let rows0 = rng.vec(4 * dim + off);
            let want = run_sgns(Path::Scalar, &input0, &rows0, dim, off);
            for path in non_scalar_paths() {
                let got = run_sgns(path, &input0, &rows0, dim, off);
                let what = format!("sgns dim={dim} off={off} {path:?}");
                assert_slices_close(&got.0, &want.0, &format!("{what}: input"));
                assert_slices_close(&got.1, &want.1, &format!("{what}: neu1e"));
                assert_slices_close(&got.2, &want.2, &format!("{what}: rows"));
            }
        }
    }
}

/// Fusing must not change a path's bits: the kernel equals the same
/// `dot_on`/`axpy_on` calls made one by one on that path.
#[test]
fn sgns_pair_is_bit_identical_to_unfused_calls_on_every_path() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = Rng(99);
    for &dim in SGNS_DIMS {
        for &off in OFFSETS {
            let input0 = rng.vec(dim + off);
            let rows0 = rng.vec(4 * dim + off);
            for path in available_paths() {
                let got = run_sgns(path, &input0, &rows0, dim, off);
                let mut input = input0[off..].to_vec();
                let mut rows = rows0[off..].to_vec();
                let mut neu1e = vec![0.0f32; dim];
                for t in SGNS_TARGETS {
                    let row = &mut rows[t.row * dim..(t.row + 1) * dim];
                    let g = sgns_gain(dot_on(path, row, &input), t.label);
                    axpy_on(path, g, row, &mut neu1e);
                    axpy_on(path, g, &input, row);
                }
                axpy_on(path, 1.0, &neu1e, &mut input);
                let what = format!("sgns dim={dim} off={off} {path:?}");
                assert_eq!(bits(&got.0), bits(&input), "{what}: input");
                assert_eq!(bits(&got.1), bits(&neu1e), "{what}: neu1e");
                assert_eq!(bits(&got.2), bits(&rows), "{what}: rows");
            }
        }
    }
}

#[test]
#[should_panic(expected = "output row length mismatch")]
fn sgns_pair_rejects_short_rows() {
    let mut rows = vec![0.0f32; 8];
    let mut out = Flat {
        data: &mut rows,
        dim: 4,
    };
    sgns_pair_on(
        Path::Portable,
        &mut [0.0; 8],
        &mut [0.0; 8],
        &[Target { row: 0, label: 1.0 }],
        &mut out,
        sgns_gain,
    );
}

/// Each path is internally deterministic: two runs over the same input
/// produce bit-identical results (the per-path reproducibility DESIGN.md
/// promises; cross-path bit-equality is explicitly *not* promised).
#[test]
fn each_path_is_bitwise_deterministic() {
    let mut rng = Rng(77);
    let a = rng.vec(257);
    let b = rng.vec(257);
    for path in available_paths() {
        let d1 = dot_on(path, &a, &b);
        let d2 = dot_on(path, &a, &b);
        assert_eq!(d1.to_bits(), d2.to_bits(), "{path:?}");
    }
}
