//! The fused Word2Vec update: one call per training pair.
//!
//! A skip-gram pair (or a CBOW centre) trains its input vector against a
//! short list of output rows — the positive target plus the negative
//! samples, or the Huffman nodes on the target's path. Each target costs
//! one `dot` and two `axpy`s, and the input takes the accumulated gradient
//! at the end: up to 19 kernel calls per pair at the default
//! `negative = 5`. Dispatched one by one, none of them can inline (each
//! SIMD body is a `#[target_feature]` fn behind the runtime `match`), so
//! at `dim = 50` the call overhead rivals the arithmetic.
//!
//! [`pair`] is that whole loop, written once over the `dot` and `axpy`
//! of a path and instantiated inside each path's own feature context,
//! where those bodies inline. Every per-path result keeps its bits: the
//! loop performs the same kernel calls in the same order on the same
//! operands as the unfused sequence, and inlining does not reassociate
//! floating-point arithmetic.

/// One output row the fused kernel trains the input against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Target {
    /// Row index in the output matrix.
    pub row: usize,
    /// Training label: `1` for the positive target and `0` for a negative
    /// sample; `1 − code bit` for a hierarchical-softmax node.
    pub label: f32,
}

/// How the fused kernel reaches the rows of a matrix.
///
/// A store either hands out the matrix's own storage (then
/// [`publish`](Rows::publish) has nothing to do) or a private snapshot of
/// the row, which `publish` writes back. The kernel calls `publish(t)`
/// right after it has updated the row that `row(t)` returned, and never
/// holds two rows at once.
pub trait Rows {
    /// Row `t`, to read and update.
    fn row(&mut self, t: usize) -> &mut [f32];
    /// Makes the update to the row last returned by `row(t)` visible in
    /// the matrix.
    fn publish(&mut self, t: usize);
}

/// The fused per-pair update over a path's `dot` and `axpy`:
///
/// ```text
/// neu1e = 0
/// for each target t:  f = row_t · input
///                     g = gain(f, label_t)
///                     neu1e += g · row_t
///                     row_t += g · input      (then publish row_t)
/// input += neu1e
/// ```
///
/// Leaves the input-side gradient in `neu1e` (CBOW spreads it over the
/// context rows). Always inlined, so it compiles inside the caller's
/// target-feature context.
///
/// # Panics
/// Panics if `neu1e` or a row `out` hands out differs in length from
/// `input`: the SIMD `dot`/`axpy` bodies read both operands over
/// `input`'s length.
#[inline(always)]
pub(crate) fn pair<R, D, A, G>(
    dot: D,
    axpy: A,
    input: &mut [f32],
    neu1e: &mut [f32],
    targets: &[Target],
    out: &mut R,
    gain: G,
) where
    R: Rows,
    D: Fn(&[f32], &[f32]) -> f32,
    A: Fn(f32, &[f32], &mut [f32]),
    G: Fn(f32, f32) -> f32,
{
    assert_eq!(neu1e.len(), input.len(), "gradient length mismatch");
    neu1e.fill(0.0);
    for t in targets {
        let row = out.row(t.row);
        assert_eq!(row.len(), input.len(), "output row length mismatch");
        let f = dot(row, input);
        let g = gain(f, t.label);
        axpy(g, row, neu1e);
        axpy(g, input, row);
        out.publish(t.row);
    }
    axpy(1.0, neu1e, input);
}
