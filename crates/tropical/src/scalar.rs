//! Scalar max-plus helpers on `f32`.
//!
//! `BPMax` stores scores in single precision ("we use single-precision storage
//! to reduce the memory footprint of `BPMax`" — §IV.A). These helpers define
//! the handful of scalar idioms the kernels are written in, so the hot loops
//! stay uniform and auto-vectorizable.

/// `max(acc, a + b)` — one semiring fused multiply-add, 2 FLOPs.
#[inline(always)]
pub fn mp_fma(acc: f32, a: f32, b: f32) -> f32 {
    acc.max(a + b)
}

/// Max of a slice in the max-plus sense (`-∞` for an empty slice).
#[inline]
pub fn mp_sum(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// In-place vector update `y[i] = max(a + x[i], y[i])` over paired slices.
///
/// This is the paper's streaming access pattern (`Y = max(a + X, Y)`): one
/// scalar broadcast, one load from each of `x` and `y`, one store to `y`;
/// 2 FLOPs per element, arithmetic intensity `2 / (3 × 4 B) = 1/6` FLOP/byte.
///
/// The loop body LLVM auto-vectorizes to `vaddps` + `vmaxps`; it is also
/// the reference implementation the explicit lane-array kernels of
/// [`crate::simd`] are tested bit-identical against
/// (`tests/simd_identity.rs`).
#[inline]
pub fn mp_axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "mp_axpy: slice lengths differ");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = (a + xi).max(*yi);
    }
}

/// `mp_axpy` over a sub-range, used by tiled kernels that update a row
/// segment `y[lo..hi]` from `x[lo..hi]`.
#[inline]
pub fn mp_axpy_range(a: f32, x: &[f32], y: &mut [f32], lo: usize, hi: usize) {
    mp_axpy(a, &x[lo..hi], &mut y[lo..hi]);
}

/// Reduce `max(acc, a + x[i])` over a slice without writing anything —
/// the read-only flavour used when a reduction result is consumed
/// immediately instead of being stored.
#[inline]
pub fn mp_axpy_reduce(a: f32, x: &[f32]) -> f32 {
    let mut acc = f32::NEG_INFINITY;
    for &xi in x {
        acc = acc.max(a + xi);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_picks_larger() {
        assert_eq!(mp_fma(5.0, 1.0, 2.0), 5.0);
        assert_eq!(mp_fma(1.0, 1.0, 2.0), 3.0);
        assert_eq!(mp_fma(f32::NEG_INFINITY, 1.0, 2.0), 3.0);
    }

    #[test]
    fn sum_of_empty_is_neg_inf() {
        assert_eq!(mp_sum(&[]), f32::NEG_INFINITY);
        assert_eq!(mp_sum(&[1.0, -2.0, 3.0]), 3.0);
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        let x = [1.0f32, -1.0, 0.5, f32::NEG_INFINITY];
        let mut y = [0.0f32, 1.0, 2.0, 3.0];
        let mut expect = y;
        for i in 0..x.len() {
            expect[i] = expect[i].max(2.0 + x[i]);
        }
        mp_axpy(2.0, &x, &mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn axpy_neg_inf_alpha_is_identity() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [4.0f32, 5.0, 6.0];
        let before = y;
        mp_axpy(f32::NEG_INFINITY, &x, &mut y);
        assert_eq!(y, before);
    }

    #[test]
    fn axpy_range_only_touches_range() {
        let x = [10.0f32; 6];
        let mut y = [0.0f32; 6];
        mp_axpy_range(0.0, &x, &mut y, 2, 4);
        assert_eq!(y, [0.0, 0.0, 10.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn axpy_reduce_matches_axpy_then_max() {
        let x = [1.0f32, 7.0, -3.0];
        let mut y = [f32::NEG_INFINITY; 3];
        mp_axpy(2.0, &x, &mut y);
        let expect = y.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(mp_axpy_reduce(2.0, &x), expect);
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn axpy_length_mismatch_panics() {
        let x = [0.0f32; 3];
        let mut y = [0.0f32; 4];
        mp_axpy(0.0, &x, &mut y);
    }
}
