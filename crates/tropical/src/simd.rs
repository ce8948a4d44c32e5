//! Explicitly vectorized max-plus kernels on stable Rust.
//!
//! `std::simd` is nightly-only, so these kernels use the *lane-array* idiom
//! instead: the hot loop walks fixed-width chunks ([`LANES`] elements) via
//! `chunks_exact`, whose constant chunk length lets LLVM elide every bounds
//! check and emit packed `vaddps` + `vmaxps` — the same code `std::simd`
//! would produce, minus the nightly requirement. A scalar remainder loop
//! handles the tail, so any slice length is accepted.
//!
//! # Bit-identity contract
//!
//! Every kernel here computes *the same scalar expression in the same order*
//! as its scalar reference in [`crate::scalar`]:
//!
//! * [`mp_axpy_lanes`] per element is exactly `(a + x[i]).max(y[i])` — the
//!   body of [`crate::scalar::mp_axpy`].
//! * [`mp_axpy4`] per element is exactly four sequential `mp_axpy` steps
//!   fused into one pass over `y`.
//!
//! IEEE-754 addition and `max` are deterministic per lane, so vectorizing
//! identical expressions yields identical bits — including the sentinel
//! semantics the solver depends on: `-∞ + x == -∞` (annihilator) and
//! `max(-∞, y) == y` (identity), with no NaN in the score domain (no `+∞`
//! ever enters, so `-∞ + +∞` cannot occur). The property suite in
//! `tests/simd_identity.rs` pins this against adversarial values.

/// Vector width of the lane-array kernels, in `f32` elements.
///
/// 8 lanes = 32 B = one AVX2 register / half an AVX-512 register / two SSE2
/// registers. The kernels are correct for any width; 8 measured fastest at
/// the default `x86-64` target while leaving the compiler free to widen.
pub const LANES: usize = 8;

/// Lane-array form of [`crate::scalar::mp_axpy`]:
/// `y[i] = max(a + x[i], y[i])`, bit-identical to the scalar loop.
#[inline]
pub fn mp_axpy_lanes(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "mp_axpy: slice lengths differ");
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact_mut(LANES);
    for (yk, xk) in (&mut yc).zip(&mut xc) {
        // Constant-length chunks: LLVM proves `l < LANES == yk.len()` and
        // emits one packed add + max per LANES elements.
        for l in 0..LANES {
            yk[l] = (a + xk[l]).max(yk[l]);
        }
    }
    for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi = (a + xi).max(*yi);
    }
}

/// Four fused max-plus axpy streams into one destination row:
///
/// ```text
/// y[i] = max(y[i], a0 + x0[i], a1 + x1[i], a2 + x2[i], a3 + x3[i])
/// ```
///
/// evaluated as four *sequential* `mp_axpy` steps per element, so the result
/// is bit-identical to calling [`crate::scalar::mp_axpy`] four times — but
/// with one load/store of `y` instead of four, lifting arithmetic intensity
/// from 2/12 to 8/24 FLOP/byte. This is the register-blocked inner kernel of
/// the `R0` reduction: four consecutive `k` steps share the `y` register
/// tile.
#[inline]
pub fn mp_axpy4(a: [f32; 4], x: [&[f32]; 4], y: &mut [f32]) {
    let [x0, x1, x2, x3] = x;
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "mp_axpy4: slice lengths differ"
    );
    let mut yc = y.chunks_exact_mut(LANES);
    let mut c0 = x0.chunks_exact(LANES);
    let mut c1 = x1.chunks_exact(LANES);
    let mut c2 = x2.chunks_exact(LANES);
    let mut c3 = x3.chunks_exact(LANES);
    for ((((yk, k0), k1), k2), k3) in (&mut yc)
        .zip(&mut c0)
        .zip(&mut c1)
        .zip(&mut c2)
        .zip(&mut c3)
    {
        for l in 0..LANES {
            let mut v = yk[l];
            v = (a[0] + k0[l]).max(v);
            v = (a[1] + k1[l]).max(v);
            v = (a[2] + k2[l]).max(v);
            v = (a[3] + k3[l]).max(v);
            yk[l] = v;
        }
    }
    let (r0, r1, r2, r3) = (
        c0.remainder(),
        c1.remainder(),
        c2.remainder(),
        c3.remainder(),
    );
    for (i, yi) in yc.into_remainder().iter_mut().enumerate() {
        let mut v = *yi;
        v = (a[0] + r0[i]).max(v);
        v = (a[1] + r1[i]).max(v);
        v = (a[2] + r2[i]).max(v);
        v = (a[3] + r3[i]).max(v);
        *yi = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mp_axpy;

    fn ref_axpy4(a: [f32; 4], x: [&[f32]; 4], y: &mut [f32]) {
        for (ai, xi) in a.iter().zip(x.iter()) {
            mp_axpy(*ai, xi, y);
        }
    }

    #[test]
    fn lanes_matches_scalar_all_lengths() {
        for n in 0..4 * LANES + 3 {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let mut y: Vec<f32> = (0..n).map(|i| 2.0 - (i as f32) * 0.5).collect();
            let mut expect = y.clone();
            mp_axpy(1.5, &x, &mut expect);
            mp_axpy_lanes(1.5, &x, &mut y);
            assert_eq!(y, expect, "n={n}");
        }
    }

    #[test]
    fn lanes_neg_inf_semantics() {
        let x = [f32::NEG_INFINITY, 1.0, f32::NEG_INFINITY, 2.0];
        let mut y = [0.0f32, f32::NEG_INFINITY, f32::NEG_INFINITY, 10.0];
        let mut expect = y;
        mp_axpy(3.0, &x, &mut expect);
        mp_axpy_lanes(3.0, &x, &mut y);
        assert_eq!(y.map(f32::to_bits), expect.map(f32::to_bits));
        // -inf broadcast is the identity, even against -inf lanes.
        let mut y2 = y;
        mp_axpy_lanes(f32::NEG_INFINITY, &x, &mut y2);
        assert_eq!(y2.map(f32::to_bits), y.map(f32::to_bits));
    }

    #[test]
    fn axpy4_matches_four_sequential_axpys() {
        for n in 0..3 * LANES + 5 {
            let mk = |s: usize| -> Vec<f32> {
                (0..n)
                    .map(|i| {
                        if (i + s) % 5 == 0 {
                            f32::NEG_INFINITY
                        } else {
                            (i as f32) * 0.5 - s as f32
                        }
                    })
                    .collect()
            };
            let (x0, x1, x2, x3) = (mk(0), mk(1), mk(2), mk(3));
            let a = [0.5, f32::NEG_INFINITY, -1.0, 2.0];
            let mut y: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            let mut expect = y.clone();
            ref_axpy4(a, [&x0, &x1, &x2, &x3], &mut expect);
            mp_axpy4(a, [&x0, &x1, &x2, &x3], &mut y);
            let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(yb, eb, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn lanes_length_mismatch_panics() {
        let x = [0.0f32; 3];
        let mut y = [0.0f32; 4];
        mp_axpy_lanes(0.0, &x, &mut y);
    }

    #[test]
    #[should_panic(expected = "mp_axpy4: slice lengths differ")]
    fn axpy4_length_mismatch_panics() {
        let x = [0.0f32; 3];
        let full = [0.0f32; 4];
        let mut y = [0.0f32; 4];
        mp_axpy4([0.0; 4], [&full, &x, &full, &full], &mut y);
    }
}
