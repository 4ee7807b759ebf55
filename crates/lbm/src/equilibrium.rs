//! Maxwell-Boltzmann equilibrium distribution and macroscopic moments.
//!
//! The second-order equilibrium used by the BGK collision (paper Eq. 1):
//!
//! ```text
//! f_i^eq = w_i ρ (1 + 3 c_i·u + 4.5 (c_i·u)² - 1.5 u·u)
//! ```
//!
//! The moment reductions use a *fixed pairwise (tree) summation order*
//! rather than a left fold: a 19-term serial fold is a chain of 18
//! dependent adds (~4 cycles each of pure latency per moment), while the
//! tree shortens the critical path to ⌈log₂ 19⌉ levels and exposes the
//! independent partial sums to SIMD. The order is deterministic — every
//! call sums in exactly the same association — so all the solver's
//! bit-identity guarantees (serial vs parallel, scalar vs wide lanes, AA
//! vs AB) are unaffected; only the fixed association itself differs from
//! the historical left-to-right fold.

use crate::lattice::Q19;
use crate::real::Real;
use hemocloud_rt::simd::Lane;

/// Fixed-tree sum of 19 lane values: pairwise over the first 16, a small
/// tree over the 3-element tail, one combining add. Deterministic
/// association, ~4x shorter floating-point dependency chain than a left
/// fold. Lane-generic: instantiated at `V = f64` this *is* the historical
/// scalar tree; at a wide lane it runs the same tree per lane, so each
/// lane's bits equal the scalar result.
#[inline(always)]
pub(crate) fn sum19_v<R: Real, V: Lane<R>>(v: &[V; Q19]) -> V {
    let a = ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
    let b = ((v[8] + v[9]) + (v[10] + v[11])) + ((v[12] + v[13]) + (v[14] + v[15]));
    let c = (v[16] + v[17]) + v[18];
    (a + b) + c
}

/// Lane-generic `f_i^eq`: the exact expression tree of the scalar
/// [`equilibrium_d3q19`], evaluated elementwise per lane (no FMA, no
/// reassociation — the constants are splatted, every op is `Lane`'s
/// IEEE elementwise arithmetic).
#[inline(always)]
// `q` indexes four constant tables besides `out`; the counted loop is the kernel's shape.
#[allow(clippy::needless_range_loop)]
pub(crate) fn equilibrium_v<R: Real, V: Lane<R>>(rho: V, ux: V, uy: V, uz: V, out: &mut [V; Q19]) {
    let usq = V::splat(R::from_f64(1.5)) * (ux * ux + uy * uy + uz * uz);
    let one = V::splat(R::ONE);
    let three = V::splat(R::from_f64(3.0));
    let c45 = V::splat(R::from_f64(4.5));
    for q in 0..Q19 {
        let cu = V::splat(R::CXF[q]) * ux + V::splat(R::CYF[q]) * uy + V::splat(R::CZF[q]) * uz;
        out[q] = V::splat(R::W19[q]) * rho * (one + three * cu + c45 * cu * cu - usq);
    }
}

/// Lane-generic density and momentum moments: `(ρ, ρu_x, ρu_y, ρu_z)`.
#[inline(always)]
pub(crate) fn moments_v<R: Real, V: Lane<R>>(f: &[V; Q19]) -> (V, V, V, V) {
    let mut tx = [V::splat(R::ZERO); Q19];
    let mut ty = [V::splat(R::ZERO); Q19];
    let mut tz = [V::splat(R::ZERO); Q19];
    for q in 0..Q19 {
        let v = f[q];
        tx[q] = v * V::splat(R::CXF[q]);
        ty[q] = v * V::splat(R::CYF[q]);
        tz[q] = v * V::splat(R::CZF[q]);
    }
    (
        sum19_v::<R, V>(f),
        sum19_v::<R, V>(&tx),
        sum19_v::<R, V>(&ty),
        sum19_v::<R, V>(&tz),
    )
}

/// Lane-generic density and velocity: `(ρ, u_x, u_y, u_z)`.
#[inline(always)]
pub(crate) fn macroscopics_v<R: Real, V: Lane<R>>(f: &[V; Q19]) -> (V, V, V, V) {
    let (rho, jx, jy, jz) = moments_v::<R, V>(f);
    let inv = V::splat(R::ONE) / rho;
    (rho, jx * inv, jy * inv, jz * inv)
}

/// Compute `f_i^eq` for all 19 directions into `out`. (The `V = f64`
/// instantiation of `equilibrium_v` — same expression tree, same bits,
/// as the pinned tests below verify against literal transcriptions.)
#[inline]
pub fn equilibrium_d3q19(rho: f64, ux: f64, uy: f64, uz: f64, out: &mut [f64; Q19]) {
    equilibrium_v::<f64, f64>(rho, ux, uy, uz, out);
}

/// Density and momentum moments of a distribution: `(ρ, ρu_x, ρu_y, ρu_z)`.
#[inline]
pub fn moments_d3q19(f: &[f64; Q19]) -> (f64, f64, f64, f64) {
    moments_v::<f64, f64>(f)
}

/// Density and velocity of a distribution: `(ρ, u_x, u_y, u_z)`.
#[inline]
pub fn macroscopics_d3q19(f: &[f64; Q19]) -> (f64, f64, f64, f64) {
    macroscopics_v::<f64, f64>(f)
}

#[cfg(test)]
fn sum19(v: &[f64; Q19]) -> f64 {
    sum19_v::<f64, f64>(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::W19;

    #[test]
    fn equilibrium_conserves_mass_and_momentum() {
        let mut f = [0.0; Q19];
        for &(rho, ux, uy, uz) in &[
            (1.0, 0.0, 0.0, 0.0),
            (1.1, 0.05, -0.02, 0.01),
            (0.9, -0.08, 0.03, 0.06),
        ] {
            equilibrium_d3q19(rho, ux, uy, uz, &mut f);
            let (r, jx, jy, jz) = moments_d3q19(&f);
            assert!((r - rho).abs() < 1e-13, "rho");
            assert!((jx - rho * ux).abs() < 1e-13, "jx");
            assert!((jy - rho * uy).abs() < 1e-13, "jy");
            assert!((jz - rho * uz).abs() < 1e-13, "jz");
        }
    }

    #[test]
    fn rest_equilibrium_is_the_weights() {
        let mut f = [0.0; Q19];
        equilibrium_d3q19(1.0, 0.0, 0.0, 0.0, &mut f);
        for q in 0..Q19 {
            assert!((f[q] - W19[q]).abs() < 1e-15);
        }
    }

    #[test]
    fn macroscopics_invert_equilibrium() {
        let mut f = [0.0; Q19];
        equilibrium_d3q19(1.05, 0.03, 0.01, -0.04, &mut f);
        let (rho, ux, uy, uz) = macroscopics_d3q19(&f);
        assert!((rho - 1.05).abs() < 1e-13);
        assert!((ux - 0.03).abs() < 1e-13);
        assert!((uy - 0.01).abs() < 1e-13);
        assert!((uz + 0.04).abs() < 1e-13);
    }

    #[test]
    fn equilibrium_is_positive_at_moderate_velocity() {
        let mut f = [0.0; Q19];
        equilibrium_d3q19(1.0, 0.1, 0.1, 0.1, &mut f);
        assert!(f.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn tree_sum_matches_serial_fold_to_roundoff_and_is_deterministic() {
        // The tree association differs from a left fold by at most a few
        // ulps of accumulated roundoff, and two calls on the same input are
        // bitwise identical (the association is fixed, not data-dependent).
        let mut f = [0.0f64; Q19];
        for (q, v) in f.iter_mut().enumerate() {
            *v = (q as f64 * 0.731).sin() + 1.0;
        }
        let fold: f64 = f.iter().sum();
        let tree = sum19(&f);
        assert!((fold - tree).abs() < 1e-13 * fold.abs());
        assert_eq!(tree.to_bits(), sum19(&f).to_bits());
    }

    #[test]
    fn generic_f64_instantiation_matches_literal_transcription_bitwise() {
        // Pin the lane-generic bodies against a literal re-transcription of
        // the historical scalar expressions: if a refactor ever changes an
        // association or introduces a fused op, this catches it at V = f64.
        use crate::lattice::{CXF, CYF, CZF, W19};
        let (rho, ux, uy, uz) = (1.0734f64, 0.0451, -0.0212, 0.0333);
        let mut out = [0.0f64; Q19];
        equilibrium_d3q19(rho, ux, uy, uz, &mut out);
        let usq = 1.5 * (ux * ux + uy * uy + uz * uz);
        for q in 0..Q19 {
            let cu = CXF[q] * ux + CYF[q] * uy + CZF[q] * uz;
            let want = W19[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - usq);
            assert_eq!(out[q].to_bits(), want.to_bits(), "q={q}");
        }
        let (r, jx, jy, jz) = moments_d3q19(&out);
        let mut tx = [0.0f64; Q19];
        let mut ty = [0.0f64; Q19];
        let mut tz = [0.0f64; Q19];
        for q in 0..Q19 {
            tx[q] = out[q] * CXF[q];
            ty[q] = out[q] * CYF[q];
            tz[q] = out[q] * CZF[q];
        }
        assert_eq!(r.to_bits(), sum19(&out).to_bits());
        assert_eq!(jx.to_bits(), sum19(&tx).to_bits());
        assert_eq!(jy.to_bits(), sum19(&ty).to_bits());
        assert_eq!(jz.to_bits(), sum19(&tz).to_bits());
        let (r2, vx, _, _) = macroscopics_d3q19(&out);
        assert_eq!(r2.to_bits(), r.to_bits());
        assert_eq!(vx.to_bits(), (jx * (1.0 / r)).to_bits());
    }

    #[test]
    fn wide_lanes_match_scalar_bitwise_per_lane() {
        // Four cells with different states through the vector equilibrium +
        // moments: each lane must carry exactly the scalar result.
        use hemocloud_rt::simd::Element;
        let rho = [1.0f64, 1.05, 0.97, 1.101];
        let ux = [0.01f64, -0.03, 0.05, 0.0];
        let uy = [0.0f64, 0.02, -0.01, 0.04];
        let uz = [0.03f64, 0.0, 0.01, -0.02];

        fn check<V: Lane<f64>>(rho: &[f64], ux: &[f64], uy: &[f64], uz: &[f64]) {
            let mut veq = [V::splat(0.0); Q19];
            equilibrium_v::<f64, V>(
                V::load(rho),
                V::load(ux),
                V::load(uy),
                V::load(uz),
                &mut veq,
            );
            let (vr, vx, vy, vz) = macroscopics_v::<f64, V>(&veq);
            let mut buf = [0.0f64; 4];
            for lane in 0..V::WIDTH {
                let mut seq = [0.0f64; Q19];
                equilibrium_d3q19(rho[lane], ux[lane], uy[lane], uz[lane], &mut seq);
                for q in 0..Q19 {
                    veq[q].store(&mut buf);
                    assert_eq!(buf[lane].to_bits(), seq[q].to_bits(), "lane {lane} q {q}");
                }
                let (sr, sx, sy, sz) = macroscopics_d3q19(&seq);
                for (v, s) in [(vr, sr), (vx, sx), (vy, sy), (vz, sz)] {
                    v.store(&mut buf);
                    assert_eq!(buf[lane].to_bits(), s.to_bits(), "lane {lane}");
                }
            }
        }
        check::<<f64 as Element>::Wide>(&rho, &ux, &uy, &uz);
    }
}
