//! The element type the kernels are generic over: `f64` or `f32`.
//!
//! [`Real`] bundles what a distribution element must provide — the D3Q19
//! constant tables at its own precision, widening/narrowing conversions,
//! and (via the [`hemocloud_rt::simd::Element`] supertrait) its wide SIMD
//! lane type. Because every scalar float is itself a `WIDTH = 1`
//! [`hemocloud_rt::simd::Lane`], one lane-generic kernel body serves the
//! scalar f64 path (bit-for-bit the historical kernel), the scalar f32
//! path, and both vector paths.
//!
//! The f32 tables are the f64 tables rounded once (round-to-nearest) at
//! compile time; the velocity components are small integers, so only the
//! weights (1/3, 1/18, 1/36) actually round.

use crate::lattice::{CXF, CXF32, CYF, CYF32, CZF, CZF32, Q19, W19, W19_F32};
use hemocloud_rt::simd::Element;

/// A floating-point distribution element (`f64` or `f32`).
pub trait Real: Element + PartialOrd + std::fmt::Debug + std::fmt::Display {
    /// D3Q19 quadrature weights at this precision.
    const W19: [Self; Q19];
    /// Velocity x-components at this precision (exact).
    const CXF: [Self; Q19];
    /// Velocity y-components at this precision (exact).
    const CYF: [Self; Q19];
    /// Velocity z-components at this precision (exact).
    const CZF: [Self; Q19];
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Round an f64 to this precision (identity for f64).
    fn from_f64(x: f64) -> Self;
    /// Widen to f64 (exact for both implementors).
    fn to_f64(self) -> f64;
    /// Whether the value is finite (readout sanity checks).
    fn is_finite(self) -> bool;
}

impl Real for f64 {
    const W19: [f64; Q19] = W19;
    const CXF: [f64; Q19] = CXF;
    const CYF: [f64; Q19] = CYF;
    const CZF: [f64; Q19] = CZF;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Real for f32 {
    const W19: [f32; Q19] = W19_F32;
    const CXF: [f32; Q19] = CXF32;
    const CYF: [f32; Q19] = CYF32;
    const CZF: [f32; Q19] = CZF32;
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    #[inline(always)]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_tables_are_the_rounded_f64_tables() {
        for q in 0..Q19 {
            assert_eq!(<f32 as Real>::W19[q], W19[q] as f32);
            // Velocity components are -1/0/1: exact in both precisions.
            assert_eq!(<f32 as Real>::CXF[q] as f64, CXF[q]);
            assert_eq!(<f32 as Real>::CYF[q] as f64, CYF[q]);
            assert_eq!(<f32 as Real>::CZF[q] as f64, CZF[q]);
        }
        let s: f32 = <f32 as Real>::W19.iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "f32 weights sum to {s}");
    }

    #[test]
    fn conversions_round_trip_exactly_for_f32_values() {
        for v in [0.25f32, -1.5, 1.0 / 3.0, 1e-20, 3.4e38] {
            assert_eq!(<f32 as Real>::from_f64(v.to_f64()), v);
        }
        assert_eq!(<f64 as Real>::from_f64(0.1), 0.1);
        assert!(Real::is_finite(1.0f32) && !Real::is_finite(f32::INFINITY));
    }
}
