//! Lattice velocity sets.
//!
//! HARVEY and the proxy app use the standard **D3Q19** discretization
//! (paper §II-C); its tables are the ones the kernels hardcode. The number
//! of distributions per point, a first-order term of Eq. 9, is
//! [`crate::kernel::KernelConfig::q`].

/// Number of discrete velocities in D3Q19.
pub const Q19: usize = 19;

/// D3Q19 velocity vectors. Index 0 is the rest velocity; directions `2k-1`
/// and `2k` are opposites, so [`opposite`] is a closed form.
pub const C19: [(i32, i32, i32); Q19] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// D3Q19 quadrature weights: 1/3 for rest, 1/18 for the 6 axis directions,
/// 1/36 for the 12 edge directions.
pub const W19: [f64; Q19] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// The x-components of [`C19`] as `f64` (exact integer conversions),
/// precomputed so the hot kernels' inner direction loops multiply against
/// flat `f64` tables instead of converting tuple fields — the form LLVM
/// vectorizes cleanly.
pub const CXF: [f64; Q19] = c19_component(0);
/// The y-components of [`C19`] as `f64`.
pub const CYF: [f64; Q19] = c19_component(1);
/// The z-components of [`C19`] as `f64`.
pub const CZF: [f64; Q19] = c19_component(2);

const fn c19_component(axis: usize) -> [f64; Q19] {
    let mut a = [0.0; Q19];
    let mut q = 0;
    while q < Q19 {
        let (x, y, z) = C19[q];
        a[q] = match axis {
            0 => x,
            1 => y,
            _ => z,
        } as f64;
        q += 1;
    }
    a
}

/// [`W19`] narrowed to f32 (round-to-nearest once per weight) — the
/// quadrature table the single-precision kernels use.
pub const W19_F32: [f32; Q19] = narrow19(W19);
/// [`CXF`] as f32 (exact: components are -1/0/1).
pub const CXF32: [f32; Q19] = narrow19(CXF);
/// [`CYF`] as f32 (exact).
pub const CYF32: [f32; Q19] = narrow19(CYF);
/// [`CZF`] as f32 (exact).
pub const CZF32: [f32; Q19] = narrow19(CZF);

const fn narrow19(a: [f64; Q19]) -> [f32; Q19] {
    let mut out = [0.0f32; Q19];
    let mut q = 0;
    while q < Q19 {
        out[q] = a[q] as f32;
        q += 1;
    }
    out
}

/// Index of the direction opposite to `q` in [`C19`].
#[inline]
pub const fn opposite(q: usize) -> usize {
    if q == 0 {
        0
    } else if q % 2 == 1 {
        q + 1
    } else {
        q - 1
    }
}

/// Lattice sound speed squared (`c_s² = 1/3` in lattice units), shared by
/// all DdQq models used here.
pub const CS2: f64 = 1.0 / 3.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q19_weights_sum_to_one() {
        let s: f64 = W19.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn q19_velocities_sum_to_zero() {
        let (sx, sy, sz) = C19
            .iter()
            .fold((0, 0, 0), |(ax, ay, az), &(x, y, z)| (ax + x, ay + y, az + z));
        assert_eq!((sx, sy, sz), (0, 0, 0));
    }

    #[test]
    fn q19_second_moment_is_isotropic() {
        // Σ w_i c_iα c_iβ = c_s² δ_αβ — required for correct hydrodynamics.
        for alpha in 0..3 {
            for beta in 0..3 {
                let m: f64 = C19
                    .iter()
                    .zip(&W19)
                    .map(|(&c, &w)| {
                        let c = [c.0 as f64, c.1 as f64, c.2 as f64];
                        w * c[alpha] * c[beta]
                    })
                    .sum();
                let expect = if alpha == beta { CS2 } else { 0.0 };
                assert!((m - expect).abs() < 1e-15, "moment[{alpha}][{beta}] = {m}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `q` indexes two parallel tables
    fn opposite_is_an_involution() {
        for q in 0..Q19 {
            let o = opposite(q);
            assert_eq!(opposite(o), q);
            let (x, y, z) = C19[q];
            assert_eq!(C19[o], (-x, -y, -z));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `q` indexes four parallel tables
    fn f64_component_tables_match_c19_exactly() {
        for q in 0..Q19 {
            let (x, y, z) = C19[q];
            assert_eq!(CXF[q], x as f64);
            assert_eq!(CYF[q], y as f64);
            assert_eq!(CZF[q], z as f64);
        }
    }

    #[test]
    fn q19_matches_geometry_direction_table() {
        // The geometry crate duplicates the nonzero directions for wall
        // classification; the two tables must agree as sets.
        let geo: std::collections::HashSet<_> = hemocloud_geometry::classify::D3Q19_DIRECTIONS
            .iter()
            .copied()
            .collect();
        let lbm: std::collections::HashSet<_> =
            C19.iter().skip(1).map(|&(x, y, z)| (x, y, z)).collect();
        assert_eq!(geo, lbm);
    }
}
