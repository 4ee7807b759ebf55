//! Portable explicit-SIMD lane layer for the vectorized LBM kernels.
//!
//! The fused collide-stream is vectorized **across cells** — one cell per
//! lane — so the only arithmetic the lane types need is elementwise
//! add/sub/mul/div. Those four operations are IEEE-754 correctly rounded
//! *per lane* here (the wide lane literally is the scalar operation applied
//! per element, and the vector instructions LLVM selects for it —
//! `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd` — round exactly like their scalar
//! counterparts), and nothing in this module ever emits a fused
//! multiply-add or reassociates a sum. A kernel written against [`Lane`]
//! therefore computes, lane by lane, the *bit-identical* result of the
//! scalar kernel — the property the solver's SIMD-vs-scalar oracles pin.
//!
//! Two implementations of [`Lane`] exist:
//!
//! * the scalar floats themselves (`f32`/`f64`, `WIDTH = 1`) — so a
//!   lane-generic kernel instantiated at `V = f64` *is* the scalar kernel;
//! * [`ArrLane`], a plain fixed-size array whose elementwise loops LLVM
//!   turns into vector instructions of whatever width the build target
//!   allows: one 256-bit register per lane value under the workspace's
//!   pinned `-C target-cpu=native` on an AVX2 host, SSE2 pairs on the
//!   x86-64 baseline.
//!
//! There is no run-time backend choice: [`backend`] only *reports* which of
//! those two widths the build compiled to, for benchmark provenance.
//! Hand-written intrinsics measured no faster than what LLVM emits for
//! [`ArrLane`] on any benchmark row (DESIGN.md §11), so instruction
//! selection is left to the compiler.

/// A pack of `WIDTH` elements of `T` supporting elementwise arithmetic.
///
/// Contract (what the bit-identity argument rests on):
///
/// * `+ - * /` are elementwise and IEEE-754 correctly rounded per lane —
///   lane `i` of `a + b` is bitwise `a[i] + b[i]` as scalars;
/// * no implementation fuses, reassociates, or reorders operations;
/// * `load`/`store` move bits verbatim from/to the first `WIDTH` slots.
pub trait Lane<T: Copy>:
    Copy
    + Send
    + Sync
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    /// Number of elements per lane value.
    const WIDTH: usize;
    /// Broadcast one element to every lane.
    fn splat(v: T) -> Self;
    /// Load lanes from `src[..WIDTH]` (panics if shorter).
    fn load(src: &[T]) -> Self;
    /// Store lanes to `dst[..WIDTH]` (panics if shorter).
    fn store(self, dst: &mut [T]);
}

/// A float type the vector kernels can be instantiated over, naming its
/// wide lane type. The element is itself a `WIDTH = 1` [`Lane`], so scalar
/// kernels are the `V = Self` instantiation of the same generic code.
pub trait Element: Copy + Send + Sync + Lane<Self> + 'static {
    /// The wide lane: as many elements as fill a 256-bit register (4 for
    /// f64, 8 for f32), in a plain array.
    type Wide: Lane<Self>;
}

macro_rules! scalar_lane {
    ($t:ty) => {
        impl Lane<$t> for $t {
            const WIDTH: usize = 1;
            #[inline(always)]
            fn splat(v: $t) -> Self {
                v
            }
            #[inline(always)]
            fn load(src: &[$t]) -> Self {
                src[0]
            }
            #[inline(always)]
            fn store(self, dst: &mut [$t]) {
                dst[0] = self;
            }
        }
    };
}

scalar_lane!(f32);
scalar_lane!(f64);

impl Element for f64 {
    type Wide = ArrLane<f64, 4>;
}

impl Element for f32 {
    type Wide = ArrLane<f32, 8>;
}

/// Plain-array lane: `W` elements updated by elementwise scalar ops —
/// correct (and bit-identical to scalar) on every target, and compiled to
/// vector instructions wherever the build target has them
/// (`BENCH_lbm.json`'s `vector_over_scalar` records that it is).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrLane<T, const W: usize>(pub [T; W]);

macro_rules! arr_lane_op {
    ($trait:ident, $method:ident) => {
        impl<T, const W: usize> std::ops::$trait for ArrLane<T, W>
        where
            T: Copy + std::ops::$trait<Output = T>,
        {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                Self(std::array::from_fn(|i| self.0[i].$method(rhs.0[i])))
            }
        }
    };
}

arr_lane_op!(Add, add);
arr_lane_op!(Sub, sub);
arr_lane_op!(Mul, mul);
arr_lane_op!(Div, div);

impl<T, const W: usize> Lane<T> for ArrLane<T, W>
where
    T: Copy
        + Send
        + Sync
        + std::ops::Add<Output = T>
        + std::ops::Sub<Output = T>
        + std::ops::Mul<Output = T>
        + std::ops::Div<Output = T>,
{
    const WIDTH: usize = W;
    #[inline(always)]
    fn splat(v: T) -> Self {
        Self([v; W])
    }
    #[inline(always)]
    fn load(src: &[T]) -> Self {
        Self(std::array::from_fn(|i| src[i]))
    }
    #[inline(always)]
    fn store(self, dst: &mut [T]) {
        dst[..W].copy_from_slice(&self.0);
    }
}

/// Which instructions the build compiled [`ArrLane`] to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The target's baseline vector unit (SSE2 pairs on plain x86-64).
    Scalar,
    /// 256-bit AVX2 registers: one per [`Element::Wide`] value.
    Avx2,
}

impl Backend {
    /// Short label for benchmark/observability provenance.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// What the wide lanes were compiled to — a pure function of the build
/// target (`-C target-cpu=native` on an AVX2 host gives [`Backend::Avx2`]).
/// A provenance label, not a switch: nothing dispatches on it.
pub fn backend() -> Backend {
    if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_cases() -> Vec<f64> {
        vec![0.0, -0.0, 1.0, -1.5, 1.0 / 3.0, 1e-300, 1e300, 0.1234567890123]
    }

    #[test]
    fn scalar_lane_is_the_identity_wrapper() {
        assert_eq!(<f64 as Lane<f64>>::WIDTH, 1);
        let v = <f64 as Lane<f64>>::splat(2.5);
        assert_eq!(v, 2.5);
        let mut out = [0.0f64];
        (v * v + v).store(&mut out);
        assert_eq!(out[0], 2.5 * 2.5 + 2.5);
    }

    #[test]
    fn arr_lane_ops_match_scalar_bitwise() {
        let xs = f64_cases();
        for (i, &a) in xs.iter().enumerate() {
            for &b in &xs[i..] {
                let va = ArrLane::<f64, 4>::splat(a);
                let vb = ArrLane::<f64, 4>::splat(b);
                let mut out = [0.0f64; 4];
                for (op, scalar) in [
                    (va + vb, a + b),
                    (va - vb, a - b),
                    (va * vb, a * b),
                    (va / vb, a / b),
                ] {
                    op.store(&mut out);
                    for &o in &out {
                        assert_eq!(o.to_bits(), scalar.to_bits(), "{a} ? {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_lane_ops_match_scalar_bitwise_per_lane() {
        // The foundation of the vector kernels' bit-identity claim: each
        // lane of a wide op carries exactly the scalar result.
        let src = [0.1, 1.0 / 3.0, -7.25, 1e-12];
        let other = [3.0, -0.5, 1e3, 0.7];
        let a = <f64 as Element>::Wide::load(&src);
        let b = <f64 as Element>::Wide::load(&other);
        let mut out = [0.0f64; 4];
        ((a + b) * a - b / a).store(&mut out);
        for i in 0..4 {
            let want = (src[i] + other[i]) * src[i] - other[i] / src[i];
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
        }

        let src8: [f32; 8] = [0.1, 0.25, -3.5, 1e-6, 9.0, -0.125, 2.5, 1.0 / 3.0];
        let a = <f32 as Element>::Wide::load(&src8);
        let b = <f32 as Element>::Wide::splat(1.5f32);
        let mut out8 = [0.0f32; 8];
        ((a * b) + (a - b) / b).store(&mut out8);
        for i in 0..8 {
            let want = (src8[i] * 1.5f32) + (src8[i] - 1.5f32) / 1.5f32;
            assert_eq!(out8[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    /// `a <op> b` through `V` must store, in every lane, the bits the
    /// scalar op computes. A NaN result need only be a NaN: Rust leaves its
    /// sign and payload unspecified, and LLVM may commute the operands of
    /// one instantiation and not the other.
    fn assert_lanes_match_scalar<T, V>(a: &[T], b: &[T], bits: fn(T) -> u64, is_nan: fn(T) -> bool)
    where
        T: Lane<T> + Default + std::fmt::Debug,
        V: Lane<T>,
    {
        let (va, vb) = (V::load(a), V::load(b));
        type ScalarOp<T> = fn(T, T) -> T;
        let ops: [(&str, V, ScalarOp<T>); 4] = [
            ("+", va + vb, |x, y| x + y),
            ("-", va - vb, |x, y| x - y),
            ("*", va * vb, |x, y| x * y),
            ("/", va / vb, |x, y| x / y),
        ];
        for (op, wide, scalar) in ops {
            let mut out = vec![T::default(); V::WIDTH];
            wide.store(&mut out);
            for lane in 0..V::WIDTH {
                let want = std::hint::black_box(scalar)(a[lane], b[lane]);
                let same = if is_nan(want) {
                    is_nan(out[lane])
                } else {
                    bits(out[lane]) == bits(want)
                };
                assert!(
                    same,
                    "lane {lane}: {:?} {op} {:?} stored {:?}, scalar gives {want:?}",
                    a[lane], b[lane], out[lane]
                );
            }
        }
    }

    #[test]
    fn wide_lanes_store_the_scalar_bits_for_any_bit_pattern() {
        // Random bit patterns cover normals of every magnitude; the special
        // values the kernels never meet on purpose (signed zeros,
        // subnormals, infinities, NaN) are mixed in per lane.
        const SPECIAL_F64: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        const SPECIAL_F32: [f32; 8] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
        ];
        crate::check::run(
            "wide_lanes_store_the_scalar_bits_for_any_bit_pattern",
            crate::check::Config::cases(256),
            |rng| {
                let mut draw64 = |_| match rng.range_usize(0, 3) {
                    0 => SPECIAL_F64[rng.range_usize(0, 8)],
                    _ => f64::from_bits(rng.next_u64()),
                };
                let (a, b): ([f64; 4], [f64; 4]) = (
                    std::array::from_fn(&mut draw64),
                    std::array::from_fn(&mut draw64),
                );
                assert_lanes_match_scalar::<f64, <f64 as Element>::Wide>(
                    &a,
                    &b,
                    f64::to_bits,
                    f64::is_nan,
                );
                let mut draw32 = |_| match rng.range_usize(0, 3) {
                    0 => SPECIAL_F32[rng.range_usize(0, 8)],
                    _ => f32::from_bits(rng.next_u64() as u32),
                };
                let (a, b): ([f32; 8], [f32; 8]) = (
                    std::array::from_fn(&mut draw32),
                    std::array::from_fn(&mut draw32),
                );
                assert_lanes_match_scalar::<f32, <f32 as Element>::Wide>(
                    &a,
                    &b,
                    |v| u64::from(v.to_bits()),
                    f32::is_nan,
                );
            },
        );
    }

    #[test]
    fn load_store_roundtrip_moves_bits_verbatim() {
        let src = [f64::MIN_POSITIVE, -0.0, f64::MAX, 42.0];
        let mut dst = [0.0f64; 4];
        <f64 as Element>::Wide::load(&src).store(&mut dst);
        for i in 0..4 {
            assert_eq!(src[i].to_bits(), dst[i].to_bits());
        }
        let w = ArrLane::<f32, 8>::splat(-0.0f32);
        let mut out = [1.0f32; 8];
        w.store(&mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn element_widths_are_consistent() {
        assert_eq!(<<f64 as Element>::Wide as Lane<f64>>::WIDTH, 4);
        assert_eq!(<<f32 as Element>::Wide as Lane<f32>>::WIDTH, 8);
    }

    #[test]
    fn backend_reports_the_build_target() {
        let avx2 = cfg!(all(target_arch = "x86_64", target_feature = "avx2"));
        assert_eq!(backend().label(), if avx2 { "avx2" } else { "scalar" });
    }
}
