//! Kernel configuration: the variants the paper scans.
//!
//! The proxy-app study (paper Figs. 4 and 8) crosses two **propagation
//! patterns** with two **data layouts** and two loop structures:
//!
//! * [`Propagation::Ab`] — two distribution arrays, read-old/write-new;
//! * [`Propagation::Aa`] — one array updated in place, alternating an
//!   in-cell collision step with a combined stream-collide-stream step,
//!   halving streaming-index traffic on average;
//! * [`Layout::Soa`] — structure-of-arrays, `f[q][cell]`;
//! * [`Layout::Aos`] — array-of-structures, `f[cell][q]`;
//! * rolled vs. unrolled inner direction loops.
//!
//! [`KernelConfig`] names a point in that space plus the floating-point
//! precision; the performance model derives byte counts from it (Eq. 9)
//! and the cluster simulator derives an efficiency factor.

use crate::lattice::Q19;

/// Distribution storage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Structure of arrays: `f[q * n + cell]`. Preferred on GPUs.
    Soa,
    /// Array of structures: `f[cell * Q + q]`. Preferred on CPUs.
    Aos,
}

/// Propagation (streaming) pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Propagation {
    /// Two-array read/write ("AB" or A-B pattern).
    Ab,
    /// Single-array in-place alternating pattern ("AA", Bailey et al.).
    Aa,
}

/// Which STREAM kernel bounds a propagation pattern's achievable
/// bandwidth, used by the benchmark to turn modeled bytes into a modeled
/// time. Returned by [`Propagation::stream_reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamReference {
    /// STREAM Triad (`a[i] = b[i] + s*c[i]`): two load streams plus one
    /// store stream.
    Triad,
    /// The mean of STREAM Copy (one load + one store) and Triad — for
    /// patterns that alternate between the two shapes step by step.
    CopyTriadMean,
}

impl StreamReference {
    /// The reference bandwidth in GB/s given measured Copy and Triad
    /// rates.
    #[inline]
    pub fn gb_s(self, copy_gb_s: f64, triad_gb_s: f64) -> f64 {
        match self {
            StreamReference::Triad => triad_gb_s,
            StreamReference::CopyTriadMean => 0.5 * (copy_gb_s + triad_gb_s),
        }
    }

    /// Short label for benchmark provenance, e.g. `"triad"`.
    pub fn label(self) -> &'static str {
        match self {
            StreamReference::Triad => "triad",
            StreamReference::CopyTriadMean => "mean(copy,triad)",
        }
    }
}

impl Propagation {
    /// The STREAM kernel whose measured bandwidth bounds this pattern.
    ///
    /// **AB pull** gathers 19 old-array values and the neighbor-index row,
    /// then stores 19 new-array values: per cell it runs two load streams
    /// against one store stream — Triad-shaped, not Copy-shaped. **AA**
    /// alternates: the even step reads and rewrites the cell's own 19
    /// slots in place (Copy-shaped: one load + one store stream), while
    /// the odd step gathers from neighbor slots and scatters back through
    /// the index row (Triad-shaped like AB pull). Over the even/odd pair
    /// the honest bound is the mean of the two STREAM rates.
    ///
    /// Using Copy for everything — the old behavior — understated the
    /// bound for every gather/scatter loop on machines where Triad beats
    /// Copy (non-temporal-store memcpy), flattering `measured/modeled`.
    #[inline]
    pub fn stream_reference(self) -> StreamReference {
        match self {
            Propagation::Ab => StreamReference::Triad,
            Propagation::Aa => StreamReference::CopyTriadMean,
        }
    }
}

/// Floating-point precision of the distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4-byte floats.
    Single,
    /// 8-byte floats (the default throughout the paper's experiments).
    Double,
    /// 16-byte floats (listed by the paper's Eq. 9; modeled only).
    Quad,
}

impl Precision {
    /// Bytes per stored value (the paper's `d_size`).
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
            Precision::Quad => 16,
        }
    }
}

/// Compile-time distribution indexing for a storage [`Layout`], shared by
/// every kernel that is generic over layout (the dense proxy app and the
/// sparse production solvers). Monomorphizing over this trait keeps the
/// index arithmetic branch-free in the hot loops while `KernelConfig`
/// stays a runtime value.
pub trait LayoutIdx: Copy {
    /// The [`Layout`] this indexer implements.
    const LAYOUT: Layout;
    /// Flat index of `(cell, q)` in an `n`-cell array.
    fn at(cell: usize, q: usize, n: usize) -> usize;
}

/// Structure-of-arrays indexing: `f[q * n + cell]`.
#[derive(Clone, Copy)]
pub struct SoaIdx;
impl LayoutIdx for SoaIdx {
    const LAYOUT: Layout = Layout::Soa;
    #[inline(always)]
    fn at(cell: usize, q: usize, n: usize) -> usize {
        q * n + cell
    }
}

/// Array-of-structures indexing: `f[cell * 19 + q]`.
#[derive(Clone, Copy)]
pub struct AosIdx;
impl LayoutIdx for AosIdx {
    const LAYOUT: Layout = Layout::Aos;
    #[inline(always)]
    fn at(cell: usize, q: usize, _n: usize) -> usize {
        cell * Q19 + q
    }
}

/// Whether the sparse solvers run their collide-stream body on wide lanes
/// or at `WIDTH = 1`. Both produce bitwise identical distributions (the
/// wide path runs the exact per-cell expression tree, one cell per lane);
/// `Scalar` exists as the reference the equivalence oracles — in the tests
/// and in the benchmark — hold the wide lanes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPath {
    /// One cell at a time: the `V = R` instantiation of the kernel body.
    Scalar,
    /// Lane-width cells at a time through the same body: the element's
    /// `Wide` lane ([`hemocloud_rt::simd::Element`]).
    #[default]
    Vector,
}

impl SimdPath {
    /// Provenance label of the instructions this path runs: `"scalar"` for
    /// the reference, else what the build compiled the wide lanes to
    /// (`"avx2"` under the pinned `target-cpu=native`, `"scalar"` on a
    /// baseline build).
    pub fn label(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Vector => hemocloud_rt::simd::backend().label(),
        }
    }
}

/// Addressing scheme: dense grids use constant strides; sparse (HARVEY)
/// meshes read a per-cell neighbor index row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Addressing {
    /// Constant-stride neighbors (proxy app's hardcoded cylinder).
    Dense,
    /// Per-cell neighbor index array (HARVEY's sparse mesh).
    Indirect,
}

/// A fully specified kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Storage order.
    pub layout: Layout,
    /// Streaming pattern.
    pub propagation: Propagation,
    /// Distribution precision.
    pub precision: Precision,
    /// Neighbor addressing.
    pub addressing: Addressing,
    /// Whether the inner direction loop is unrolled.
    pub unrolled: bool,
}

impl KernelConfig {
    /// HARVEY's configuration: indirect-addressed AoS/AB in double
    /// precision with unrolled kernels.
    pub fn harvey() -> Self {
        Self {
            layout: Layout::Aos,
            propagation: Propagation::Ab,
            precision: Precision::Double,
            addressing: Addressing::Indirect,
            unrolled: true,
        }
    }

    /// A proxy-app variant (dense addressing, double precision).
    pub fn proxy(layout: Layout, propagation: Propagation, unrolled: bool) -> Self {
        Self {
            layout,
            propagation,
            precision: Precision::Double,
            addressing: Addressing::Dense,
            unrolled,
        }
    }

    /// A sparse-mesh production variant: indirect addressing, double
    /// precision, unrolled — the space the runtime
    /// [`crate::solver::Solver`] can actually execute
    /// (`propagation × layout`; [`Self::harvey`] is
    /// `sparse(Ab, Aos)`).
    pub fn sparse(propagation: Propagation, layout: Layout) -> Self {
        Self::sparse_with_precision(propagation, layout, Precision::Double)
    }

    /// [`Self::sparse`] at an explicit storage precision. The runtime
    /// solvers execute `Single` (f32 distributions) and `Double`; `Quad`
    /// remains model-only.
    pub fn sparse_with_precision(
        propagation: Propagation,
        layout: Layout,
        precision: Precision,
    ) -> Self {
        Self {
            layout,
            propagation,
            precision,
            addressing: Addressing::Indirect,
            unrolled: true,
        }
    }

    /// The SoA variants of the paper's Fig. 8 (AA/AB × rolled/unrolled).
    pub fn fig8_variants() -> Vec<(String, Self)> {
        let mut v = Vec::new();
        for (pname, p) in [("AA", Propagation::Aa), ("AB", Propagation::Ab)] {
            for (uname, u) in [("unrolled", true), ("rolled", false)] {
                v.push((format!("{pname}/SOA-{uname}"), Self::proxy(Layout::Soa, p, u)));
            }
        }
        v
    }

    /// Number of distribution values stored per fluid point (one array for
    /// AA, two for AB — the second array is counted as capacity, not
    /// traffic).
    #[inline]
    pub fn arrays(&self) -> usize {
        match self.propagation {
            Propagation::Ab => 2,
            Propagation::Aa => 1,
        }
    }

    /// Resident distribution-storage bytes per fluid point: `arrays × q ×
    /// d_size`, plus the streaming-index row for indirect addressing. AA
    /// configurations halve the distribution term — the paper's §III-D
    /// motivation for AA beyond bandwidth — because the second (`f_tmp`)
    /// array is never allocated.
    #[inline]
    pub fn resident_bytes_per_point(&self) -> f64 {
        let distributions = (self.arrays() * self.q() * self.precision.bytes()) as f64;
        let index = match self.addressing {
            Addressing::Dense => 0.0,
            Addressing::Indirect => self.q() as f64 * crate::access_profile::INDEX_BYTES,
        };
        distributions + index
    }

    /// Short display name, e.g. `"AB/AOS/indirect/f64"`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/{}/f{}",
            match self.propagation {
                Propagation::Ab => "AB",
                Propagation::Aa => "AA",
            },
            match self.layout {
                Layout::Soa => "SOA",
                Layout::Aos => "AOS",
            },
            match self.addressing {
                Addressing::Dense => "dense",
                Addressing::Indirect => "indirect",
            },
            self.precision.bytes() * 8,
        )
    }

    /// Number of discrete velocities (D3Q19 for every implemented kernel).
    #[inline]
    pub fn q(&self) -> usize {
        Q19
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
        assert_eq!(Precision::Quad.bytes(), 16);
    }

    #[test]
    fn harvey_defaults() {
        let k = KernelConfig::harvey();
        assert_eq!(k.addressing, Addressing::Indirect);
        assert_eq!(k.arrays(), 2);
        assert_eq!(k.name(), "AB/AOS/indirect/f64");
    }

    #[test]
    fn aa_uses_one_array() {
        let k = KernelConfig::proxy(Layout::Soa, Propagation::Aa, true);
        assert_eq!(k.arrays(), 1);
    }

    #[test]
    fn fig8_variants_are_all_soa() {
        for (_, k) in KernelConfig::fig8_variants() {
            assert_eq!(k.layout, Layout::Soa);
        }
    }

    #[test]
    fn sparse_constructor_spans_the_runtime_space() {
        assert_eq!(KernelConfig::sparse(Propagation::Ab, Layout::Aos), KernelConfig::harvey());
        let aa = KernelConfig::sparse(Propagation::Aa, Layout::Soa);
        assert_eq!(aa.addressing, Addressing::Indirect);
        assert_eq!(aa.name(), "AA/SOA/indirect/f64");
    }

    #[test]
    fn aa_halves_resident_distribution_bytes() {
        let ab = KernelConfig::harvey();
        let aa = KernelConfig::sparse(Propagation::Aa, Layout::Aos);
        // AB: 2×19×8 + 19×4 = 380; AA drops one 152-byte array.
        assert_eq!(ab.resident_bytes_per_point(), 380.0);
        assert_eq!(aa.resident_bytes_per_point(), 228.0);
        // Dense proxy configs carry no index row.
        let dense = KernelConfig::proxy(Layout::Soa, Propagation::Aa, true);
        assert_eq!(dense.resident_bytes_per_point(), 152.0);
    }

    #[test]
    fn single_precision_byte_model_is_pinned_end_to_end() {
        // f32 halves only the distribution term; the u32 index row is
        // precision-independent. AB f32: 2×19×4 + 76 = 228 (same resident
        // footprint as AA f64); AA f32: 19×4 + 76 = 152 — below AA f64's
        // 228 B/point, the headline of the Precision::Single path.
        let ab32 = KernelConfig::sparse_with_precision(
            Propagation::Ab,
            Layout::Aos,
            Precision::Single,
        );
        let aa32 = KernelConfig::sparse_with_precision(
            Propagation::Aa,
            Layout::Soa,
            Precision::Single,
        );
        assert_eq!(ab32.resident_bytes_per_point(), 228.0);
        assert_eq!(aa32.resident_bytes_per_point(), 152.0);
        assert_eq!(ab32.name(), "AB/AOS/indirect/f32");
        assert_eq!(aa32.name(), "AA/SOA/indirect/f32");
        // Double-precision sparse constructor is unchanged by the refactor.
        assert_eq!(
            KernelConfig::sparse_with_precision(Propagation::Ab, Layout::Aos, Precision::Double),
            KernelConfig::harvey()
        );
    }

    #[test]
    fn simd_labels() {
        assert_eq!(SimdPath::default(), SimdPath::Vector);
        assert_eq!(SimdPath::Scalar.label(), "scalar");
        assert_eq!(SimdPath::Vector.label(), hemocloud_rt::simd::backend().label());
    }

    #[test]
    fn stream_references_match_propagation_shapes() {
        assert_eq!(
            Propagation::Ab.stream_reference(),
            StreamReference::Triad,
            "AB pull is 2 loads + 1 store per cell"
        );
        assert_eq!(
            Propagation::Aa.stream_reference(),
            StreamReference::CopyTriadMean,
            "AA alternates Copy-shaped even and Triad-shaped odd steps"
        );
        // Reference bandwidths resolve from the measured STREAM pair.
        assert_eq!(StreamReference::Triad.gb_s(10.0, 16.0), 16.0);
        assert_eq!(StreamReference::CopyTriadMean.gb_s(10.0, 16.0), 13.0);
        assert_eq!(StreamReference::Triad.label(), "triad");
        assert_eq!(StreamReference::CopyTriadMean.label(), "mean(copy,triad)");
    }

    #[test]
    fn layout_indexers_are_inverse_transposes() {
        let n = 37;
        // Every (cell, q) maps to a unique flat slot in both layouts.
        let mut seen_soa = vec![false; n * Q19];
        let mut seen_aos = vec![false; n * Q19];
        for cell in 0..n {
            for q in 0..Q19 {
                let s = SoaIdx::at(cell, q, n);
                let a = AosIdx::at(cell, q, n);
                assert!(!seen_soa[s] && !seen_aos[a]);
                seen_soa[s] = true;
                seen_aos[a] = true;
            }
        }
    }
}
