//! The HARVEY-style flow solver: D3Q19 BGK on an indirect-addressed fluid
//! mesh, with a runtime-selectable kernel configuration.
//!
//! Boundary conditions follow the paper's setup (§II-C): a Poiseuille
//! velocity profile imposed at inlets, a zero-pressure (unit-density)
//! condition at outlets, and halfway bounce-back at walls. The per-cell
//! boundary dispatch is hoisted out of the kernel: cells are sorted into
//! per-kind index lists (bulk-like / inlet / outlet) once at construction,
//! so the hot loops carry no branch on cell type.
//!
//! ## Kernel configurations
//!
//! [`SolverConfig::kernel`] selects the point in the paper's kernel space
//! the solver actually executes — `propagation × layout × precision`
//! (`Double` stores f64 distributions, `Single` stores f32 and halves
//! resident bytes; `Quad` remains model-only):
//!
//! * **AB** ([`Propagation::Ab`]): two distribution arrays, pull-stream
//!   from `f` into `f_tmp`, swap. Every step reads the full slot table.
//! * **AA** ([`Propagation::Aa`], Bailey et al.): one resident array
//!   updated in place. The **even** step is purely cell-local — read the
//!   cell's own row, collide, write back to the *opposite* slots; no
//!   `f_tmp`, no index traffic. The **odd** step gathers each arriving
//!   value from the `-c_q` neighbor's opposite slot through the slot
//!   table, collides, and scatters forward into the `+c_q` neighbors'
//!   slots. Averaged over a step pair the index traffic halves and the
//!   second array disappears — exactly what
//!   [`crate::access_profile::AccessProfile`] prices (the paper's "AA
//!   shifted upwards from AB", §III-D).
//! * **AoS / SoA** ([`Layout`]): `f[cell][q]` vs `f[q][cell]` storage.
//!
//! ## The slot table
//!
//! Every read a step makes is resolved once, when the solver is built:
//! [`Solver::new_in`] consumes its [`FluidMesh`] and rewrites the mesh's
//! neighbor rows in place into a table of `u32` flat slot indices. Entry
//! `cell · 19 + q` is the slot the value arriving at `cell` along `q`
//! sits in — for AB the `-c_q` neighbor's slot `q`, for AA's odd step its
//! slot `opposite(q)` — with bounce-back (a solid link reads the cell's
//! own slot `opposite(q)` for AB, `q` for AA) and the layout already
//! applied. AA's odd step scatters its post-collision value `q` to the
//! entry at `opposite(q)`: per cell the write set *is* the read set. The
//! even step reads the cell's own row and no table, so the index bytes
//! [`crate::access_profile::AccessProfile`] prices stay the ones read.
//!
//! A ranked run ([`crate::ranked::RankedSolver`]) adds one 19-value halo
//! row per received (rank, remote cell) pair, numbered after the live
//! slots — row `k`'s slot `q` is table index `19 · (n + k) + q` — and an
//! entry that reads another rank's cell points at the reading rank's row.
//! The exchange refreshes the rows before a step. AA keeps them behind the
//! live slots of its one array: the odd step reads and writes its halo
//! slots in place, and after the sweep each written one goes back to the
//! live slot it copies. AB's two arrays swap every step, so they keep
//! exactly `19 · n` slots (the size other solvers free) and a read past
//! the source array falls through to a separate halo array, off the
//! gather's fast path. So a ranked step is the global sweep, with no owner
//! test on any read. Entries are `u32`: the solver refuses a mesh whose
//! slots, halo rows included, do not fit.
//!
//! ## One collide–stream body
//!
//! Every configuration above, at every lane width, runs the same function
//! (`Sweep`'s `sweep`): gather `WIDTH` cells direction by direction from
//! the table into lanes, collide the lanes together, scatter each lane's
//! row. One precision's state is one `Lattice<R>`, and one step path
//! (`Solver::advance`) drives it for global and ranked runs alike. The
//! body is generic over two small things:
//!
//! * a `Stream` (`AbPull`, `AaEven`, `AaOdd`) — whether the step reads the
//!   table or the cell's own row, and whether it writes in place;
//! * a lane type `V: Lane<R>` — `R` itself (`WIDTH = 1`) is the scalar
//!   kernel, so remainder cells and the few inlet/outlet cells simply run
//!   the `V = R` instantiation of the same code.
//!
//! ## AA in-place safety (and why the parallel sweep is race-free)
//!
//! Let `S(c)` be the set of flat slots cell `c` touches in one AA step.
//! *Even* step: `S(c) = {(c, q)}` — its own row. *Odd* step: cell `c`
//! reads `(c − c_q, opp(q))` for every `q` and writes `(c + c_q, q)`;
//! substituting `q → opp(q)` shows the two sets are equal, and a solid
//! link folds both accesses onto the cell's own `(c, q)`/`(c, opp(q))`
//! pair. For distinct cells these sets are **pairwise disjoint** (the
//! streaming index is reciprocal: `(c + c_q, q)` is claimed only by `c`),
//! so the update is in-place safe serially and race-free under any
//! partition of the cell range — the owner-computes contract of
//! [`hemocloud_rt::pool::Pool::par_owner_mut_workers`], the primitive every
//! parallel path here runs on. A halo copy slot is in exactly one cell's
//! set too, and the live slot it stands for is then in no set, so writing
//! the copy back after the sweep gives the global step's bits. AB writes
//! only the destination array's own row `(c, q)`, disjoint for the same
//! reason. Within a run cells are visited in ascending order and each
//! cell's arithmetic is a pure function of the pre-step state, so parallel
//! and serial steps are bit-identical at any logical worker count.
//!
//! ## Wide lanes are bit-neutral too
//!
//! [`SolverConfig::simd`] selects the lane type: [`SimdPath::Vector`]
//! packs `WIDTH` consecutive bulk cells of the per-kind index list into a
//! [`hemocloud_rt::simd::Lane`] (4 × f64 or 8 × f32: the element's
//! `Wide` array lane, which the compiler turns into AVX2 registers under
//! the pinned `target-cpu=native`);
//! [`SimdPath::Scalar`] runs everything at `WIDTH = 1` and exists as the
//! reference the oracle tests hold the wide lanes against. The two agree
//! **bitwise** by construction:
//!
//! 1. each cell's update is a pure function of its own gathered row, so
//!    which lane (or loop iteration) computes it cannot matter;
//! 2. the lane ops *are* the scalar IEEE-754 ops applied per element
//!    (`vaddpd` rounds each lane exactly like scalar `addsd`; no FMA
//!    contraction, no reassociation — the lane layer exposes only
//!    `+ - * /`);
//! 3. there is no second transcription of the collision to drift: scalar
//!    and wide are instantiations of one generic function;
//! 4. gathering lanes into buffers and scattering them back is pure data
//!    movement.
//!
//! One table-driven oracle test per solver holds every kernel config ×
//! lane type × worker count to the scalar, one-worker run; a property test
//! holds the table, its halo redirects and one step of every config to the
//! per-read reference gather it replaced.

use crate::equilibrium::{equilibrium_v, macroscopics_d3q19, macroscopics_v};
use crate::kernel::{
    AosIdx, KernelConfig, Layout, LayoutIdx, Precision, Propagation, SimdPath, SoaIdx,
};
use crate::lattice::{opposite, Q19};
use crate::mesh::{FluidMesh, SOLID};
use crate::real::Real;
use hemocloud_geometry::voxel::CellType;
use hemocloud_obs::{Counter, Histogram, Registry};
use hemocloud_rt::pool::{self, DisjointMut};
use hemocloud_rt::simd::Lane;
use std::sync::Arc;

/// Tunable parameters of a simulation.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// BGK relaxation time τ (lattice units); kinematic viscosity is
    /// `ν = (τ - 1/2)/3`. Stability requires τ > 1/2.
    pub tau: f64,
    /// Peak inlet velocity (lattice units). Keep ≲ 0.1 for accuracy.
    pub u_max: f64,
    /// Unit vector of the inlet flow direction.
    pub flow_dir: (f64, f64, f64),
    /// Let [`Solver::step`] update cells in parallel (persistent worker
    /// pool) once the mesh is large enough for threads to pay for
    /// themselves. [`Solver::step_with_workers`] pins the count instead.
    pub parallel: bool,
    /// Kernel variant to execute: `propagation`, `layout`, and `precision`
    /// are honored at runtime (`addressing` is always indirect on the
    /// sparse mesh; `Precision::Single` stores f32 distributions, `Quad`
    /// is model-only and rejected at construction). The same value feeds
    /// the performance model's byte accounting, so modeled and executed
    /// kernels can no longer diverge silently.
    pub kernel: KernelConfig,
    /// Wide lanes vs the `WIDTH = 1` scalar reference (module docs).
    /// Bit-neutral by construction, so the default is the fast path.
    pub simd: SimdPath,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            tau: 0.8,
            u_max: 0.05,
            flow_dir: (0.0, 0.0, 1.0),
            parallel: true,
            kernel: KernelConfig::harvey(),
            simd: SimdPath::default(),
        }
    }
}

impl SolverConfig {
    /// Panic, naming the field, unless the physics can stay finite: a
    /// finite `tau` above 1/2, a finite `u_max` and finite `flow_dir`
    /// components. Both solvers' constructors call it, so a NaN never
    /// reaches the inlet profile and from there every distribution.
    pub(crate) fn check(&self) {
        let (tau, u_max, (x, y, z)) = (self.tau, self.u_max, self.flow_dir);
        assert!(tau.is_finite(), "tau must be finite, got {tau}");
        assert!(tau > 0.5, "tau must exceed 1/2 for stability, got {tau}");
        assert!(u_max.is_finite(), "u_max must be finite, got {u_max}");
        let finite_dir = x.is_finite() && y.is_finite() && z.is_finite();
        assert!(finite_dir, "flow_dir must be finite, got ({x}, {y}, {z})");
    }
}

/// Per-step throughput record.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Lattice updates performed (fluid points × timesteps).
    pub updates: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Millions of fluid-point updates per second (paper Eq. 7).
    pub mflups: f64,
}

/// Everything a step reads or writes at element precision `R`.
struct Lattice<R> {
    /// Distributions: the `19 · n` live slots in the configured layout;
    /// for ranked AA, then the halo rows (module docs).
    f: Vec<R>,
    /// Second distribution array, `19 · n` slots — AB only; AA runs in
    /// place and this stays empty (half the resident solver memory).
    f_tmp: Vec<R>,
    /// Ranked AB's halo rows (module docs); empty otherwise.
    halo: Vec<R>,
    /// Per-cell slot into `inlet_vel` (`u32::MAX` for non-inlet cells).
    inlet_slot: Vec<u32>,
    /// Prescribed velocity of each inlet cell: the f64 Poiseuille profile
    /// rounded once to `R`.
    inlet_vel: Vec<[R; 3]>,
}

impl<R: Real> Lattice<R> {
    /// The rest state (`ρ = 1`, `u = 0`) of `mesh` under `config`, with
    /// room for `copies` halo rows.
    fn new(mesh: &FluidMesh, config: &SolverConfig, copies: usize) -> Self {
        // The distribution arrays first: allocating the small inlet vectors
        // ahead of them measured ~4x slower construction on a 42k-cell mesh.
        // AA's halo rows follow its live slots; AB's two arrays swap every
        // step, so theirs sit apart in `halo`.
        let aa = config.kernel.propagation == Propagation::Aa;
        let layout = config.kernel.layout;
        let f = rest_distributions(layout, mesh.len(), if aa { copies } else { 0 });
        let f_tmp = if aa { Vec::new() } else { f.clone() };
        let halo = vec![R::ZERO; if aa { 0 } else { copies * Q19 }];
        let (inlet_slot, inlet_vel) = poiseuille_profile_for(mesh, config);
        Self {
            f,
            f_tmp,
            halo,
            inlet_slot,
            inlet_vel: inlet_vel.iter().map(|v| v.map(R::from_f64)).collect(),
        }
    }

    /// Bytes of the live slots of `f` and `f_tmp` over `n` cells.
    fn distribution_bytes(&self, n: usize) -> usize {
        (1 + usize::from(!self.f_tmp.is_empty())) * n * Q19 * std::mem::size_of::<R>()
    }

    /// One timestep (module docs) through `table`; after AA's odd sweep,
    /// each `(copy, live)` slot pair of `write_backs` returns the copy.
    fn advance(
        &mut self,
        table: &[u32],
        kinds: &KindLists,
        config: &SolverConfig,
        even: bool,
        workers: usize,
        write_backs: &[(u32, u32)],
    ) {
        let table = table.as_chunks().0;
        let sweep = Sweep {
            table,
            n: table.len(),
            halo: &self.halo,
            kinds,
            omega: R::from_f64(1.0 / config.tau),
            inlet_slot: &self.inlet_slot,
            inlet_vel: &self.inlet_vel,
        };
        let (kernel, simd) = (&config.kernel, config.simd);
        sweep.advance(kernel, even, simd, &mut self.f, &mut self.f_tmp, workers);
        if kernel.propagation == Propagation::Aa && !even {
            for &(copy, live) in write_backs {
                self.f[live as usize] = self.f[copy as usize];
            }
        }
    }

    /// Copy the row of `cells[k]` into halo row `k`, for every `k`.
    fn exchange<L: LayoutIdx>(&mut self, n: usize, cells: &[u32]) {
        let (live, rows) = match self.f_tmp.is_empty() {
            true => self.f.split_at_mut(n * Q19),
            false => (&mut self.f[..], &mut self.halo[..]),
        };
        for (row, &cell) in rows.chunks_exact_mut(Q19).zip(cells) {
            for (q, v) in row.iter_mut().enumerate() {
                *v = live[L::at(cell as usize, q, n)];
            }
        }
    }
}

/// The lattice at the configured [`Precision`].
enum Store {
    F64(Lattice<f64>),
    F32(Lattice<f32>),
}

/// The flow solver.
pub struct Solver {
    /// Fluid cells; the live slots are `0..19 · n`.
    n: usize,
    /// The slot table (module docs): entry `cell · 19 + q` is the flat slot
    /// AB and AA's odd step read for direction `q`.
    table: Vec<u32>,
    /// A ranked run's halo rows: row `k` copies cell `copies[k]`. Empty
    /// for a global run.
    copies: Vec<u32>,
    /// Ranked AA only: the `(copy, live)` slot pair of every table entry
    /// that points into a halo row.
    write_backs: Vec<(u32, u32)>,
    /// Distributions and inlet data at the configured precision.
    store: Store,
    config: SolverConfig,
    /// Cells sorted by update kind, precomputed once so the hot loop does
    /// not re-dispatch on `mesh.cell_type(cell)` every step.
    kinds: KindLists,
    steps_taken: u64,
    obs: SolverObs,
}

/// Handles into an [`hemocloud_obs`] registry, fetched once at
/// construction so per-step recording is a handful of lock-free atomic
/// adds. Step/cell counters are deterministic (pure functions of the
/// stepping program); the timing histograms are wall-clock and export
/// count-only in deterministic snapshots.
pub(crate) struct SolverObs {
    pub(crate) steps: Arc<Counter>,
    pub(crate) cells_bulk: Arc<Counter>,
    pub(crate) cells_inlet: Arc<Counter>,
    pub(crate) cells_outlet: Arc<Counter>,
    pub(crate) step_seconds: Arc<Histogram>,
    pub(crate) step_mflups: Arc<Histogram>,
}

impl SolverObs {
    pub(crate) fn from_registry(reg: &Registry) -> Self {
        Self {
            steps: reg.counter("lbm.steps"),
            cells_bulk: reg.counter("lbm.cell_updates.bulk"),
            cells_inlet: reg.counter("lbm.cell_updates.inlet"),
            cells_outlet: reg.counter("lbm.cell_updates.outlet"),
            step_seconds: reg.histogram("lbm.step_seconds", &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]),
            step_mflups: reg.histogram(
                "lbm.step_mflups",
                &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
            ),
        }
    }

    /// Record one completed step over a mesh with the given per-kind cell
    /// counts and wall duration.
    pub(crate) fn record_step(&self, kinds: &KindLists, seconds: f64) {
        self.steps.inc();
        self.cells_bulk.add(kinds.bulk.len() as u64);
        self.cells_inlet.add(kinds.inlet.len() as u64);
        self.cells_outlet.add(kinds.outlet.len() as u64);
        self.step_seconds.record(seconds);
        let cells = (kinds.bulk.len() + kinds.inlet.len() + kinds.outlet.len()) as f64;
        // Recorded unconditionally so the sample count stays one-per-step
        // (deterministic); a zero-duration step yields a non-finite rate,
        // which the histogram banks in its overflow bucket.
        self.step_mflups.record(cells / seconds / 1e6);
    }
}

/// One kind's cell ids, ascending — so the cells of a contiguous id range
/// (the unit the parallel partition slices by) are a contiguous sub-slice.
pub(crate) struct KindList {
    pub(crate) cells: Vec<u32>,
}

impl KindList {
    /// Number of cells of this kind.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The cells with ids in `[first, end)`, ascending: two binary
    /// searches.
    pub(crate) fn in_range(&self, first: usize, end: usize) -> &[u32] {
        let lo = self.cells.partition_point(|&c| (c as usize) < first);
        let hi = self.cells.partition_point(|&c| (c as usize) < end);
        &self.cells[lo..hi]
    }
}

/// Per-kind cell lists. `bulk` holds every cell that takes the plain BGK
/// collide path (bulk *and* wall fluid — bounce-back is resolved in the
/// slot table); `inlet` and `outlet` hold the Dirichlet/zero-pressure
/// cells.
pub(crate) struct KindLists {
    pub(crate) bulk: KindList,
    pub(crate) inlet: KindList,
    pub(crate) outlet: KindList,
}

impl KindLists {
    /// Sort the mesh's cells into kind lists, ascending by cell id.
    pub(crate) fn build(mesh: &FluidMesh) -> Self {
        let mut lists = [(); 3].map(|_| KindList { cells: Vec::new() });
        for cell in 0..mesh.len() {
            let k = match mesh.cell_type(cell) {
                CellType::Inlet => 1,
                CellType::Outlet => 2,
                _ => 0,
            };
            lists[k].cells.push(cell as u32);
        }
        let [bulk, inlet, outlet] = lists;
        Self { bulk, inlet, outlet }
    }
}

/// Minimum mesh size before thread parallelism pays for itself.
const PARALLEL_THRESHOLD: usize = 8192;

/// Flat index of `(cell, q)` for a runtime [`Layout`] value — the
/// non-monomorphized twin of [`LayoutIdx::at`], for cold paths
/// (initialization and readouts).
#[inline]
fn flat_index(layout: Layout, cell: usize, q: usize, n: usize) -> usize {
    match layout {
        Layout::Soa => SoaIdx::at(cell, q, n),
        Layout::Aos => AosIdx::at(cell, q, n),
    }
}

/// Rest-equilibrium initial distributions for an `n`-cell mesh in the
/// given layout, at the element precision (f32 rests are the once-rounded
/// weights), followed by `copies` zeroed halo rows.
fn rest_distributions<R: Real>(layout: Layout, n: usize, copies: usize) -> Vec<R> {
    let mut f = vec![R::ZERO; (n + copies) * Q19];
    for cell in 0..n {
        for q in 0..Q19 {
            f[flat_index(layout, cell, q, n)] = R::W19[q];
        }
    }
    f
}

/// The slots a solver over `cells` fluid cells and `copies` halo rows
/// addresses: every slot-table entry is below it.
///
/// # Panics
/// When the count does not fit the table's `u32` entries; the message
/// names it.
fn slot_count(cells: usize, copies: usize) -> usize {
    let (slots, most) = ((cells + copies) as u128 * Q19 as u128, u32::MAX);
    assert!(
        slots <= most.into(),
        "{cells} cells and {copies} halo rows need {slots} slots; u32 entries address at most {most}"
    );
    slots as usize
}

/// Rewrite the neighbor rows in `table` in place into the slot table of
/// `propagation` over `n` cells (module docs). `copy_of(cell, from)` names
/// the halo row a read of `from`'s slots by `cell` takes, `None` for the
/// live slot; halo row `k`'s slot `q` is entry `19 · (n + k) + q`. Returns,
/// for AA, the `(copy, live)` pair of every entry sent to a halo row.
fn resolve<L: LayoutIdx>(
    table: &mut [u32],
    n: usize,
    propagation: Propagation,
    copy_of: impl Fn(usize, usize) -> Option<usize>,
) -> Vec<(u32, u32)> {
    let aa = propagation == Propagation::Aa;
    let mut write_backs = Vec::new();
    for (cell, entries) in table.as_chunks_mut::<Q19>().0.iter_mut().enumerate() {
        let row = *entries;
        for (q, entry) in entries.iter_mut().enumerate() {
            // AB pulls the `-c_q` neighbor's slot `q`, AA's odd step its
            // slot `opposite(q)`; a solid link reflects the cell's own
            // opposite value (AB) or folds onto its own slot `q` (AA).
            let (from, dir) = match (row[opposite(q)], aa) {
                (SOLID, false) => (cell, opposite(q)),
                (SOLID, true) => (cell, q),
                (nb, false) => (nb as usize, q),
                (nb, true) => (nb as usize, opposite(q)),
            };
            let live = L::at(from, dir, n) as u32;
            *entry = copy_of(cell, from).map_or(live, |k| ((n + k) * Q19 + dir) as u32);
            if aa && *entry != live {
                write_backs.push((*entry, live));
            }
        }
    }
    write_backs
}

/// Where one propagation step reads and writes — the whole difference
/// between AB, AA-even and AA-odd.
pub(crate) trait Stream {
    /// The step updates the one resident array in place (AA) instead of
    /// pulling from a source array into the cell's own row of a
    /// destination array (AB). An in-place step scatters direction `q` to
    /// the slot it gathered `opposite(q)` from: per cell the write set
    /// *is* the read set (module docs).
    const IN_PLACE: bool;
    /// The flat slot holding the value that arrives at `cell` along `q`,
    /// given the cell's slot-table row.
    fn slot<L: LayoutIdx>(row: &[u32; Q19], n: usize, cell: usize, q: usize) -> usize;
}

/// AB pull: the slot-table entry, read from the source array.
pub(crate) struct AbPull;
impl Stream for AbPull {
    const IN_PLACE: bool = false;
    #[inline(always)]
    fn slot<L: LayoutIdx>(row: &[u32; Q19], _n: usize, _cell: usize, q: usize) -> usize {
        row[q] as usize
    }
}

/// AA even step: the cell's own row, written back to the opposite slots.
pub(crate) struct AaEven;
impl Stream for AaEven {
    const IN_PLACE: bool = true;
    #[inline(always)]
    fn slot<L: LayoutIdx>(_row: &[u32; Q19], n: usize, cell: usize, q: usize) -> usize {
        L::at(cell, q, n)
    }
}

/// AA odd step: the slot-table entry, read and written in place.
pub(crate) struct AaOdd;
impl Stream for AaOdd {
    const IN_PLACE: bool = true;
    #[inline(always)]
    fn slot<L: LayoutIdx>(row: &[u32; Q19], _n: usize, _cell: usize, q: usize) -> usize {
        row[q] as usize
    }
}

/// What a cell does with its gathered row.
#[derive(Clone, Copy)]
enum Kind {
    /// Bulk and wall fluid: BGK relaxation toward equilibrium.
    Bulk,
    /// Dirichlet velocity inlet: equilibrium at the gathered density and
    /// the prescribed profile velocity.
    Inlet,
    /// Zero-pressure outlet: equilibrium at unit density and the gathered
    /// velocity.
    Outlet,
}

/// The distribution arrays of one sweep: [`AbPull`] reads `src` and, past
/// its end, `halo`, and writes `dst`; the in-place streams read and write
/// `dst` and get an empty `src` and `halo`.
struct Arrays<'a, R> {
    src: &'a [R],
    halo: &'a [R],
    dst: &'a DisjointMut<'a, R>,
}

impl<R: Real> Arrays<'_, R> {
    #[inline(always)]
    fn read<S: Stream>(&self, idx: usize) -> R {
        if S::IN_PLACE {
            // SAFETY: `idx` is a slot of the gathering cell's own slot set,
            // which no other cell reads or writes this step (module docs);
            // every table entry is below `slot_count`, the array's length.
            unsafe { self.dst.read(idx) }
        } else {
            match self.src.get(idx) {
                Some(&v) => v,
                None => {
                    // A ranked run's halo row: kept off the gather's fast
                    // path (inline, it cost the AB rows a tenth of their
                    // gain).
                    std::hint::cold_path();
                    self.halo[idx - self.src.len()]
                }
            }
        }
    }
}

/// Widest lane any element exposes (`<f32 as Element>::Wide` = 8); the lane
/// staging buffers are sized to it and use the first `V::WIDTH` entries.
const VEC_MAXW: usize = 8;

/// Everything one collide–stream sweep reads besides the distribution
/// arrays.
struct Sweep<'a, R> {
    /// The slot table, one row per cell.
    table: &'a [[u32; Q19]],
    /// Fluid cells.
    n: usize,
    /// Ranked AB's halo rows, read past the end of the source array.
    halo: &'a [R],
    kinds: &'a KindLists,
    omega: R,
    inlet_slot: &'a [u32],
    inlet_vel: &'a [[R; 3]],
}

impl<R: Real> Sweep<'_, R> {
    /// The slot `cell`'s post-collision value `q` goes to: its own row of
    /// the destination array for AB; for an in-place stream, the slot it
    /// gathered `opposite(q)` from.
    #[inline(always)]
    fn target<S: Stream, L: LayoutIdx>(&self, row: &[u32; Q19], cell: usize, q: usize) -> usize {
        if S::IN_PLACE {
            S::slot::<L>(row, self.n, cell, opposite(q))
        } else {
            L::at(cell, q, self.n)
        }
    }

    /// Post-update rows of the `V::WIDTH` cells in `cells`, one per lane.
    /// The only collision code there is: every op is `Lane`'s elementwise
    /// IEEE arithmetic, so each lane holds the bits `V = R` would compute.
    #[inline(always)]
    fn collide<V: Lane<R>>(&self, kind: Kind, cells: &[u32], fin: &[V; Q19]) -> [V; Q19] {
        let (rho, ux, uy, uz) = macroscopics_v::<R, V>(fin);
        let mut out = [V::splat(R::ZERO); Q19];
        match kind {
            Kind::Bulk => {
                equilibrium_v::<R, V>(rho, ux, uy, uz, &mut out);
                let omega = V::splat(self.omega);
                for (o, &f) in out.iter_mut().zip(fin) {
                    *o = f - omega * (f - *o);
                }
            }
            Kind::Inlet => {
                let mut u = [[R::ZERO; VEC_MAXW]; 3];
                for (lane, &cell) in cells.iter().enumerate() {
                    let v = self.inlet_vel[self.inlet_slot[cell as usize] as usize];
                    for axis in 0..3 {
                        u[axis][lane] = v[axis];
                    }
                }
                let [ux, uy, uz] = u.map(|lanes| V::load(&lanes));
                equilibrium_v::<R, V>(rho, ux, uy, uz, &mut out);
            }
            Kind::Outlet => equilibrium_v::<R, V>(V::splat(R::ONE), ux, uy, uz, &mut out),
        }
        out
    }

    /// **The** collide–stream body: from `list[start..]`, take `V::WIDTH`
    /// cells at a time — gather them direction by direction into lanes,
    /// collide the lanes together, scatter each lane's row — and return
    /// the index of the first cell left over (fewer than `WIDTH` remain).
    ///
    /// Deferring a lane's scatter past another lane's gather cannot change
    /// what either observes: AB gathers never read the destination array,
    /// and distinct cells' AA slot sets are pairwise disjoint.
    #[inline(always)]
    // `lane` indexes three arrays, not just the one the loop walks.
    #[allow(clippy::needless_range_loop)]
    fn sweep<V: Lane<R>, S: Stream, L: LayoutIdx>(
        &self,
        a: &Arrays<'_, R>,
        kind: Kind,
        list: &[u32],
        start: usize,
    ) -> usize {
        let (w, n) = (V::WIDTH, self.n);
        debug_assert!(w <= VEC_MAXW);
        let mut i = start;
        while i + w <= list.len() {
            let cells = &list[i..i + w];
            let mut rows = [&[0u32; Q19]; VEC_MAXW];
            for (row, &cell) in rows.iter_mut().zip(cells) {
                *row = &self.table[cell as usize];
            }
            let fin: [V; Q19] = std::array::from_fn(|q| {
                let mut lanes = [R::ZERO; VEC_MAXW];
                for lane in 0..w {
                    lanes[lane] = a.read::<S>(S::slot::<L>(rows[lane], n, cells[lane] as usize, q));
                }
                V::load(&lanes)
            });
            let mut fout = [[R::ZERO; VEC_MAXW]; Q19];
            for (out, v) in fout.iter_mut().zip(self.collide::<V>(kind, cells, &fin)) {
                v.store(out);
            }
            // Each lane's row in turn: measured 4-5% faster than direction
            // by direction on the AB rows beyond L3, no slower in cache.
            for lane in 0..w {
                for (q, out) in fout.iter().enumerate() {
                    let to = self.target::<S, L>(rows[lane], cells[lane] as usize, q);
                    // SAFETY: the slot belongs to `cell`'s slot set alone —
                    // its own destination row for AB, its gather set for AA
                    // (module docs) — and is below `slot_count`.
                    unsafe { a.dst.write(to, out[lane]) };
                }
            }
            i += w;
        }
        i
    }

    /// Update every cell with id in `cells`: bulk cells `V::WIDTH` at a
    /// time, then the bulk remainder and the few inlet/outlet cells through
    /// the `V = R` instantiation of the same body.
    fn update_range<V: Lane<R>, S: Stream, L: LayoutIdx>(
        &self,
        a: &Arrays<'_, R>,
        cells: std::ops::Range<usize>,
    ) {
        let kinds = self.kinds;
        let bulk = kinds.bulk.in_range(cells.start, cells.end);
        let rest = self.sweep::<V, S, L>(a, Kind::Bulk, bulk, 0);
        self.sweep::<R, S, L>(a, Kind::Bulk, bulk, rest);
        let inlet = kinds.inlet.in_range(cells.start, cells.end);
        self.sweep::<R, S, L>(a, Kind::Inlet, inlet, 0);
        let outlet = kinds.outlet.in_range(cells.start, cells.end);
        self.sweep::<R, S, L>(a, Kind::Outlet, outlet, 0);
    }

    /// One sweep of stream `S` over the whole mesh, on `workers` logical
    /// workers of the shared pool. Any partition of the cell range is
    /// race-free and bit-identical to serial (module docs).
    fn run<S: Stream, L: LayoutIdx>(
        &self,
        simd: SimdPath,
        src: &[R],
        dst: &mut [R],
        workers: usize,
    ) {
        pool::global().par_owner_mut_workers(dst, self.n, workers, |cells, dst| {
            let a = Arrays {
                src,
                halo: self.halo,
                dst,
            };
            match simd {
                SimdPath::Scalar => self.update_range::<R, S, L>(&a, cells),
                SimdPath::Vector => self.update_range::<R::Wide, S, L>(&a, cells),
            }
        });
    }

    fn advance_in<L: LayoutIdx>(
        &self,
        propagation: Propagation,
        even: bool,
        simd: SimdPath,
        f: &mut Vec<R>,
        f_tmp: &mut Vec<R>,
        workers: usize,
    ) {
        match propagation {
            Propagation::Ab => {
                self.run::<AbPull, L>(simd, f, f_tmp, workers);
                std::mem::swap(f, f_tmp);
            }
            Propagation::Aa if even => self.run::<AaEven, L>(simd, &[], f, workers),
            Propagation::Aa => self.run::<AaOdd, L>(simd, &[], f, workers),
        }
    }

    /// Advance `f` one timestep of `kernel`: AB pulls `f` into `f_tmp` and
    /// swaps them; AA updates `f` in place, the cell-local step when
    /// `even` steps have been taken so far, else the streaming step.
    fn advance(
        &self,
        kernel: &KernelConfig,
        even: bool,
        simd: SimdPath,
        f: &mut Vec<R>,
        f_tmp: &mut Vec<R>,
        workers: usize,
    ) {
        match kernel.layout {
            Layout::Aos => {
                self.advance_in::<AosIdx>(kernel.propagation, even, simd, f, f_tmp, workers)
            }
            Layout::Soa => {
                self.advance_in::<SoaIdx>(kernel.propagation, even, simd, f, f_tmp, workers)
            }
        }
    }
}

impl Solver {
    /// Initialize the solver at rest (`ρ = 1`, `u = 0`) and precompute the
    /// inlet Poiseuille profile. Metrics bind to the global registry; use
    /// [`Solver::new_in`] to bind elsewhere.
    pub fn new(mesh: FluidMesh, config: SolverConfig) -> Self {
        Self::new_in(mesh, config, hemocloud_obs::global())
    }

    /// [`Solver::new`] with an explicit metrics registry. The mesh's
    /// neighbor rows become the slot table (module docs).
    ///
    /// # Panics
    /// On a bad `config`, or when the mesh's slots do not fit `u32`
    /// table entries.
    pub fn new_in(mesh: FluidMesh, config: SolverConfig, registry: &Registry) -> Self {
        Self::with_halo(mesh, config, registry, Vec::new(), |_, _| None)
    }

    /// [`Solver::new_in`] for a ranked run: halo row `k` copies cell
    /// `copies[k]`, and `copy_of(cell, from)` names the halo row `cell`
    /// reads `from`'s slots through (`None` reads them live).
    pub(crate) fn with_halo(
        mesh: FluidMesh,
        config: SolverConfig,
        registry: &Registry,
        copies: Vec<u32>,
        copy_of: impl Fn(usize, usize) -> Option<usize>,
    ) -> Self {
        config.check();
        assert!(
            config.kernel.precision != Precision::Quad,
            "Quad precision is model-only; runtime storage is f32 or f64"
        );
        let n = mesh.len();
        slot_count(n, copies.len());
        let store = match config.kernel.precision {
            Precision::Single => Store::F32(Lattice::new(&mesh, &config, copies.len())),
            _ => Store::F64(Lattice::new(&mesh, &config, copies.len())),
        };
        let kinds = KindLists::build(&mesh);
        let mut table = mesh.into_neighbors();
        let propagation = config.kernel.propagation;
        let write_backs = match config.kernel.layout {
            Layout::Aos => resolve::<AosIdx>(&mut table, n, propagation, copy_of),
            Layout::Soa => resolve::<SoaIdx>(&mut table, n, propagation, copy_of),
        };
        Self {
            n,
            table,
            copies,
            write_backs,
            store,
            config,
            kinds,
            steps_taken: 0,
            obs: SolverObs::from_registry(registry),
        }
    }

    /// Rebind this solver's metrics to `registry` (default: the global
    /// registry). Tests use private registries so `cargo test`'s
    /// process-level parallelism cannot cross-pollute their counters.
    pub fn use_registry(&mut self, registry: &Registry) {
        self.obs = SolverObs::from_registry(registry);
    }
}

/// Prescribed inlet velocities for a mesh: a parabolic (Poiseuille) profile
/// over the inlet cross-section. Returns a per-cell slot vector
/// (`u32::MAX` for non-inlet cells) and the per-inlet-cell velocities.
fn poiseuille_profile_for(mesh: &FluidMesh, config: &SolverConfig) -> (Vec<u32>, Vec<[f64; 3]>) {
    let inlets = mesh.cells_of_type(CellType::Inlet);
    let mut slot = vec![u32::MAX; mesh.len()];
    if inlets.is_empty() {
        return (slot, Vec::new());
    }
    let d = config.flow_dir;
    let dn = (d.0 * d.0 + d.1 * d.1 + d.2 * d.2).sqrt();
    assert!(dn > 0.0, "flow direction must be nonzero");
    let d = (d.0 / dn, d.1 / dn, d.2 / dn);

    // Centroid of the inlet cells.
    let mut cx = 0.0;
    let mut cy = 0.0;
    let mut cz = 0.0;
    for &cell in &inlets {
        let (x, y, z) = mesh.coords(cell);
        cx += x as f64;
        cy += y as f64;
        cz += z as f64;
    }
    let inv = 1.0 / inlets.len() as f64;
    let (cx, cy, cz) = (cx * inv, cy * inv, cz * inv);

    // Radial distance of each inlet cell from the flow axis.
    let radial = |x: f64, y: f64, z: f64| -> f64 {
        let (px, py, pz) = (x - cx, y - cy, z - cz);
        let along = px * d.0 + py * d.1 + pz * d.2;
        let (rx, ry, rz) = (px - along * d.0, py - along * d.1, pz - along * d.2);
        (rx * rx + ry * ry + rz * rz).sqrt()
    };
    let mut r_max = 0.0f64;
    let mut radii = Vec::with_capacity(inlets.len());
    for &cell in &inlets {
        let (x, y, z) = mesh.coords(cell);
        let r = radial(x as f64, y as f64, z as f64);
        r_max = r_max.max(r);
        radii.push(r);
    }
    let r_edge = r_max + 0.5; // wall sits half a voxel beyond the last cell

    let mut vel = Vec::with_capacity(inlets.len());
    for (&cell, &r) in inlets.iter().zip(&radii) {
        let u = config.u_max * (1.0 - (r / r_edge) * (r / r_edge));
        slot[cell] = vel.len() as u32;
        vel.push([u * d.0, u * d.1, u * d.2]);
    }
    (slot, vel)
}

impl Solver {
    /// Solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Number of timesteps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Whether the distributions are currently in natural storage order:
    /// always for AB; for AA only after an even number of steps (mid-pair
    /// the array holds the rotated even-step state).
    pub fn in_natural_order(&self) -> bool {
        match self.config.kernel.propagation {
            Propagation::Ab => true,
            Propagation::Aa => self.steps_taken.is_multiple_of(2),
        }
    }

    /// Bytes resident in distribution arrays (`f` plus `f_tmp` when the
    /// propagation pattern allocates it), at the configured storage
    /// precision. AA configs hold exactly one array — the "halved solver memory" the per-task
    /// accounting in `hemocloud_decomp::halo::resident_bytes_per_task`
    /// prices.
    pub fn distribution_bytes(&self) -> usize {
        match &self.store {
            Store::F64(lattice) => lattice.distribution_bytes(self.n),
            Store::F32(lattice) => lattice.distribution_bytes(self.n),
        }
    }

    /// The instruction path the hot loops execute ([`SimdPath::label`]):
    /// `"avx2"` or `"scalar"`. Benchmark provenance records this per row.
    pub fn simd_label(&self) -> &'static str {
        self.config.simd.label()
    }

    /// The logical worker count [`Solver::step`] uses: the pool's width
    /// when parallelism is enabled and the mesh is large enough to amortize
    /// the dispatch, else one.
    pub(crate) fn default_workers(&self) -> usize {
        if self.config.parallel && self.n >= PARALLEL_THRESHOLD {
            pool::global().threads()
        } else {
            1
        }
    }

    /// Advance one timestep.
    pub fn step(&mut self) {
        self.step_with_workers(self.default_workers());
    }

    /// Advance one timestep with an explicit logical worker count (≥ 1).
    /// Results are bit-identical for every count — the partition of the
    /// cell range never reorders any cell's arithmetic — so equivalence
    /// tests can pin the schedule without a host-width pool.
    pub fn step_with_workers(&mut self, workers: usize) {
        let start = std::time::Instant::now();
        self.advance(workers);
        self.obs.record_step(&self.kinds, start.elapsed().as_secs_f64());
    }

    /// The one step path of global and ranked runs, recording no metrics.
    /// A ranked step reads other ranks' cells from the halo copies
    /// [`Solver::exchange`] refreshed.
    pub(crate) fn advance(&mut self, workers: usize) {
        let even = self.steps_taken.is_multiple_of(2);
        let (table, kinds, config) = (&self.table[..], &self.kinds, &self.config);
        let write_backs = &self.write_backs[..];
        match &mut self.store {
            Store::F64(l) => l.advance(table, kinds, config, even, workers, write_backs),
            Store::F32(l) => l.advance(table, kinds, config, even, workers, write_backs),
        }
        self.steps_taken += 1;
    }

    /// The exchange phase of a ranked step: copy every halo row's cell
    /// into it, so [`Solver::advance`] reads the values of the exchange.
    pub(crate) fn exchange(&mut self) {
        let (n, cells) = (self.n, &self.copies[..]);
        match (&mut self.store, self.config.kernel.layout) {
            (Store::F64(l), Layout::Aos) => l.exchange::<AosIdx>(n, cells),
            (Store::F64(l), Layout::Soa) => l.exchange::<SoaIdx>(n, cells),
            (Store::F32(l), Layout::Aos) => l.exchange::<AosIdx>(n, cells),
            (Store::F32(l), Layout::Soa) => l.exchange::<SoaIdx>(n, cells),
        }
    }

    /// Run `steps` timesteps and report throughput.
    pub fn run(&mut self, steps: u64) -> RunStats {
        let start = std::time::Instant::now();
        for _ in 0..steps {
            self.step();
        }
        let seconds = start.elapsed().as_secs_f64();
        let updates = steps * self.n as u64;
        RunStats {
            updates,
            seconds,
            mflups: if seconds > 0.0 {
                updates as f64 / seconds / 1e6
            } else {
                0.0
            },
        }
    }

    /// Density and velocity at a fluid cell.
    ///
    /// # Panics
    /// Panics when an AA state is mid-pair (odd step count): the rotated
    /// in-place storage is only readable in natural order.
    pub fn macroscopics(&self, cell: usize) -> (f64, f64, f64, f64) {
        assert!(
            self.in_natural_order(),
            "AA state is only readable after an even number of steps"
        );
        let (layout, n) = (self.config.kernel.layout, self.n);
        // Widen the stored row once; the moment arithmetic then runs in f64
        // so readout roundoff never stacks on f32 storage roundoff.
        let slot = |q| flat_index(layout, cell, q, n);
        let row = match &self.store {
            Store::F64(lattice) => widen(&lattice.f, slot),
            Store::F32(lattice) => widen(&lattice.f, slot),
        };
        macroscopics_d3q19(&row)
    }

    /// Density and velocity of the *post-stream* state at a cell: moments
    /// of the gathered (streamed, pre-collision) distributions, without
    /// advancing the simulation. Only meaningful for AB configs.
    ///
    /// This exists for the AA/AB equivalence check, mirroring
    /// [`crate::proxy::ProxyApp::post_stream_macroscopics`]: from the
    /// stream-invariant rest start, the AA array after an even number of
    /// steps equals the AB array with one extra streaming applied
    /// (`AA_2k = S(AB_2k)`), so AA's natural-order moments must match
    /// AB's post-stream moments exactly.
    ///
    /// # Panics
    /// Panics for AA configs.
    pub fn post_stream_macroscopics(&self, cell: usize) -> (f64, f64, f64, f64) {
        assert!(
            matches!(self.config.kernel.propagation, Propagation::Ab),
            "post-stream readout is defined for AB configs"
        );
        let (layout, n) = (self.config.kernel.layout, self.n);
        // A halo row is read through to the live slots it copies.
        let slot = |q| match self.table[cell * Q19 + q] as usize {
            live if live < n * Q19 => live,
            copy => flat_index(layout, self.copies[copy / Q19 - n] as usize, copy % Q19, n),
        };
        let fin = match &self.store {
            Store::F64(lattice) => widen(&lattice.f, slot),
            Store::F32(lattice) => widen(&lattice.f, slot),
        };
        macroscopics_d3q19(&fin)
    }

    /// Total mass (sum of densities over all cells).
    pub fn total_mass(&self) -> f64 {
        (0..self.n).map(|c| self.macroscopics(c).0).sum()
    }

    /// Maximum velocity magnitude over all cells.
    pub fn max_velocity(&self) -> f64 {
        (0..self.n)
            .map(|c| {
                let (_, ux, uy, uz) = self.macroscopics(c);
                (ux * ux + uy * uy + uz * uz).sqrt()
            })
            .fold(0.0, f64::max)
    }

    /// Raw distribution access for checkpoint/equivalence tests (storage
    /// order: the configured layout; natural direction order only when
    /// [`Solver::in_natural_order`]).
    ///
    /// # Panics
    /// Panics for [`Precision::Single`] solvers — use
    /// [`Solver::distributions_f32`].
    pub fn distributions(&self) -> &[f64] {
        match &self.store {
            Store::F64(lattice) => &lattice.f[..self.n * Q19],
            Store::F32(_) => {
                panic!("distributions() is f64; this solver stores f32 — use distributions_f32()")
            }
        }
    }

    /// Raw f32 distribution access — the [`Precision::Single`] counterpart
    /// of [`Solver::distributions`].
    ///
    /// # Panics
    /// Panics for f64 solvers.
    pub fn distributions_f32(&self) -> &[f32] {
        match &self.store {
            Store::F32(lattice) => &lattice.f[..self.n * Q19],
            Store::F64(_) => {
                panic!("distributions_f32() is f32; this solver stores f64 — use distributions()")
            }
        }
    }

    /// Add `delta` to the rest population of the first fluid cell — a
    /// local mass/pressure perturbation, useful for conservation tests and
    /// relaxation demos. (The rest population of cell 0 is flat index 0 in
    /// both layouts; for AA the state must be in natural order.)
    pub fn bump_first_cell(&mut self, delta: f64) {
        assert!(
            self.in_natural_order(),
            "AA state is only writable after an even number of steps"
        );
        match &mut self.store {
            Store::F64(lattice) => lattice.f[0] += delta,
            Store::F32(lattice) => lattice.f[0] += delta as f32,
        }
    }
}

/// The 19 values at `slot(q)`, widened to f64 for readout.
fn widen<R: Real>(f: &[R], slot: impl Fn(usize) -> usize) -> [f64; Q19] {
    std::array::from_fn(|q| f[slot(q)].to_f64())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_geometry::classify::classify_walls;
    use hemocloud_geometry::voxel::VoxelGrid;
    use hemocloud_rt::check::{self, Config};

    fn closed_box_solver() -> Solver {
        // A sealed box: no inlets/outlets, so mass is exactly conserved.
        let mut g = VoxelGrid::filled(6, 6, 6, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        Solver::new(FluidMesh::build(&g), SolverConfig::default())
    }

    fn cylinder_mesh() -> FluidMesh {
        let g = CylinderSpec::default()
            .with_dimensions(3.0, 12.0)
            .with_resolution(8)
            .build();
        FluidMesh::build(&g)
    }

    fn config_for(kernel: KernelConfig) -> SolverConfig {
        SolverConfig {
            parallel: false,
            kernel,
            ..Default::default()
        }
    }

    #[test]
    fn equilibrium_rest_state_is_stationary() {
        let mut s = closed_box_solver();
        let before = s.distributions().to_vec();
        for _ in 0..5 {
            s.step();
        }
        for (a, b) in before.iter().zip(s.distributions()) {
            assert!((a - b).abs() < 1e-14, "rest state drifted: {a} vs {b}");
        }
    }

    #[test]
    fn rest_state_is_stationary_for_every_kernel_config() {
        let mut g = VoxelGrid::filled(6, 6, 6, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        let mesh = FluidMesh::build(&g);
        for prop in [Propagation::Ab, Propagation::Aa] {
            for layout in [Layout::Aos, Layout::Soa] {
                let mut s = Solver::new(
                    mesh.clone(),
                    config_for(KernelConfig::sparse(prop, layout)),
                );
                for _ in 0..4 {
                    s.step();
                }
                for cell in 0..mesh.len() {
                    let (rho, ux, uy, uz) = s.macroscopics(cell);
                    assert!((rho - 1.0).abs() < 1e-13, "{prop:?}/{layout:?}");
                    assert!(ux.abs() < 1e-13 && uy.abs() < 1e-13 && uz.abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn closed_box_conserves_mass() {
        let mut s = closed_box_solver();
        // Perturb through the public API: bump one cell's rest population.
        s.bump_first_cell(0.01);
        let m0 = s.total_mass();
        for _ in 0..50 {
            s.step();
        }
        let m1 = s.total_mass();
        assert!(
            (m0 - m1).abs() < 1e-9 * m0,
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn aa_closed_box_conserves_mass() {
        let mut g = VoxelGrid::filled(6, 6, 6, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        let mut s = Solver::new(
            FluidMesh::build(&g),
            config_for(KernelConfig::sparse(Propagation::Aa, Layout::Aos)),
        );
        s.bump_first_cell(0.01);
        let m0 = s.total_mass();
        for _ in 0..50 {
            s.step();
        }
        let m1 = s.total_mass();
        assert!((m0 - m1).abs() < 1e-9 * m0, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn bump_first_cell_touches_only_the_rest_population() {
        let mut s = closed_box_solver();
        let before = s.distributions().to_vec();
        let (rho0, ux0, uy0, uz0) = s.macroscopics(0);
        s.bump_first_cell(0.01);
        let after = s.distributions();
        // Exactly one entry changed: the rest population (q = 0) of cell 0.
        assert_eq!(after[0], before[0] + 0.01);
        for (i, (a, b)) in after.iter().zip(&before).enumerate().skip(1) {
            assert_eq!(a, b, "entry {i} changed");
        }
        // The rest direction carries no momentum: density rises, velocity
        // momentum is untouched (velocity = momentum / density).
        let (rho1, ux1, uy1, uz1) = s.macroscopics(0);
        assert_eq!(rho1, rho0 + 0.01);
        assert_eq!(ux1 * rho1, ux0 * rho0);
        assert_eq!(uy1 * rho1, uy0 * rho0);
        assert_eq!(uz1 * rho1, uz0 * rho0);
    }

    #[test]
    fn perturbation_decays_in_closed_box() {
        let mut s = closed_box_solver();
        s.bump_first_cell(0.01);
        for _ in 0..300 {
            s.step();
        }
        // Viscous dissipation returns the box to (a) rest.
        assert!(s.max_velocity() < 1e-4, "v = {}", s.max_velocity());
    }

    #[test]
    fn cylinder_flow_develops_and_stays_stable() {
        let g = CylinderSpec::default()
            .with_dimensions(3.0, 15.0)
            .with_resolution(8)
            .build();
        let mut s = Solver::new(FluidMesh::build(&g), SolverConfig::default());
        for _ in 0..200 {
            s.step();
        }
        let vmax = s.max_velocity();
        assert!(vmax > 0.2 * s.config.u_max, "flow failed to develop: {vmax}");
        assert!(vmax < 3.0 * s.config.u_max, "flow blew up: {vmax}");
        assert!(s.distributions().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aa_moments_match_ab_post_stream_on_the_sparse_mesh() {
        // The sparse-mesh twin of the proxy's AA/AB equivalence: from the
        // shared rest start, after an even number of steps the AA state is
        // the AB state with one extra streaming applied, at every fluid
        // cell (bulk, wall, inlet, and outlet alike).
        let mesh = cylinder_mesh();
        let mut ab = Solver::new(mesh.clone(), config_for(KernelConfig::harvey()));
        for _ in 0..24 {
            ab.step();
        }
        for layout in [Layout::Aos, Layout::Soa] {
            let mut aa = Solver::new(
                mesh.clone(),
                config_for(KernelConfig::sparse(Propagation::Aa, layout)),
            );
            for _ in 0..24 {
                aa.step();
            }
            assert!(aa.in_natural_order());
            for cell in 0..mesh.len() {
                let (r0, x0, y0, z0) = ab.post_stream_macroscopics(cell);
                let (r1, x1, y1, z1) = aa.macroscopics(cell);
                assert!(
                    (r0 - r1).abs() < 1e-12
                        && (x0 - x1).abs() < 1e-12
                        && (y0 - y1).abs() < 1e-12
                        && (z0 - z1).abs() < 1e-12,
                    "AA/{layout:?} diverged at cell {cell}: rho {r0} vs {r1}"
                );
            }
        }
    }

    #[test]
    fn soa_matches_aos_macroscopics_exactly() {
        // Layout is pure storage: identical arithmetic per cell, so the
        // moments agree bitwise for both propagation patterns.
        let mesh = cylinder_mesh();
        for prop in [Propagation::Ab, Propagation::Aa] {
            let mut aos = Solver::new(
                mesh.clone(),
                config_for(KernelConfig::sparse(prop, Layout::Aos)),
            );
            let mut soa = Solver::new(
                mesh.clone(),
                config_for(KernelConfig::sparse(prop, Layout::Soa)),
            );
            for _ in 0..10 {
                aos.step();
                soa.step();
            }
            for cell in 0..mesh.len() {
                assert_eq!(aos.macroscopics(cell), soa.macroscopics(cell), "{prop:?}");
            }
        }
    }

    #[test]
    fn aa_never_allocates_the_scratch_array() {
        let mesh = cylinder_mesh();
        let n = mesh.len();
        let mut aa = Solver::new(
            mesh.clone(),
            config_for(KernelConfig::sparse(Propagation::Aa, Layout::Aos)),
        );
        let mut ab = Solver::new(mesh, config_for(KernelConfig::harvey()));
        for _ in 0..6 {
            aa.step();
            ab.step();
        }
        assert_eq!(aa.distribution_bytes(), n * Q19 * 8, "AA must hold one array");
        assert_eq!(ab.distribution_bytes(), 2 * n * Q19 * 8);
        assert_eq!(aa.distribution_bytes() * 2, ab.distribution_bytes());
    }

    #[test]
    fn aa_state_unreadable_mid_pair() {
        let mut s = Solver::new(
            cylinder_mesh(),
            config_for(KernelConfig::sparse(Propagation::Aa, Layout::Aos)),
        );
        s.step();
        assert!(!s.in_natural_order());
        s.step();
        assert!(s.in_natural_order());
    }

    #[test]
    fn stepping_never_spawns_threads_beyond_the_pool() {
        // The motivating bug for the pool: `step()` used to spawn and
        // join fresh OS threads on every call. Now thread spawns are
        // bounded by the pool's fixed complement for an entire run.
        let pool = hemocloud_rt::pool::global();
        let spawned_before = pool.spawned_threads();
        assert!(
            spawned_before < pool.threads(),
            "pool spawns are bounded by its width minus the caller"
        );
        let g = CylinderSpec::default()
            .with_dimensions(3.0, 12.0)
            .with_resolution(8)
            .build();
        for kernel in [
            KernelConfig::harvey(),
            KernelConfig::sparse(Propagation::Aa, Layout::Soa),
        ] {
            let mut s = Solver::new(
                FluidMesh::build(&g),
                SolverConfig {
                    kernel,
                    ..Default::default()
                },
            );
            for _ in 0..100 {
                s.step_with_workers(pool.threads());
            }
            assert!(s.distributions().iter().all(|v| v.is_finite()));
        }
        assert_eq!(
            pool.spawned_threads(),
            spawned_before,
            "200 steps must not spawn a single extra OS thread"
        );
    }

    #[test]
    fn inlet_profile_is_parabolic() {
        let g = CylinderSpec::default()
            .with_dimensions(4.0, 12.0)
            .with_resolution(12)
            .build();
        let config = SolverConfig::default();
        let (_, vel) = poiseuille_profile_for(&FluidMesh::build(&g), &config);
        // Peak prescribed velocity is near u_max, edge velocities near 0.
        let peak = vel
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .fold(0.0f64, f64::max);
        assert!(peak > 0.8 * config.u_max, "peak = {peak}");
        assert!(peak <= config.u_max + 1e-12);
    }

    #[test]
    fn both_constructors_reject_a_bad_config_naming_the_field() {
        // The cylinder has inlets, so a non-finite `u_max` or `flow_dir`
        // would reach the Poiseuille profile and from there every cell.
        use crate::ranked::{RankAssignment, RankedSolver};
        let mesh = cylinder_mesh();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let ok = SolverConfig::default();
        let cases = [
            ("tau must exceed 1/2", SolverConfig { tau: 0.4, ..ok }),
            ("tau must be finite", SolverConfig { tau: nan, ..ok }),
            ("tau must be finite", SolverConfig { tau: inf, ..ok }),
            ("u_max must be finite", SolverConfig { u_max: nan, ..ok }),
            ("u_max must be finite", SolverConfig { u_max: -inf, ..ok }),
            ("flow_dir must be finite", SolverConfig { flow_dir: (0.0, nan, 1.0), ..ok }),
            ("flow_dir must be finite", SolverConfig { flow_dir: (inf, 0.0, 0.0), ..ok }),
        ];
        let message = |result: std::thread::Result<()>| {
            let payload = result.expect_err("a bad config was accepted");
            match payload.downcast_ref::<String>() {
                Some(s) => s.clone(),
                None => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
            }
        };
        for (expected, config) in cases {
            let global = std::panic::catch_unwind(|| {
                Solver::new(mesh.clone(), config);
            });
            let ranked = std::panic::catch_unwind(|| {
                let one_rank = RankAssignment::new(vec![0; mesh.len()], 1);
                RankedSolver::new(mesh.clone(), one_rank, config);
            });
            for (which, result) in [("Solver", global), ("RankedSolver", ranked)] {
                let got = message(result);
                assert!(
                    got.contains(expected),
                    "{which} with {config:?}: expected {expected:?}, got {got:?}"
                );
            }
        }
    }

    // ---- KindList::in_range --------------------------------------------

    fn identity_list(cells: &[u32]) -> KindList {
        KindList {
            cells: cells.to_vec(),
        }
    }

    #[test]
    fn in_range_of_empty_list_is_empty() {
        let empty = identity_list(&[]);
        assert!(empty.in_range(0, 0).is_empty());
        assert!(empty.in_range(0, 100).is_empty());
        assert!(empty.in_range(50, 60).is_empty());
    }

    #[test]
    fn in_range_splits_a_list_at_interior_boundaries() {
        let list = identity_list(&[2, 5, 9]);
        assert_eq!(list.in_range(0, 3), &[2]);
        assert_eq!(list.in_range(3, 9), &[5]);
        assert_eq!(list.in_range(9, 10), &[9]);
        assert_eq!(list.in_range(0, 10), &[2, 5, 9]);
        assert_eq!(list.in_range(5, 6), &[5]);
        assert_eq!(list.in_range(6, 9), &[] as &[u32]);
    }

    #[test]
    fn in_range_with_first_equal_to_end_is_empty() {
        let list = identity_list(&[2, 5, 9]);
        for at in 0..11 {
            assert!(list.in_range(at, at).is_empty(), "[{at}, {at}) must be empty");
        }
    }

    #[test]
    fn in_range_subranges_partition_each_kind_list_exactly() {
        // Property: for any random kind partition of 0..n and any random
        // chunk partition of the cell range, concatenating the per-chunk
        // sub-ranges reproduces each kind list exactly — the invariant the
        // parallel sweep relies on for full, duplicate-free coverage.
        check::run(
            "in_range_subranges_partition_each_kind_list_exactly",
            Config::cases(32),
            |rng| {
                let n = rng.range_usize(1, 400);
                let mut lists = [(); 3].map(|_| identity_list(&[]));
                for cell in 0..n as u32 {
                    lists[rng.range_usize(0, 3)].cells.push(cell);
                }
                // Random ascending chunk boundaries over [0, n].
                let mut cuts = vec![0usize, n];
                for _ in 0..rng.range_usize(0, 8) {
                    cuts.push(rng.range_usize(0, n + 1));
                }
                cuts.sort_unstable();
                for list in &lists {
                    let mut rebuilt = Vec::new();
                    for pair in cuts.windows(2) {
                        rebuilt.extend_from_slice(list.in_range(pair[0], pair[1]));
                    }
                    assert_eq!(rebuilt, list.cells, "chunked sub-ranges lost or duplicated cells");
                }
            },
        );
    }

    // ---- the execution oracle -------------------------------------------

    /// The meshes the oracles run on: the inlet/outlet cylinder plus sealed
    /// boxes whose bulk lists are not multiples of any lane width (4 for
    /// f64, 8 for f32), so every sweep ends in remainder cells.
    pub(crate) fn oracle_meshes() -> Vec<(String, FluidMesh)> {
        let mut meshes = vec![("cylinder".to_string(), cylinder_mesh())];
        for (nx, ny, nz) in [(3usize, 3, 3), (4, 3, 5), (5, 5, 2), (6, 5, 4)] {
            let mut g = VoxelGrid::filled(nx, ny, nz, 1.0, CellType::Bulk);
            classify_walls(&mut g);
            meshes.push((format!("{nx}x{ny}x{nz} box"), FluidMesh::build(&g)));
        }
        meshes
    }

    /// Both lane types: the scalar reference and the wide lanes.
    pub(crate) fn oracle_execs() -> [SimdPath; 2] {
        [SimdPath::Scalar, SimdPath::Vector]
    }

    /// Steps every oracle run takes: odd, so AA is compared mid-pair too.
    pub(crate) const ORACLE_STEPS: usize = 13;

    /// The raw stored distributions, whatever the precision.
    pub(crate) fn stored_bits(s: &Solver) -> Vec<u64> {
        match &s.store {
            Store::F64(_) => s.distributions().iter().map(|v| v.to_bits()).collect(),
            Store::F32(_) => s
                .distributions_f32()
                .iter()
                .map(|v| u64::from(v.to_bits()))
                .collect(),
        }
    }

    #[test]
    fn every_exec_and_worker_count_matches_the_scalar_reference_bitwise() {
        // The one oracle the single collide–stream body rests on: for
        // every propagation × layout × precision, every lane type and
        // 1/2/3/8 logical workers store exactly the bits of the scalar,
        // one-worker run — on the cylinder (inlet and outlet cells) and on
        // awkward-size boxes (remainder lanes), perturbed so the fields are
        // not at rest.
        let run = |mesh: &FluidMesh, kernel, simd, workers| {
            let config = SolverConfig {
                simd,
                ..config_for(kernel)
            };
            let mut s = Solver::new(mesh.clone(), config);
            s.bump_first_cell(0.01);
            for _ in 0..ORACLE_STEPS {
                s.step_with_workers(workers);
            }
            stored_bits(&s)
        };
        for (name, mesh) in oracle_meshes() {
            for precision in [Precision::Double, Precision::Single] {
                for prop in [Propagation::Ab, Propagation::Aa] {
                    for layout in [Layout::Aos, Layout::Soa] {
                        let kernel = KernelConfig::sparse_with_precision(prop, layout, precision);
                        let reference = run(&mesh, kernel, SimdPath::Scalar, 1);
                        for exec in oracle_execs() {
                            for workers in [1usize, 2, 3, 8] {
                                assert!(
                                    reference == run(&mesh, kernel, exec, workers),
                                    "{} diverged on the {name}: {exec:?}, {workers} workers",
                                    kernel.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f32_cylinder_flow_tracks_f64_within_tolerance() {
        // The accuracy oracle that pins Precision::Single: the developing
        // Poiseuille inlet flow at f32 storage must track the f64 solution
        // to single-precision roundoff accumulation, not just stay finite.
        let mesh = cylinder_mesh();
        let mut d = Solver::new(mesh.clone(), config_for(KernelConfig::harvey()));
        let mut s = Solver::new(
            mesh.clone(),
            config_for(KernelConfig::sparse_with_precision(
                Propagation::Ab,
                Layout::Soa,
                Precision::Single,
            )),
        );
        for _ in 0..100 {
            d.step();
            s.step();
        }
        let mut max_drho = 0.0f64;
        let mut max_du = 0.0f64;
        for cell in 0..mesh.len() {
            let (r64, x64, y64, z64) = d.macroscopics(cell);
            let (r32, x32, y32, z32) = s.macroscopics(cell);
            assert!(r32.is_finite() && x32.is_finite());
            max_drho = max_drho.max((r64 - r32).abs());
            max_du = max_du
                .max((x64 - x32).abs())
                .max((y64 - y32).abs())
                .max((z64 - z32).abs());
        }
        assert!(max_drho < 1e-3, "density drift {max_drho} exceeds budget");
        assert!(max_du < 1e-4, "velocity drift {max_du} exceeds budget");
        assert!(d.max_velocity() > 1e-3, "flow failed to develop");
    }

    #[test]
    fn single_precision_halves_distribution_bytes() {
        let mesh = cylinder_mesh();
        let n = mesh.len();
        for prop in [Propagation::Ab, Propagation::Aa] {
            let arrays = if matches!(prop, Propagation::Ab) { 2 } else { 1 };
            let f64b = Solver::new(
                mesh.clone(),
                config_for(KernelConfig::sparse(prop, Layout::Soa)),
            )
            .distribution_bytes();
            let f32b = Solver::new(
                mesh.clone(),
                config_for(KernelConfig::sparse_with_precision(
                    prop,
                    Layout::Soa,
                    Precision::Single,
                )),
            )
            .distribution_bytes();
            assert_eq!(f64b, arrays * n * Q19 * 8, "{prop:?} f64");
            assert_eq!(f32b, arrays * n * Q19 * 4, "{prop:?} f32");
            assert_eq!(f64b, 2 * f32b, "{prop:?} halving");
        }
    }

    #[test]
    #[should_panic(expected = "use distributions_f32()")]
    fn f64_readout_of_f32_storage_panics() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        let s = Solver::new(
            FluidMesh::build(&g),
            config_for(KernelConfig::sparse_with_precision(
                Propagation::Ab,
                Layout::Soa,
                Precision::Single,
            )),
        );
        let _ = s.distributions();
    }

    #[test]
    #[should_panic(expected = "use distributions()")]
    fn f32_readout_of_f64_storage_panics() {
        let s = closed_box_solver();
        let _ = s.distributions_f32();
    }

    #[test]
    #[should_panic(expected = "Quad precision is model-only")]
    fn quad_precision_storage_is_rejected() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        let _ = Solver::new(
            FluidMesh::build(&g),
            config_for(KernelConfig::sparse_with_precision(
                Propagation::Ab,
                Layout::Soa,
                Precision::Quad,
            )),
        );
    }

    #[test]
    fn slot_count_admits_every_mesh_u32_entries_address() {
        let most = u32::MAX as usize / Q19;
        assert_eq!(slot_count(most, 0), most * Q19);
        assert_eq!(slot_count(most - 7, 7), most * Q19);
        assert_eq!(slot_count(1, 0), Q19);
    }

    #[test]
    #[should_panic(expected = "226050910 cells and 1 halo rows need 4294967309 slots")]
    fn slot_count_refuses_one_row_past_u32_naming_the_count() {
        slot_count(u32::MAX as usize / Q19, 1);
    }

    // ---- the per-read reference the slot table replaced -----------------

    /// AB pull as the sweep read it before the slot table: the value
    /// arriving along `q` sits in the `-c_q` neighbor's slot `q`; a solid
    /// link reflects the cell's own opposite-direction value.
    fn ab_source(row: &[u32], cell: usize, q: usize) -> (usize, usize) {
        match row[opposite(q)] {
            SOLID => (cell, opposite(q)),
            nb => (nb as usize, q),
        }
    }

    /// AA odd step as the sweep read it before the slot table: the
    /// `-c_q` neighbor's *opposite* slot; bounce-back folds onto the
    /// cell's own slot `q`.
    fn aa_odd_source(row: &[u32], cell: usize, q: usize) -> (usize, usize) {
        match row[opposite(q)] {
            SOLID => (cell, q),
            nb => (nb as usize, opposite(q)),
        }
    }

    /// `(cell, direction)` a step of `s` reads for `q` at `cell`, and the
    /// one it writes the post-collision value `q` to, from the mesh's
    /// neighbor row on every access.
    fn reference_access(
        s: &Solver,
        mesh: &FluidMesh,
        cell: usize,
        q: usize,
    ) -> ((usize, usize), (usize, usize)) {
        let row = mesh.neighbor_row(cell);
        match (s.config.kernel.propagation, s.in_natural_order()) {
            (Propagation::Ab, _) => (ab_source(row, cell, q), (cell, q)),
            (Propagation::Aa, true) => ((cell, q), (cell, opposite(q))),
            (Propagation::Aa, false) => (
                aa_odd_source(row, cell, q),
                aa_odd_source(row, cell, opposite(q)),
            ),
        }
    }

    /// A random grid: one-voxel axes, full boxes (fluid on every face of
    /// the grid), solid slabs or random lumps, with walls classified and
    /// some fluid cells turned inlet or outlet.
    pub(crate) fn lumpy_mesh(rng: &mut hemocloud_rt::rng::Rng) -> FluidMesh {
        loop {
            let [nx, ny, nz] = [(); 3].map(|_| rng.range_usize(1, 7));
            let mut g = VoxelGrid::filled(nx, ny, nz, 1.0, CellType::Bulk);
            let shape = rng.range_usize(0, 3);
            let (axis, at) = (rng.range_usize(0, 3), rng.range_usize(0, 6));
            let solid_p = rng.range_f64(0.1, 0.6);
            for i in 0..g.len() {
                let solid = match shape {
                    0 => false,
                    1 => [i % nx, i / nx % ny, i / (nx * ny)][axis] == at,
                    _ => rng.next_f64() < solid_p,
                };
                if solid {
                    g.set_linear(i, CellType::Solid);
                }
            }
            classify_walls(&mut g);
            for i in 0..g.len() {
                let u = rng.next_f64();
                if g.cells()[i].is_fluid() && u < 0.2 {
                    let kind = [CellType::Inlet, CellType::Outlet][usize::from(u >= 0.1)];
                    g.set_linear(i, kind);
                }
            }
            if g.fluid_count() > 0 {
                return FluidMesh::build(&g);
            }
        }
    }

    /// Hold the slot table of `s`, built from `mesh` with the rank of each
    /// cell in `owner` (`None`: a global run), to the per-read reference:
    /// every entry, every halo redirect, every scatter target and AA's
    /// write-backs. A redirect must point at a halo row that copies the
    /// cell read, in the slot of the direction read, and no row may serve
    /// two ranks.
    pub(crate) fn check_table(s: &Solver, mesh: &FluidMesh, owner: Option<&[u32]>) {
        let (n, layout) = (s.n, s.config.kernel.layout);
        let aa = s.config.kernel.propagation == Propagation::Aa;
        let sweep = Sweep {
            table: s.table.as_chunks().0,
            n,
            halo: &[],
            kinds: &s.kinds,
            omega: 1.0,
            inlet_slot: &[],
            inlet_vel: &[],
        };
        let at = |(c, d): (usize, usize)| flat_index(layout, c, d, n);
        // The live slot a table slot stands for.
        let live = |slot: usize| match slot.checked_sub(n * Q19) {
            None => slot,
            Some(copy) => at((s.copies[copy / Q19] as usize, copy % Q19)),
        };
        let (mut row_rank, mut write_backs) = (vec![None; s.copies.len()], Vec::new());
        for cell in 0..n {
            let row = mesh.neighbor_row(cell);
            let entries = &s.table.as_chunks::<Q19>().0[cell];
            for q in 0..Q19 {
                let what = format!("{} cell {cell} q {q}", s.config.kernel.name());
                let (from, dir) = if aa {
                    aa_odd_source(row, cell, q)
                } else {
                    ab_source(row, cell, q)
                };
                let entry = entries[q] as usize;
                assert_eq!(live(entry), at((from, dir)), "{what}");
                let remote = owner.filter(|o| o[from] != o[cell]);
                assert_eq!(entry >= n * Q19, remote.is_some(), "{what}: halo redirect");
                if let Some(o) = remote {
                    let rank = row_rank[(entry - n * Q19) / Q19].get_or_insert(o[cell]);
                    assert_eq!(*rank, o[cell], "{what}: a halo row serves two ranks");
                    if aa {
                        write_backs.push((entry as u32, live(entry) as u32));
                    }
                }
                let targets = match layout {
                    Layout::Aos => [
                        sweep.target::<AbPull, AosIdx>(entries, cell, q),
                        sweep.target::<AaEven, AosIdx>(entries, cell, q),
                        sweep.target::<AaOdd, AosIdx>(entries, cell, q),
                    ],
                    Layout::Soa => [
                        sweep.target::<AbPull, SoaIdx>(entries, cell, q),
                        sweep.target::<AaEven, SoaIdx>(entries, cell, q),
                        sweep.target::<AaOdd, SoaIdx>(entries, cell, q),
                    ],
                };
                let expected = [
                    at((cell, q)),
                    at((cell, opposite(q))),
                    at(aa_odd_source(row, cell, opposite(q))),
                ];
                let checked = if aa { 1..3 } else { 0..1 };
                for i in checked {
                    assert_eq!(live(targets[i]), expected[i], "{what}: scatter target {i}");
                }
            }
        }
        assert!(
            row_rank.iter().all(Option::is_some),
            "a halo row no read uses"
        );
        let mut got = s.write_backs.clone();
        got.sort_unstable();
        write_backs.sort_unstable();
        assert_eq!(got, write_backs, "AA write-backs");
    }

    /// Set every distribution of `s` to a random positive value.
    pub(crate) fn randomize(s: &mut Solver, rng: &mut hemocloud_rt::rng::Rng) {
        match &mut s.store {
            Store::F64(l) => l.f.iter_mut().for_each(|v| *v = rng.range_f64(0.01, 0.1)),
            Store::F32(l) => {
                l.f.iter_mut()
                    .for_each(|v| *v = rng.range_f64(0.01, 0.1) as f32)
            }
        }
    }

    /// The stored bits one step of `s` from its current state leaves, by
    /// the per-read reference gather and scatter and the sweep's collision.
    pub(crate) fn reference_step(s: &Solver, mesh: &FluidMesh) -> Vec<u64> {
        fn step<R: Real>(s: &Solver, mesh: &FluidMesh, l: &Lattice<R>) -> Vec<R> {
            let (n, layout) = (s.n, s.config.kernel.layout);
            let sweep = Sweep {
                table: &[],
                n,
                halo: &[],
                kinds: &s.kinds,
                omega: R::from_f64(1.0 / s.config.tau),
                inlet_slot: &l.inlet_slot,
                inlet_vel: &l.inlet_vel,
            };
            let mut out = l.f[..n * Q19].to_vec();
            let kinds = [
                (Kind::Bulk, &s.kinds.bulk),
                (Kind::Inlet, &s.kinds.inlet),
                (Kind::Outlet, &s.kinds.outlet),
            ];
            for (kind, list) in kinds {
                for &cell in &list.cells {
                    let access = |q| reference_access(s, mesh, cell as usize, q);
                    let fin = std::array::from_fn(|q| {
                        let (from, dir) = access(q).0;
                        l.f[flat_index(layout, from, dir, n)]
                    });
                    let fout = sweep.collide::<R>(kind, &[cell], &fin);
                    for (q, v) in fout.into_iter().enumerate() {
                        let (to, dir) = access(q).1;
                        out[flat_index(layout, to, dir, n)] = v;
                    }
                }
            }
            out
        }
        match &s.store {
            Store::F64(l) => step(s, mesh, l).iter().map(|v| v.to_bits()).collect(),
            Store::F32(l) => step(s, mesh, l)
                .iter()
                .map(|v| u64::from(v.to_bits()))
                .collect(),
        }
    }
}
