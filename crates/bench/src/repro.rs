//! The paper's evaluation as one run: *collect* ([`Lab`]: every geometry,
//! platform characterization and decomposition census taken once and
//! shared), *process* ([`crate::experiments`]: one function per table or
//! figure, returning an [`Outcome`]), *compare* ([`Outcome::print`] to
//! stdout and [`to_json`] to the gated `REPRO.json`).

use std::cell::RefCell;

use hemocloud_cluster::exec::{Overheads, PreparedRun, SimulatedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::CommModel;
use hemocloud_core::characterize::{characterize, PlatformCharacterization};
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::kernel::KernelConfig;
use hemocloud_obs::json::{Layout, Value, Writer};

use crate::experiments::Experiment;
use crate::provenance;
use crate::report::{Block, Cell, Check, Comparison, Outcome, Series, Tolerance};

/// The seed of every simulated measurement; with it the record is a pure
/// function of the source.
pub const SEED: u64 = 2023;
/// Timesteps per simulated run (throughput does not depend on it).
pub const STEPS: u64 = 100;

/// A synthetic anatomy at a resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Geo {
    /// Straight tube: dense, communication-heavy.
    Cylinder(usize),
    /// Curved arch: the typical case.
    Aorta(usize),
    /// Bifurcating tree `(generations, resolution)`: sparse, wall-heavy.
    Cerebral(usize, usize),
}

impl Geo {
    fn build(self) -> VoxelGrid {
        match self {
            Geo::Cylinder(r) => CylinderSpec::default().with_resolution(r).build(),
            Geo::Aorta(r) => AortaSpec::default().with_resolution(r).build(),
            Geo::Cerebral(generations, r) => CerebralSpec::default()
                .with_generations(generations)
                .with_resolution(r)
                .build(),
        }
    }
}

/// What the experiments share. Everything is built on first request and
/// kept, so `repro all` voxelizes each geometry, characterizes each
/// platform and decomposes each (workload, rank count) once, and
/// `repro fig5` builds no geometry at all.
pub struct Lab {
    fast: bool,
    characters: RefCell<Vec<PlatformCharacterization>>,
    workloads: RefCell<Vec<(Geo, Workload)>>,
}

impl Lab {
    /// An empty lab; `fast` picks the smoke sizes (the tests' choice; the
    /// `repro` binary runs full size).
    pub fn new(fast: bool) -> Self {
        Self {
            fast,
            characters: RefCell::default(),
            workloads: RefCell::default(),
        }
    }

    /// Whether this lab runs the smoke sizes.
    pub fn fast(&self) -> bool {
        self.fast
    }

    fn sized(&self, full: Geo, fast: Geo) -> Geo {
        if self.fast {
            fast
        } else {
            full
        }
    }

    /// The three evaluation geometries (Figs. 2, 3, 7; Table IV), each
    /// near 300k fluid points at full size, so the differences between
    /// them come from structure (communication surface, wall fraction,
    /// balance difficulty), not size.
    pub fn evaluation(&self) -> [(&'static str, Geo); 3] {
        [
            ("Cylinder", self.sized(Geo::Cylinder(40), Geo::Cylinder(16))),
            ("Aorta", self.sized(Geo::Aorta(40), Geo::Aorta(12))),
            (
                "Cerebral",
                self.sized(Geo::Cerebral(6, 28), Geo::Cerebral(4, 8)),
            ),
        ]
    }

    /// The proxy-app cylinder of Figs. 4 and 8–10.
    pub fn proxy_cylinder(&self) -> Geo {
        self.sized(Geo::Cylinder(48), Geo::Cylinder(16))
    }

    /// The aorta whose census Fig. 11 extrapolates.
    pub fn value_aorta(&self) -> Geo {
        self.sized(Geo::Aorta(28), Geo::Aorta(12))
    }

    /// The cylinder of ablations 2 and 5 and the cerebral tree of
    /// ablation 4.
    pub fn ablation_grids(&self) -> (Geo, Geo) {
        let cylinder = self.sized(Geo::Cylinder(24), Geo::Cylinder(16));
        (
            cylinder,
            self.sized(Geo::Cerebral(5, 14), Geo::Cerebral(4, 8)),
        )
    }

    /// `platform`'s characterization at [`SEED`].
    pub fn character(&self, platform: &Platform) -> PlatformCharacterization {
        let mut cache = self.characters.borrow_mut();
        if let Some(c) = cache.iter().find(|c| c.platform == *platform) {
            return c.clone();
        }
        cache.push(characterize(platform, SEED));
        cache.last().expect("just pushed").clone()
    }

    /// The workload of `kernel` on `geo`: one per pair, so every reader
    /// shares its decomposition census, and one voxelization per `geo`.
    pub fn workload(&self, geo: Geo, kernel: KernelConfig) -> Workload {
        let mut cache = self.workloads.borrow_mut();
        if let Some((_, w)) = cache.iter().find(|(g, w)| *g == geo && w.kernel == kernel) {
            return w.clone();
        }
        let name = format!("{geo:?} {}", kernel.name());
        let workload = match cache.iter().find(|(g, _)| *g == geo) {
            Some((_, other)) => Workload::new(name, &other.grid, kernel, STEPS),
            None => Workload::new(name, &geo.build(), kernel, STEPS),
        };
        cache.push((geo, workload.clone()));
        workload
    }

    /// The simulated testbed's measurement of `workload` on `ranks` cores
    /// of `platform` at wall-clock hour `time_h` — `simulate_geometry`'s
    /// numbers bit for bit, from the workload's shared census. `None`
    /// when the platform has fewer cores or the grid cannot be split.
    pub fn measured(
        &self,
        platform: &Platform,
        workload: &Workload,
        ranks: usize,
        time_h: f64,
    ) -> Option<SimulatedRun> {
        if ranks > platform.total_cores {
            return None; // before paying for a decomposition
        }
        PreparedRun::from_census(
            platform,
            workload.census(ranks).ok()?,
            &workload.kernel,
            workload.profile.boundary_point_bytes,
            &Overheads::default(),
            CommModel::Scalar,
        )
        .map(|run| run.run_slice(STEPS, SEED, time_h))
    }
}

/// Run `experiments` against one shared [`Lab`].
pub fn run<'a>(
    lab: &Lab,
    experiments: impl IntoIterator<Item = &'a Experiment>,
) -> Vec<(&'a Experiment, Outcome)> {
    let outcome = |e: &'a Experiment| (e, (e.run)(lab));
    experiments.into_iter().map(outcome).collect()
}

fn object(members: &[(&str, Value)]) -> Value {
    let named = members.iter().map(|(k, v)| (k.to_string(), v.clone()));
    Value::Object(named.collect())
}

/// `key`: a block array with one inline item per line.
fn lines(w: &mut Writer, key: &str, items: impl IntoIterator<Item = Value>) {
    w.key(key).begin_array(Layout::Block);
    items.into_iter().for_each(|item| w.value(&item));
    w.end();
}

/// Render the record: provenance, the `fast_mode` flag
/// `gate_committed_set` rejects in a committed artifact, and per
/// experiment every table row, series, comparison and check — one per
/// line, numbers at full precision. An un-toleranced comparison has
/// neither `rel_tol` nor `abs_tol`.
pub fn to_json(results: &[(&Experiment, Outcome)], fast: bool) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let mut w = Writer::new();
    w.begin_object(Layout::Block);
    let mut stamp = provenance::stamp();
    stamp.push(("seed", Value::UInt(SEED)));
    w.key("provenance").members(&stamp);
    w.key("fast_mode").bool(fast);
    w.key("experiments").begin_array(Layout::Block);
    for (experiment, outcome) in results {
        w.begin_object(Layout::Block);
        w.key("id").string(experiment.id);
        w.key("title").string(experiment.title);
        w.key("blocks").begin_array(Layout::Block);
        for block in &outcome.blocks {
            w.begin_object(Layout::Block);
            match block {
                Block::Table {
                    title,
                    header,
                    rows,
                } => {
                    w.key("table").string(title);
                    let header = header.iter().map(|h| text(h)).collect();
                    w.key("header").value(&Value::Array(header));
                    let cell = |cell: &Cell| match cell {
                        Cell::Text(s) => text(s),
                        Cell::Int(n) => Value::UInt(*n),
                        Cell::Num(v, _) => Value::Float(*v),
                    };
                    let row = |row: &Vec<Cell>| Value::Array(row.iter().map(cell).collect());
                    lines(&mut w, "rows", rows.iter().map(row));
                }
                Block::Figure {
                    title,
                    x,
                    y,
                    series,
                } => {
                    w.key("figure").string(title);
                    w.key("x").string(x);
                    w.key("y").string(y);
                    let point =
                        |p: &(f64, f64)| Value::Array(vec![Value::Float(p.0), Value::Float(p.1)]);
                    let curve = |s: &Series| {
                        let points = Value::Array(s.points.iter().map(point).collect());
                        object(&[("label", text(&s.label)), ("points", points)])
                    };
                    lines(&mut w, "series", series.iter().map(curve));
                }
            }
            w.end();
        }
        w.end();
        let comparison = |c: &Comparison| {
            let number = Value::Float;
            let mut members = vec![
                ("what", text(&c.what)),
                ("paper", number(c.paper)),
                ("ours", number(c.ours)),
                ("rel_err", number(c.rel_err())),
            ];
            match c.tolerance {
                Tolerance::None => {}
                Tolerance::Rel(bound) => members.push(("rel_tol", number(bound))),
                Tolerance::Abs(bound) => members.push(("abs_tol", number(bound))),
            }
            object(&members)
        };
        lines(
            &mut w,
            "comparisons",
            outcome.comparisons.iter().map(comparison),
        );
        let check = |c: &Check| {
            let holds = Value::Bool(c.holds);
            object(&[
                ("name", text(&c.name)),
                ("holds", holds),
                ("detail", text(&c.detail)),
            ])
        };
        lines(&mut w, "checks", outcome.checks.iter().map(check));
        w.end();
    }
    w.end();
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{CSP2_RANKS, EXPERIMENTS, SCALING_RANKS};
    use hemocloud_cluster::exec::simulate_geometry;

    /// The record did not move when the decomposition became shared: on
    /// every workload the smoke-size table builds, at every rank count it
    /// sweeps, on every platform, the shared-census run equals
    /// `simulate_geometry` (the parent binaries' path: one RCB + halo
    /// analysis per call) bit for bit.
    #[test]
    fn shared_census_runs_equal_simulate_geometry_bit_for_bit() {
        let lab = Lab::new(true);
        run(&lab, &EXPERIMENTS);
        let workloads: Vec<Workload> = lab.workloads.borrow().iter().map(|w| w.1.clone()).collect();
        assert_eq!(
            workloads.len(),
            9,
            "3 HARVEY evaluation grids + 6 proxy kernels"
        );
        let mut ranks: Vec<usize> = SCALING_RANKS.into_iter().chain(CSP2_RANKS).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut points = 0;
        for w in &workloads {
            for p in Platform::all() {
                for &ranks in &ranks {
                    let shared = lab.measured(&p, w, ranks, 6.0);
                    let alone = simulate_geometry(
                        &p,
                        &w.grid,
                        &w.kernel,
                        ranks,
                        STEPS,
                        &Overheads::default(),
                        SEED,
                        6.0,
                    );
                    let bits = |r: SimulatedRun| {
                        let times = [r.step_time_s, r.total_time_s, r.mflups, r.noise_factor];
                        let critical = [r.critical_mem_s, r.critical_intra_s, r.critical_inter_s];
                        (
                            times.map(f64::to_bits),
                            critical.map(f64::to_bits),
                            r.nodes_used,
                        )
                    };
                    let what = format!("{} on {} @ {ranks}", w.name, p.abbrev);
                    assert_eq!(shared.map(bits), alone.map(bits), "{what}");
                    points += usize::from(shared.is_some());
                }
            }
        }
        assert_eq!(
            points,
            9 * 53,
            "feasible (platform, ranks) points per workload"
        );
    }
}
