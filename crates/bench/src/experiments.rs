//! The table of experiments: one entry and one function per table or
//! figure of the paper's evaluation (DESIGN.md §4), each turning what the
//! shared [`Lab`] collected into an [`Outcome`]. A paper constant is
//! written once, where it is compared. A check claims only what the data
//! supports; the two that need figure-scale grids are skipped at the
//! smoke size, and say so (DESIGN.md §20).

use hemocloud_cluster::network::LinkKind::{Internodal, Intranodal};
use hemocloud_cluster::platform::Platform;
use hemocloud_core::characterize::PlatformCharacterization;
use hemocloud_core::composition::Prediction;
use hemocloud_core::direct::DirectModel;
use hemocloud_core::general::GeneralModel;
use hemocloud_core::refine::ModelCalibrator;
use hemocloud_core::value::{cost_weighted_matrix, relative_value_matrix, ValueMatrix};
use hemocloud_core::workload::Workload;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::partition::{BlockPartition, SlabPartition};
use hemocloud_fitting::linear::{fit_line, fit_proportional};
use hemocloud_fitting::metrics::{coefficient_of_variation, mape, mean, r_squared, std_dev};
use hemocloud_fitting::sweep::StreamSample;
use hemocloud_lbm::kernel::{KernelConfig, Layout, Propagation};

use crate::report::Tolerance::{Abs, Rel};
use crate::report::{Cell, Outcome, Series, Tolerance};
use crate::repro::Lab;
use crate::row;

/// One table or figure of the paper.
pub struct Experiment {
    /// What `repro <id>` names and `REPRO.json` keys it by.
    pub id: &'static str,
    /// What the paper shows there.
    pub title: &'static str,
    /// Process: collected inputs to outcome.
    pub run: fn(&Lab) -> Outcome,
}

/// Every experiment, in the paper's order.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 15] = [
    Experiment { id: "table1", title: "Table I: hardware details for all tested instances", run: table1 },
    Experiment { id: "fig2", title: "Fig. 2: the three arterial geometries, as voxel censuses", run: fig2 },
    Experiment { id: "fig3", title: "Fig. 3: HARVEY strong scaling per geometry on every infrastructure", run: fig3 },
    Experiment { id: "fig4", title: "Fig. 4: lbm-proxy-app strong scaling, AA/AB x SoA/AoS", run: fig4 },
    Experiment { id: "fig5", title: "Fig. 5: STREAM Copy bandwidth vs threads with two-line fits (Eq. 8)", run: fig5 },
    Experiment { id: "table2", title: "Table II: fitted sustainable vs published node memory bandwidth", run: table2 },
    Experiment { id: "fig6", title: "Fig. 6: PingPong times vs message size with linear fits (Eq. 12)", run: fig6 },
    Experiment { id: "table3", title: "Table III: microbenchmark curve-fit parameters (Eq. 8 and Eq. 12)", run: table3 },
    Experiment { id: "table4", title: "Table IV: HARVEY aorta noise, 6-hour intervals over 7 days", run: table4 },
    Experiment { id: "fig7", title: "Fig. 7: model predictions vs actual, HARVEY on CSP-2", run: fig7 },
    Experiment { id: "fig8", title: "Fig. 8: model predictions vs actual, proxy SoA kernels on CSP-2", run: fig8 },
    Experiment { id: "fig9", title: "Fig. 9: direct-model runtime composition, HARVEY cylinder on CSP-2", run: fig9 },
    Experiment { id: "fig10", title: "Fig. 10: generalized-model runtime composition, HARVEY cylinder on CSP-2", run: fig10 },
    Experiment { id: "fig11", title: "Fig. 11: relative value r_{B,A}, aorta on 2048 cores, generalized model", run: fig11 },
    Experiment { id: "ablations", title: "Ablations of the design choices in DESIGN.md §5", run: ablations },
];

/// Matched core counts across platforms (Figs. 3, 4).
pub const SCALING_RANKS: [usize; 7] = [8, 16, 32, 48, 64, 96, 128];
/// The CSP-2 sweep of Figs. 7–10 and the ablations: up to four 36-core nodes.
pub const CSP2_RANKS: [usize; 7] = [4, 8, 16, 36, 72, 108, 144];

/// `(system, a1, a2, a3, internodal (b, l))`.
type FitRow = (&'static str, f64, f64, f64, Option<(f64, f64)>);

/// Paper Table III; the paper fits the interconnect only where it ran
/// multi-node studies.
const TABLE3: [FitRow; 5] = [
    ("TRC", 6768.24, 369.16, 6.39, Some((5066.57, 2.01))),
    ("CSP-2", 7790.02, 1264.80, 9.00, Some((1804.84, 23.59))),
    ("CSP-2 EC", 7605.85, 1269.95, 11.00, Some((2016.77, 20.94))),
    ("CSP-2 Hyp.", 8629.29, -93.43, 9.87, None),
    ("CSP-1", 18092.64, -62.79, 4.15, None),
];

/// CSP-1's post-knee slope is flat: `|a2|` under this fraction of `a1`.
/// Its sign is not checked — the paper's −62.79 sits on a curve whose
/// `a1` is 18,000, and the fit recovers the sign on 27 of 40 seeds
/// (counted by a `core::characterize` test).
pub const FLAT_SLOPE: f64 = 0.02;

type Cases = Vec<(String, bool)>;

/// The title of experiment `id`, for the experiments whose one table is
/// the whole of what the paper shows there.
fn title(id: &str) -> &'static str {
    let entry = EXPERIMENTS.iter().find(|e| e.id == id);
    entry.expect("an experiment id").title
}

/// Table I's platforms plus the hyperthreaded CSP-2 of Fig. 5 / Table III.
fn platforms_with_hyperthreading() -> Vec<Platform> {
    let mut platforms = Platform::all();
    platforms.push(Platform::csp2_hyperthreaded());
    platforms
}

fn platform(abbrev: &str) -> Platform {
    let mut all = platforms_with_hyperthreading().into_iter();
    all.find(|p| p.abbrev == abbrev)
        .expect("a Table I abbreviation")
}

/// A characterization's STREAM sweep as `(threads, MB/s)` columns.
fn stream_columns(c: &PlatformCharacterization) -> (Vec<f64>, Vec<f64>) {
    let sample = |s: &StreamSample| (s.threads as f64, s.bandwidth_mb_s);
    c.sweeps.stream.iter().map(sample).unzip()
}

/// `(prefix: upper vs lower @ x, upper > lower)` at every x the curves share.
fn dominates(prefix: &str, upper: &Series, lower: &Series) -> Cases {
    let case = |&(x, lo): &(f64, f64)| {
        let label = format!("{prefix}{} vs {} @ {x}", upper.label, lower.label);
        Some((label, upper.at(x)? > lo))
    };
    lower.points.iter().filter_map(case).collect()
}

/// One measured strong-scaling curve per platform that can host any of
/// [`SCALING_RANKS`].
fn scaling(lab: &Lab, workload: &Workload, suffix: &str) -> Vec<Series> {
    let curve = |p: Platform| {
        let point = |&r: &usize| Some((r as f64, lab.measured(&p, workload, r, 0.0)?.mflups));
        let points: Vec<(f64, f64)> = SCALING_RANKS.iter().filter_map(point).collect();
        (!points.is_empty()).then(|| Series::new(format!("{}{suffix}", p.abbrev), points))
    };
    Platform::all().into_iter().filter_map(curve).collect()
}

fn table1(_: &Lab) -> Outcome {
    let platforms = Platform::all();
    let row = |label: &str, f: &dyn Fn(&Platform) -> Cell| -> Vec<Cell> {
        let cells = platforms.iter().map(f);
        std::iter::once(label.into()).chain(cells).collect()
    };
    let rows = vec![
        row("Abbreviation", &|p| p.abbrev.into()),
        row("CPU", &|p| p.cpu.into()),
        row("CPU Clock (GHz)", &|p| (p.clock_ghz, 2).into()),
        row("Core Count", &|p| p.total_cores.into()),
        row("Cores per Node", &|p| p.cores_per_node.into()),
        row("Memory per Node (GB)", &|p| {
            (p.memory_per_node_gb, 0).into()
        }),
        row("Interconnect (Gbit/s)", &|p| {
            (p.interconnect_gbit, 0).into()
        }),
        row("Price ($/node-h, synthetic)", &|p| {
            (p.price_per_node_hour, 2).into()
        }),
    ];
    let names: Vec<&str> = platforms.iter().map(|p| p.name).collect();
    let mut o = Outcome::default();
    o.table(
        title("table1"),
        &format!("System|{}", names.join("|")),
        rows,
    );
    o
}

fn fig2(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let census = |(name, geo)| (name, lab.workload(geo, KernelConfig::harvey()));
    let geometries = lab.evaluation().map(census);
    let row = |(name, w): &(&str, Workload)| {
        let (s, (nx, ny, nz)) = (&w.stats, w.grid.dims());
        let (grid, walls) = (format!("{nx}x{ny}x{nz}"), s.wall_fraction());
        let (fluid, ratio) = ((s.fluid_fraction, 3), (s.bulk_wall_ratio, 2));
        row![
            *name,
            &grid[..],
            s.fluid_points,
            s.bulk_points,
            s.wall_points,
            fluid,
            ratio,
            (walls, 3)
        ]
    };
    o.table(
        "Fig. 2: arterial geometry census (cylinder = dense/high-comm, aorta = typical, \
         cerebral = wall-heavy/low-comm)",
        "Geometry|Grid|Fluid pts|Bulk|Wall|Fluid frac|Bulk/Wall|Wall frac",
        geometries.iter().map(row).collect(),
    );
    let [cylinder, aorta, cerebral] = geometries.map(|(_, w)| w.stats);
    let fluid = [cylinder, aorta, cerebral].map(|s| s.fluid_fraction);
    let walls = [cylinder, aorta, cerebral].map(|s| s.wall_fraction());
    let cases = [
        (
            format!("fluid fractions {fluid:.3?}"),
            fluid[0] > fluid[1] && fluid[1] > fluid[2],
        ),
        (
            format!("wall fractions {walls:.3?}"),
            walls[2] > walls[0].max(walls[1]),
        ),
    ];
    o.check(
        "the cylinder is densest; the cerebral tree is sparsest and most wall-heavy",
        cases,
    );
    o
}

fn fig3(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let (csp2, ec) = (Platform::csp2(), Platform::csp2_ec());
    let (mut beats_trc, mut ec_pays) = (Cases::new(), Cases::new());
    for (panel, (name, geo)) in ['a', 'b', 'c'].into_iter().zip(lab.evaluation()) {
        let workload = lab.workload(geo, KernelConfig::harvey());
        let series = scaling(lab, &workload, "");
        let curve = |abbrev| {
            series
                .iter()
                .find(|s| s.label == abbrev)
                .expect("platform ran")
        };
        for cloud in ["CSP-2", "CSP-2 EC"] {
            beats_trc.extend(dominates(&format!("{name}: "), curve(cloud), curve("TRC")));
        }
        // Beyond one 36-core node: what EC's faster interconnect buys.
        for ranks in SCALING_RANKS
            .into_iter()
            .filter(|&r| r > csp2.cores_per_node)
        {
            let run = |p| {
                lab.measured(p, &workload, ranks, 0.0)
                    .expect("fits the allocation")
            };
            let (plain, with_ec) = (run(&csp2), run(&ec));
            let speedup = 100.0 * (with_ec.mflups / plain.mflups - 1.0);
            let comm = 100.0 * (with_ec.critical_inter_s / plain.critical_inter_s - 1.0);
            let label = format!("{name} @ {ranks}: {speedup:+.1}% MFLUPS, {comm:+.1}% internodal");
            ec_pays.push((label, speedup > 0.0 && comm < 0.0));
        }
        let title = format!("Fig. 3{panel}: HARVEY strong scaling, {name} geometry");
        o.figure(title, "ranks", "MFLUPS", series);
    }
    if !lab.fast() {
        // Figure scale only: the smoke grids are a few thousand points,
        // all communication, and there TRC's InfiniBand wins.
        let claim =
            "the cloud's large nodes (CSP-2, CSP-2 EC) beat TRC at every matched core count";
        o.check(claim, beats_trc);
    }
    let claim =
        "across nodes EC beats plain CSP-2 and its critical task waits less on the interconnect";
    o.check(claim, ec_pays);
    o
}

fn fig4(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let mut panels = Vec::new();
    for (panel, pname, propagation) in [('a', "AA", Propagation::Aa), ('b', "AB", Propagation::Ab)]
    {
        // SoA unrolled and AoS rolled, the paper's two curves per pattern.
        let curves = |layout, suffix| {
            let kernel = KernelConfig::proxy(layout, propagation, layout == Layout::Soa);
            scaling(lab, &lab.workload(lab.proxy_cylinder(), kernel), suffix)
        };
        let (soa, aos) = (curves(Layout::Soa, " SOA"), curves(Layout::Aos, " AOS"));
        let title = format!("Fig. 4{panel}: lbm-proxy-app strong scaling, {pname} propagation");
        o.figure(title, "ranks", "MFLUPS", [&soa[..], &aos[..]].concat());
        panels.push([soa, aos]);
    }
    let [[aa_soa, aa_aos], [ab_soa, ab_aos]] = &panels[..] else {
        unreachable!("two panels")
    };
    let pairs = |upper: &[Series], lower: &[Series]| -> Cases {
        let each = upper
            .iter()
            .zip(lower)
            .flat_map(|(u, l)| dominates("", u, l));
        each.collect()
    };
    let aa_over_ab = [pairs(aa_soa, ab_soa), pairs(aa_aos, ab_aos)].concat();
    o.check("AA above AB at every point on every platform", aa_over_ab);
    let layouts = [pairs(ab_aos, ab_soa), pairs(aa_soa, aa_aos)].concat();
    o.check("AoS beats SoA under AB but not under AA", layouts);
    o
}

fn fig5(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let (mut measured, mut fitted, mut rows, mut r2s) = (vec![], vec![], vec![], vec![]);
    for p in platforms_with_hyperthreading() {
        let c = lab.character(&p);
        let ((threads, bandwidths), fit) = (stream_columns(&c), c.memory_fit);
        let predicted: Vec<f64> = threads.iter().map(|&n| fit.eval(n)).collect();
        let r2 = r_squared(&predicted, &bandwidths).unwrap_or(f64::NAN);
        let curve = |ys: &[f64]| threads.iter().copied().zip(ys.iter().copied()).collect();
        measured.push(Series::new(p.abbrev, curve(&bandwidths)));
        fitted.push(Series::new(format!("{} fit", p.abbrev), curve(&predicted)));
        rows.push(row![
            p.abbrev,
            (fit.a1, 2),
            (fit.a2, 2),
            (fit.a3, 2),
            (r2, 4)
        ]);
        r2s.push((format!("{} R^2 {r2:.4}", p.abbrev), r2 >= 0.95));
    }
    let title = "Fig. 5: STREAM Copy bandwidth vs OpenMP threads (measured)";
    o.figure(title.into(), "threads", "MB/s", measured);
    o.figure(
        "Fig. 5: two-line fits (Eq. 8)".into(),
        "threads",
        "MB/s",
        fitted,
    );
    let header = "System|a1 (MB/s/thr)|a2 (MB/s/thr)|a3 (thr)|R^2";
    o.table("Fig. 5 fit parameters", header, rows);
    o.check("the two-line model fits every sweep with R^2 >= 0.95", r2s);
    let hyper = lab
        .character(&Platform::csp2_hyperthreaded())
        .memory_fit
        .eval(72.0);
    let physical = lab.character(&Platform::csp2()).memory_fit.eval(36.0);
    let claim = "hyperthreading adds no bandwidth: 72 threads sustain less than 36 physical cores";
    o.check_one(
        claim,
        format!("{hyper:.0} vs {physical:.0} MB/s"),
        hyper < physical,
    );
    o
}

fn table2(lab: &Lab) -> Outcome {
    // Paper Table II, "Difference" row, percent.
    let paper = [
        ("TRC", -27.57),
        ("CSP-1", 9.23),
        ("CSP-2", -35.92),
        ("CSP-2 EC", -29.07),
    ];
    let mut o = Outcome::default();
    let (mut rows, mut signs) = (Vec::new(), Cases::new());
    for p in Platform::all() {
        let published = p.published_bandwidth_mb_s;
        let sustained = lab.character(&p).memory_fit.eval(p.cores_per_node as f64);
        let diff = 100.0 * (sustained - published) / published;
        rows.push(row![p.abbrev, (published, 0), (sustained, 0), (diff, 2)]);
        if let Some(&(_, paper)) = paper.iter().find(|(abbrev, _)| *abbrev == p.abbrev) {
            // Percentage points: the fit recovers a seeded constant.
            o.compare(
                format!("{} sustained vs published, %", p.abbrev),
                paper,
                diff,
                Abs(2.0),
            );
        }
        signs.push((
            format!("{} {diff:+.2}%", p.abbrev),
            (diff > 0.0) == (p.abbrev == "CSP-1"),
        ));
    }
    let header = "System|Published (MB/s)|STREAM fit (MB/s)|Difference (%)";
    o.table(title("table2"), header, rows);
    let claim = "CSP-1 exceeds its published bandwidth; every other platform sustains below it";
    o.check(claim, signs);
    o
}

fn fig6(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let (mut measured, mut rows, mut inter) = (Vec::new(), Vec::new(), Vec::new());
    let mut intra_cheaper = Cases::new();
    for (abbrev, .., link) in TABLE3 {
        let Some((paper_b, paper_l)) = link else {
            continue;
        };
        let c = lab.character(&platform(abbrev));
        let links = [
            ("inter", &c.sweeps.internodal, c.internodal_fit),
            ("intra", &c.sweeps.intranodal, c.intranodal_fit),
        ];
        for (kname, sweep, fit) in links {
            let points = sweep.iter().map(|s| (s.bytes as f64, s.time_us)).collect();
            measured.push(Series::new(format!("{abbrev} {kname}"), points));
            let (b, l) = (fit.bandwidth_mb_s, fit.latency_us);
            rows.push(row![abbrev, kname, (b, 2), (l, 2)]);
        }
        let (b, l) = (c.internodal_fit.bandwidth_mb_s, c.internodal_fit.latency_us);
        o.compare(
            format!("{abbrev} internodal b, MB/s"),
            paper_b,
            b,
            Rel(0.15),
        );
        o.compare(format!("{abbrev} internodal l, us"), paper_l, l, Rel(0.2));
        inter.push((b, l));
        let cheaper = c.message_time_s(Intranodal, 1e4) < c.message_time_s(Internodal, 1e4);
        intra_cheaper.push((abbrev.to_string(), cheaper));
    }
    let title = "Fig. 6: PingPong one-way times (µs) vs message size (bytes)";
    o.figure(title.into(), "bytes", "µs", measured);
    let title = "Fig. 6 linear fits (Eq. 12; latency = zero-byte time)";
    o.table(title, "System|Link|b (MB/s)|l (µs)", rows);
    let [trc, csp2, ec] = inter[..] else {
        unreachable!("three multi-node platforms")
    };
    let versus = |a: (f64, f64), b: (f64, f64)| {
        format!(
            "b {:.0} vs {:.0} MB/s, l {:.2} vs {:.2} µs",
            a.0, b.0, a.1, b.1
        )
    };
    let claim =
        "TRC's interconnect has over twice CSP-2's bandwidth at under a fifth of its latency";
    o.check_one(
        claim,
        versus(trc, csp2),
        trc.0 > 2.0 * csp2.0 && trc.1 < csp2.1 / 5.0,
    );
    let claim = "EC improves on plain CSP-2 in bandwidth and in latency";
    o.check_one(claim, versus(ec, csp2), ec.0 > csp2.0 && ec.1 < csp2.1);
    o.check(
        "a 10 kB message is cheaper inside a node than between nodes",
        intra_cheaper,
    );
    o
}

fn table3(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let mut rows = Vec::new();
    for (abbrev, a1, a2, a3, link) in TABLE3 {
        let c = lab.character(&platform(abbrev));
        let (fit, inter) = (c.memory_fit, c.internodal_fit);
        // A negative a2 is a small slope on a large curve: recorded, not gated.
        let a2_tolerance = if a2 > 0.0 { Rel(0.15) } else { Tolerance::None };
        o.compare(format!("{abbrev} a1"), a1, fit.a1, Rel(0.15));
        o.compare(format!("{abbrev} a2"), a2, fit.a2, a2_tolerance);
        o.compare(format!("{abbrev} a3"), a3, fit.a3, Abs(3.0));
        let mut row = row![abbrev, (fit.a1, 2), (fit.a2, 2), (fit.a3, 2)];
        match link {
            Some((b, l)) => {
                o.compare(
                    format!("{abbrev} b_inter"),
                    b,
                    inter.bandwidth_mb_s,
                    Rel(0.15),
                );
                o.compare(format!("{abbrev} l_inter"), l, inter.latency_us, Rel(0.2));
                row.extend(row![(inter.bandwidth_mb_s, 2), (inter.latency_us, 2)]);
            }
            None => row.extend(row!["N/A", "N/A"]),
        }
        row.push(c.platform.cores_per_node.into());
        rows.push(row);
    }
    let title = format!("{}; CSP-2 Hyp. runs one thread per vCPU", title("table3"));
    o.table(title, "System|a1|a2|a3|b_inter|l_inter|Cores", rows);
    let hyper = lab.character(&Platform::csp2_hyperthreaded()).memory_fit;
    let claim = "hyperthreaded CSP-2 loses bandwidth past its knee (a2 < 0)";
    o.check_one(claim, format!("a2 = {:.2}", hyper.a2), hyper.a2 < 0.0);
    let csp1 = lab.character(&Platform::csp1()).memory_fit;
    let flatness = csp1.a2.abs() / csp1.a1;
    let label = format!("|{:.2}| / {:.2} = {flatness:.4}", csp1.a2, csp1.a1);
    let claim = "CSP-1's bandwidth is flat past its knee (|a2| / a1 < 0.02)";
    o.check_one(claim, label, flatness < FLAT_SLOPE);
    o
}

fn table4(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let aorta = lab.workload(lab.evaluation()[1].1, KernelConfig::harvey());
    let dedicated = (Platform::csp1(), &[16, 32, 48][..]);
    let on_demand = (Platform::csp2_small(), &[16, 32, 64, 128][..]);
    // The paper's rows at the rank counts both tables have: (system,
    // ranks, mean MFLUPS, CV). Emergent numbers: recorded, not gated.
    let paper = [
        ("CSP-1", 16, 39.04, 0.02),
        ("CSP-1", 48, 67.84, 0.01),
        ("CSP-2 Small", 16, 25.53, 0.02),
        ("CSP-2 Small", 128, 127.99, 0.01),
    ];
    let (mut rows, mut band, mut worst) = (Vec::new(), Cases::new(), Vec::new());
    for (p, rank_list) in [dedicated, on_demand] {
        let mut worst_cv = 0.0f64;
        for &ranks in rank_list {
            // 7 days at 6-hour intervals = 28 samples, as in the paper;
            // one decomposition, only the noise varies.
            let at = |i: i32| lab.measured(&p, &aorta, ranks, f64::from(i) * 6.0);
            let samples: Vec<f64> = (0..28).map(|i| at(i).expect("feasible").mflups).collect();
            let cv = coefficient_of_variation(&samples);
            let (mean, sd) = (mean(&samples), std_dev(&samples));
            rows.push(row![p.abbrev, ranks, (mean, 2), (sd, 2), (cv, 3)]);
            let label = format!("{} @ {ranks}: {cv:.4}", p.abbrev);
            band.push((label, (0.001..0.05).contains(&cv)));
            if let Some(row) = paper.iter().find(|row| (row.0, row.1) == (p.abbrev, ranks)) {
                let what = format!("{} @ {ranks}", p.abbrev);
                o.compare(format!("{what} mean MFLUPS"), row.2, mean, Tolerance::None);
                o.compare(format!("{what} CV"), row.3, cv, Tolerance::None);
            }
            worst_cv = worst_cv.max(cv);
        }
        worst.push(worst_cv);
    }
    let title = "Table IV: HARVEY aorta performance, 6-hour intervals over 7 days (28 samples)";
    let header = "System|MPI Ranks|Mean MFLUPS|Standard Deviation|Variation Coefficient";
    o.table(title, header, rows);
    let claim =
        "noise variability is small: every CV in [0.001, 0.05), around the paper's 0.004-0.02";
    o.check(claim, band);
    let label = format!(
        "worst CV: CSP-2 Small {:.4} vs CSP-1 {:.4}",
        worst[1], worst[0]
    );
    let claim = "the on-demand cloud is under 3x as noisy as the dedicated one";
    o.check_one(claim, label, worst[1] < 3.0 * worst[0]);
    o
}

/// One panel of Fig. 7 / Fig. 8 on CSP-2: the measured curve beside both
/// models' predictions. Returns the measured curve and, per model,
/// `(label, model > actual)` at every rank count.
fn model_vs_actual(lab: &Lab, o: &mut Outcome, what: &str, w: &Workload) -> (Series, [Cases; 2]) {
    let csp2 = Platform::csp2();
    let character = lab.character(&csp2);
    let direct = DirectModel::new(character.clone(), w.clone());
    let general = GeneralModel::from_characterization(&character, w);
    let curve = |label: &str, y: &dyn Fn(usize) -> Option<f64>| {
        let point = |&r: &usize| Some((r as f64, y(r)?));
        Series::new(label, CSP2_RANKS.iter().filter_map(point).collect())
    };
    let actual = curve("actual", &|r| Some(lab.measured(&csp2, w, r, 0.0)?.mflups));
    let direct = curve("direct model", &|r| Some(direct.predict(r)?.mflups));
    let general = curve("general model", &|r| Some(general.predict(r).mflups));
    let over = [&direct, &general].map(|model| dominates(&format!("{what}: "), model, &actual));
    o.figure(
        format!("{what} on CSP-2 — model predictions vs actual"),
        "ranks",
        "MFLUPS",
        vec![actual.clone(), direct, general],
    );
    (actual, over)
}

/// The paper's central observation. The direct model's half holds at any
/// size; the generalized model's only at figure scale — on the smoke
/// grids its fitted event counts undershoot the multi-node ranks.
fn check_overprediction(lab: &Lab, o: &mut Outcome, [direct, general]: [Cases; 2]) {
    o.check("the direct model overpredicts at every rank", direct);
    if !lab.fast() {
        o.check("the generalized model overpredicts at every rank", general);
    }
}

fn fig7(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let mut over = [Cases::new(), Cases::new()];
    for (name, geo) in lab.evaluation() {
        let workload = lab.workload(geo, KernelConfig::harvey());
        let (_, cases) = model_vs_actual(lab, &mut o, &format!("Fig. 7: {name}"), &workload);
        over.iter_mut()
            .zip(cases)
            .for_each(|(all, cases)| all.extend(cases));
    }
    check_overprediction(lab, &mut o, over);
    o
}

fn fig8(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let (mut over, mut actual) = ([Cases::new(), Cases::new()], Vec::new());
    for (vname, kernel) in KernelConfig::fig8_variants() {
        let workload = lab.workload(lab.proxy_cylinder(), kernel);
        let what = format!("Fig. 8: proxy {vname}");
        let (mut measured, cases) = model_vs_actual(lab, &mut o, &what, &workload);
        over.iter_mut()
            .zip(cases)
            .for_each(|(all, cases)| all.extend(cases));
        measured.label = vname;
        actual.push(measured);
    }
    check_overprediction(lab, &mut o, over);
    // fig8_variants: AA unrolled, AA rolled, AB unrolled, AB rolled.
    let [unrolled, rolled] =
        [(0, 2), (1, 3)].map(|(aa, ab)| dominates("", &actual[aa], &actual[ab]));
    o.check(
        "measured AA above AB at every rank, unrolled and rolled",
        [unrolled, rolled].concat(),
    );
    o
}

/// The HARVEY cylinder of Figs. 9 and 10.
fn composition_workload(lab: &Lab) -> Workload {
    lab.workload(lab.proxy_cylinder(), KernelConfig::harvey())
}

fn us(seconds: f64) -> Cell {
    Cell::Num(seconds * 1e6, 1)
}

fn fig9(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let model = DirectModel::new(lab.character(&Platform::csp2()), composition_workload(lab));
    let predictions: Vec<Prediction> = CSP2_RANKS
        .iter()
        .filter_map(|&r| model.predict(r))
        .collect();
    let row = |p: &Prediction| {
        let (c, total) = (p.composition, p.composition.total_s());
        let share = |s: f64| (100.0 * s / total, 0);
        let times = [us(c.mem_s), us(c.intra_s), us(c.inter_s), us(total)];
        [
            row![p.ranks],
            times.to_vec(),
            row![share(c.mem_s), share(c.inter_s)],
        ]
        .concat()
    };
    o.table(
        title("fig9"),
        "Ranks|Memory (µs)|Intranodal (µs)|Internodal (µs)|Total (µs)|Mem %|Inter %",
        predictions.iter().map(row).collect(),
    );
    let case = |p: &Prediction, ok: bool| (format!("{} ranks", p.ranks), ok);
    let (one_node, multi_node): (Vec<&Prediction>, Vec<&Prediction>) =
        predictions.iter().partition(|p| p.ranks <= 36);
    let memory_only =
        |p: &&Prediction| case(p, p.composition.inter_s == 0.0 && p.composition.mem_s > 0.0);
    let claim = "on one node the step is memory access: no internodal time up to 36 ranks";
    o.check(claim, one_node.iter().map(memory_only));
    let share = |p: &&Prediction| p.composition.inter_s / p.composition.total_s();
    let shares: Vec<f64> = multi_node.iter().map(share).collect();
    let grows = shares.len() > 1 && shares[0] > 0.0 && shares[shares.len() - 1] > shares[0];
    let claim =
        "across nodes internodal time appears, and is more of the step at 144 ranks than at 72";
    let evidence = format!("shares {shares:.2?} at 72, 108, 144 ranks");
    o.check_one(claim, evidence, grows);
    let negligible = |p: &Prediction| {
        let c = p.composition;
        case(p, c.intra_s < 0.3 * (c.mem_s + c.inter_s))
    };
    let claim = "intranodal communication stays negligible (under 0.3 of memory + internodal)";
    o.check(claim, predictions.iter().map(negligible));
    o
}

fn fig10(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let character = lab.character(&Platform::csp2());
    let model = GeneralModel::from_characterization(&character, &composition_workload(lab));
    let predictions: Vec<Prediction> = CSP2_RANKS.iter().map(|&r| model.predict(r)).collect();
    let row = |p: &Prediction| {
        let (c, total) = (p.composition, p.composition.total_s());
        let times = [
            us(c.mem_s),
            us(c.comm_bandwidth_s),
            us(c.comm_latency_s),
            us(total),
        ];
        [
            row![p.ranks],
            times.to_vec(),
            row![(100.0 * c.comm_latency_s / total, 0)],
        ]
        .concat()
    };
    o.table(
        title("fig10"),
        "Ranks|Memory (µs)|Comm bandwidth (µs)|Comm latency (µs)|Total (µs)|Latency %",
        predictions.iter().map(row).collect(),
    );
    let latency_bound = |p: &Prediction| {
        let c = p.composition;
        (
            format!("{} ranks", p.ranks),
            c.comm_latency_s > c.comm_bandwidth_s,
        )
    };
    let claim =
        "latency outweighs bandwidth in the general comm term at every multi-node rank count";
    o.check(
        claim,
        predictions
            .iter()
            .filter(|p| p.ranks > 36)
            .map(latency_bound),
    );
    o
}

fn matrix_table(o: &mut Outcome, title: &str, corner: &str, matrix: &ValueMatrix) {
    let row = |(label, values): (&String, &Vec<f64>)| {
        let ratios = values.iter().map(|&r| Cell::Num(r, 4));
        std::iter::once(Cell::Text(label.clone()))
            .chain(ratios)
            .collect()
    };
    let header = format!("{corner}|{}", matrix.labels.join("|"));
    o.table(
        title,
        &header,
        matrix.labels.iter().zip(&matrix.values).map(row).collect(),
    );
}

fn fig11(lab: &Lab) -> Outcome {
    // 2048 cores exceeds every cloud allocation the paper tested — the
    // generalized model's extrapolation role — on an aorta census scaled
    // to the paper's high-resolution regime (tens of millions of points).
    const RANKS: usize = 2048;
    const TARGET_POINTS: f64 = 2.75e7;
    let mut o = Outcome::default();
    let base = lab.workload(lab.value_aorta(), KernelConfig::harvey());
    let factor = (TARGET_POINTS / base.points() as f64).cbrt();
    let scaled = base.scaled(factor);
    o.table(
        "Fig. 11 input: aorta census, voxelized then scaled",
        "Voxelized pts|Linear scale|Scaled pts",
        vec![row![base.points(), (factor, 2), scaled.points()]],
    );
    let (mut rows, mut entries, mut cost_entries) = (Vec::new(), Vec::new(), Vec::new());
    for p in Platform::fig11_platforms() {
        let character = lab.character(&p);
        // Calibrate the empirical fits on the voxelized grid, then predict
        // with the scaled census.
        let fitted = GeneralModel::from_characterization(&character, &base);
        let (imbalance, events) = (*fitted.imbalance_model(), *fitted.event_model());
        let model = GeneralModel::with_models(&character, &scaled, imbalance, events);
        let mflups = model.predict(RANKS).mflups;
        let nodes = p.nodes_for_ranks(RANKS);
        let dollars_per_hour = nodes as f64 * p.price_per_node_hour;
        rows.push(row![p.abbrev, (mflups, 1), nodes, (dollars_per_hour, 2)]);
        entries.push((p.abbrev.to_string(), mflups));
        cost_entries.push((p.abbrev.to_string(), mflups, dollars_per_hour));
    }
    let title = "Fig. 11 input: predicted throughput on 2048 cores";
    o.table(title, "System|MFLUPS|Nodes|$/h (synthetic)", rows);
    let matrix = relative_value_matrix(&entries);
    let title = "Fig. 11: relative value r_{B,A} (row B vs column A), generalized model";
    matrix_table(&mut o, title, "2048 Cores - Aorta", &matrix);
    // Extension: the cost-weighted view the paper's Discussion proposes.
    let title = "Extension: cost-weighted relative value (throughput per dollar; synthetic prices)";
    matrix_table(
        &mut o,
        title,
        "Cost-weighted",
        &cost_weighted_matrix(&cost_entries),
    );
    // fig11_platforms: TRC, CSP-2, CSP-2 EC. Emergent ratios: recorded, not gated.
    let (csp2_trc, ec_trc, ec_csp2) = (matrix.get(1, 0), matrix.get(2, 0), matrix.get(2, 1));
    o.compare("r(CSP-2, TRC)".into(), 1.2323, csp2_trc, Tolerance::None);
    o.compare("r(CSP-2 EC, TRC)".into(), 1.3733, ec_trc, Tolerance::None);
    o.compare(
        "r(CSP-2 EC, CSP-2)".into(),
        1.1144,
        ec_csp2,
        Tolerance::None,
    );
    let label = format!("r(EC, CSP-2) = {ec_csp2:.4}, r(CSP-2, TRC) = {csp2_trc:.4}");
    let claim = "EC > CSP-2 > TRC in raw throughput at 2048 cores";
    o.check_one(claim, label, ec_csp2 > 1.0 && csp2_trc > 1.0);
    let near = (1.02..2.2).contains(&csp2_trc) && (1.05..2.5).contains(&ec_trc);
    let claim =
        "the paper's neighbourhood: r(CSP-2, TRC) in [1.02, 2.2), r(EC, TRC) in [1.05, 2.5)";
    o.check_one(claim, format!("{csp2_trc:.4}, {ec_trc:.4}"), near);
    o
}

fn ablations(lab: &Lab) -> Outcome {
    let mut o = Outcome::default();
    let csp2 = Platform::csp2();

    // 1 — Eq. 8's two-line model vs a naive proportional line: error in
    // the full-node bandwidth estimate the models divide by.
    let (mut rows, mut knee) = (Vec::new(), Cases::new());
    for p in Platform::all() {
        let c = lab.character(&p);
        let (ns, bs) = stream_columns(&c);
        let (truth, cores) = (p.full_node_bandwidth(), p.cores_per_node as f64);
        let two = c.memory_fit.eval(cores);
        let one = fit_proportional(&ns, &bs)
            .expect("fittable sweep")
            .eval(cores);
        let err = |v: f64| 100.0 * (v - truth) / truth;
        rows.push(row![
            p.abbrev,
            (truth, 0),
            (two, 0),
            (err(two), 1),
            (one, 0),
            (err(one), 1)
        ]);
        knee.push((p.abbrev.to_string(), err(two).abs() < err(one).abs()));
    }
    let title = "Ablation 1: full-node bandwidth estimate, two-line (Eq. 8) vs proportional fit";
    o.table(
        title,
        "System|Truth MB/s|Two-line|err %|Single line|err %",
        rows,
    );
    o.check(
        "1: the two-line fit estimates full-node bandwidth better than one line",
        knee,
    );

    // 2 and 5 — both models against the testbed over the CSP-2 sweep, and
    // the general model before and after one calibration pass.
    let (cylinder, tree) = lab.ablation_grids();
    let cylinder = lab.workload(cylinder, KernelConfig::harvey());
    let character = lab.character(&csp2);
    let direct = DirectModel::new(character.clone(), cylinder.clone());
    let general = GeneralModel::from_characterization(&character, &cylinder);
    let run = |r: usize| lab.measured(&csp2, &cylinder, r, 0.0).expect("feasible");
    let measured = CSP2_RANKS.map(|r| run(r).mflups);
    let d_pred = CSP2_RANKS.map(|r| direct.predict(r).expect("feasible").mflups);
    let g_pred = CSP2_RANKS.map(|r| general.predict(r).mflups);
    let (d_mape, g_mape) = (mape(&d_pred, &measured), mape(&g_pred, &measured));
    let rows = vec![
        row!["direct", (d_mape, 1), "yes (one census per rank count)"],
        row!["general", (g_mape, 1), "no (closed form; extrapolates)"],
    ];
    let title = "Ablation 2: model accuracy vs simulated testbed (HARVEY cylinder on CSP-2)";
    o.table(title, "Model|MAPE (%)|needs decomposition?", rows);
    let label = format!("MAPE {d_mape:.1}% vs {g_mape:.1}%");
    let claim = "2: the direct model is the more accurate one";
    o.check_one(claim, label, d_mape < g_mape);

    // 3 — the paper pins latency to the zero-byte time; a free intercept
    // fits large messages as well but moves the small-message floor.
    let samples = &character.sweeps.internodal;
    let xs: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.time_us).collect();
    let pinned = character.internodal_fit.line;
    let free = fit_line(&xs, &ys).expect("fittable sweep");
    // One boundary point's distributions; the sweep's largest message.
    let (halo, large) = (152.0 * 8.0, 4_194_304.0);
    let rows = vec![
        row![
            "pinned (paper)",
            (pinned.intercept, 2),
            (pinned.eval(halo), 2),
            (pinned.eval(large), 1)
        ],
        row![
            "free intercept",
            (free.intercept, 2),
            (free.eval(halo), 2),
            (free.eval(large), 1)
        ],
        row!["measured", (ys[0], 2), "-", (ys[ys.len() - 1], 1)],
    ];
    let title = "Ablation 3: latency convention (CSP-2 internodal; times in µs)";
    o.table(title, "Fit|latency|t(1.2 kB halo)|t(4 MB)", rows);
    let gap = (pinned.eval(large) / free.eval(large) - 1.0).abs();
    let label = format!(
        "l = {:.2} µs, 4 MB gap {:.3}%",
        pinned.intercept,
        100.0 * gap
    );
    let claim = "3: pinning reproduces the measured zero-byte time and costs under 1% at 4 MB";
    o.check_one(claim, label, pinned.intercept == ys[0] && gap < 0.01);

    // 4 — RCB vs block vs slab on a sparse anatomy: balance and halo volume.
    let tree = lab.workload(tree, KernelConfig::harvey());
    let (tasks, dims) = (32, tree.grid.dims());
    let rcb = tree.census(tasks).expect("splittable");
    let block = DecompAnalysis::analyze(&tree.grid, &BlockPartition::new(dims, tasks));
    let slab = DecompAnalysis::analyze(&tree.grid, &SlabPartition::new(dims, tasks));
    let row = |name: &str, a: &DecompAnalysis| {
        row![
            name,
            (a.z_factor(), 2),
            a.max_send_points(),
            a.max_messages()
        ]
    };
    let rows = vec![
        row("RCB (used)", &rcb.analysis),
        row("block grid", &block),
        row("slab", &slab),
    ];
    let points = tree.points();
    let title =
        format!("Ablation 4: cerebral tree decomposition ({points} fluid points, {tasks} tasks)");
    o.table(title, "Strategy|z (imbalance)|max halo pts|max peers", rows);
    let z = [rcb.analysis.z_factor(), block.z_factor(), slab.z_factor()];
    let claim = "4: RCB balances the sparse tree better than block or slab";
    o.check_one(claim, format!("z = {z:.2?}"), z[0] < z[1].min(z[2]));

    // 5 — refinement on vs off.
    let mut calibrator = ModelCalibrator::new();
    for r in [4usize, 8, 16, 36, 72, 144] {
        calibrator.record(r, general.predict(r).step_time_s, run(r).step_time_s);
    }
    let (raw, calibrated) = (
        calibrator.raw_error_pct(),
        calibrator.calibrated_error_pct(),
    );
    let rows = vec![
        row!["raw model", (1.0, 3), (raw, 1)],
        row![
            "calibrated",
            (calibrator.correction_factor(), 3),
            (calibrated, 1)
        ],
    ];
    let title = "Ablation 5: iterative refinement (general model, cylinder on CSP-2)";
    o.table(title, "Variant|k|MAPE (%)", rows);
    let label = format!("MAPE {raw:.1}% -> {calibrated:.1}%");
    let claim = "5: one fitted efficiency factor reduces the general model's error";
    o.check_one(claim, label, calibrated < raw);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Block;

    /// The rows of the table in `outcome` whose title starts with `prefix`.
    fn rows<'a>(outcome: &'a Outcome, prefix: &str) -> &'a [Vec<Cell>] {
        let table = outcome.blocks.iter().find_map(|block| match block {
            Block::Table { title, rows, .. } if title.starts_with(prefix) => Some(rows),
            _ => None,
        });
        table.unwrap_or_else(|| panic!("no table {prefix:?}"))
    }

    fn bits(cell: &Cell) -> u64 {
        match cell {
            Cell::Num(v, _) => v.to_bits(),
            other => panic!("{other:?} is not a number"),
        }
    }

    /// Fig. 6 reports the fits the models read: each internodal row is
    /// its platform's Table III `b_inter` / `l_inter`, each intranodal row
    /// its characterization's intranodal fit, bit for bit.
    #[test]
    fn fig6_and_table3_report_one_fit_per_link() {
        let lab = Lab::new(true);
        let (fig6, table3) = (fig6(&lab), table3(&lab));
        let (links, table3) = (rows(&fig6, "Fig. 6 linear fits"), rows(&table3, "Table III"));
        assert_eq!(links.len(), 6, "inter and intra on three platforms");
        for row in links {
            let (abbrev, link) = (row[0].to_string(), row[1].to_string());
            let expected = if link == "inter" {
                let t3 = table3.iter().find(|r| r[0].to_string() == abbrev);
                let t3 = t3.expect("a Table III row");
                (bits(&t3[4]), bits(&t3[5]))
            } else {
                let fit = lab.character(&platform(&abbrev)).intranodal_fit;
                (fit.bandwidth_mb_s.to_bits(), fit.latency_us.to_bits())
            };
            assert_eq!((bits(&row[2]), bits(&row[3])), expected, "{abbrev} {link}");
        }
    }
}
