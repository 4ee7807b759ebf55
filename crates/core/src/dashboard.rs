//! The CSP Option Dashboard (paper Fig. 1, Discussion §IV).
//!
//! For a given workload, the dashboard tabulates every (platform, rank
//! count) option with its predicted throughput, time-to-solution and
//! dollar cost, then recommends an option under a user-chosen objective:
//! maximum throughput, minimum cost, or cheapest-within-deadline —
//! "it is ultimately up to the end user to determine what is important to
//! them and define an appropriate cost metric to fit".

use crate::characterize::PlatformCharacterization;
use crate::composition::{Composition, Prediction};
use crate::general::GeneralModel;
use crate::workload::Workload;
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::pricing::PriceSheet;
use hemocloud_cluster::topology::{build_topology, routed_task_comm, CommModel, TopologyVariant};
use hemocloud_decomp::placement::Placement;
use hemocloud_obs::json::{Layout, Writer};

/// The user's optimization objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Fastest time to solution regardless of cost.
    MaxThroughput,
    /// Cheapest total cost regardless of time.
    MinCost,
    /// Cheapest option that finishes within the deadline (seconds).
    Deadline(f64),
}

impl Objective {
    /// The key of the option this objective chooses among
    /// `(key, time_to_solution_s, cost_dollars)` triples, or `None` when
    /// none qualifies (no options, or an unmeetable deadline).
    ///
    /// This is the whole recommendation rule, on numbers: the dashboard
    /// applies it to its rows, the campaign scheduler to the options it
    /// scores per placement. Ties on the objective metric break toward
    /// the earliest option, deterministic under `total_cmp` even for NaN
    /// metrics; a NaN time never meets a deadline.
    pub fn pick<K>(self, options: impl IntoIterator<Item = (K, f64, f64)>) -> Option<K> {
        let options = options.into_iter();
        match self {
            Objective::MaxThroughput => first_min(options.map(|(key, time_s, _)| (key, time_s))),
            Objective::MinCost => first_min(options.map(|(key, _, cost)| (key, cost))),
            Objective::Deadline(seconds) => first_min(
                options
                    .filter(|&(_, time_s, _)| time_s <= seconds)
                    .map(|(key, _, cost)| (key, cost)),
            ),
        }
    }
}

/// The key of the first minimum metric under `total_cmp`. A branching
/// loop on purpose: `Iterator::min_by` compiles to a select chain that
/// measured 3.5× slower on `hemocloud-perf`'s 64-row recommend probe.
fn first_min<K>(keyed: impl Iterator<Item = (K, f64)>) -> Option<K> {
    let mut best: Option<(K, f64)> = None;
    for (key, metric) in keyed {
        if best.as_ref().is_none_or(|(_, least)| metric.total_cmp(least).is_lt()) {
            best = Some((key, metric));
        }
    }
    best.map(|(key, _)| key)
}

/// One row of the dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardEntry {
    /// Platform abbreviation.
    pub platform: String,
    /// Ranks (one per core).
    pub ranks: usize,
    /// Whole nodes billed.
    pub nodes: usize,
    /// Predicted throughput, MFLUPS.
    pub predicted_mflups: f64,
    /// Predicted wall-clock seconds for the whole campaign.
    pub time_to_solution_s: f64,
    /// Predicted total cost, dollars.
    pub cost_dollars: f64,
    /// Work per dollar: fluid-point updates per dollar.
    pub updates_per_dollar: f64,
    /// Communication pricing behind this row: `"scalar"` for the Eq. 12
    /// model, or the routed topology variant (`"fat-tree"`,
    /// `"placement-group"`, `"spread"`) whose fabric repriced the
    /// internodal term.
    pub topology: String,
}

/// The dashboard: all options for one workload.
#[derive(Debug, Clone)]
pub struct Dashboard {
    /// Workload the options were computed for.
    pub workload_name: String,
    /// All feasible options.
    pub entries: Vec<DashboardEntry>,
}

impl Dashboard {
    /// Build the dashboard from characterized platforms.
    ///
    /// Each platform contributes one entry per rank option that fits its
    /// allocation (rank counts above `total_cores` are skipped — unlike
    /// pure prediction, the dashboard only offers options the user can
    /// actually buy).
    pub fn build(
        characterizations: &[PlatformCharacterization],
        workload: &Workload,
        rank_options: &[usize],
        prices: &PriceSheet,
    ) -> Self {
        Self::build_routed(characterizations, workload, rank_options, prices, &[])
    }

    /// [`Dashboard::build`] with a topology axis: besides the scalar row,
    /// each feasible `(platform, ranks)` cell contributes one row per
    /// requested topology variant, its internodal term repriced by
    /// routing the workload's exact Eq. 9 halo messages through that
    /// variant's fabric (store-and-forward, per-link serialization, no
    /// cross-job traffic — the dashboard prices one job in isolation).
    /// Multi-hop variants on oversubscribed fabrics cost more than a
    /// placement group, so `recommend` now trades topology against
    /// platform and rank count in one pass.
    pub fn build_routed(
        characterizations: &[PlatformCharacterization],
        workload: &Workload,
        rank_options: &[usize],
        prices: &PriceSheet,
        variants: &[TopologyVariant],
    ) -> Self {
        let mut entries = Vec::new();
        for character in characterizations {
            let platform = &character.platform;
            let model = GeneralModel::from_characterization(character, workload);
            for (nodes, prediction) in model.options(rank_options) {
                let ranks = prediction.ranks;
                let mut push = |prediction: &Prediction, topology: &str| {
                    let time = prediction.time_for_steps(workload.steps);
                    let cost = prices.cost(platform, nodes, time);
                    entries.push(DashboardEntry {
                        platform: platform.abbrev.to_string(),
                        ranks,
                        nodes,
                        predicted_mflups: prediction.mflups,
                        time_to_solution_s: time,
                        cost_dollars: cost,
                        updates_per_dollar: if cost > 0.0 {
                            workload.total_updates() / cost
                        } else {
                            f64::INFINITY
                        },
                        topology: topology.to_string(),
                    });
                };
                push(&prediction, CommModel::Scalar.name());
                for &variant in variants {
                    if let Some(routed) =
                        routed_prediction(platform, workload, ranks, &prediction, variant)
                    {
                        push(&routed, variant.name());
                    }
                }
            }
        }
        Self {
            workload_name: workload.name.clone(),
            entries,
        }
    }

    /// Render the dashboard as deterministic JSON: fixed key order, fixed
    /// float precision, entries in build order. Byte-identical across
    /// reruns, thread counts and machines.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object(Layout::Block);
        w.key("report").string("hemocloud_dashboard");
        w.key("workload").string(&self.workload_name);
        w.key("entries").begin_array(Layout::Block);
        for e in &self.entries {
            w.begin_object(Layout::Inline);
            w.key("platform").string(&e.platform);
            w.key("topology").string(&e.topology);
            w.key("ranks").uint(e.ranks as u64);
            w.key("nodes").uint(e.nodes as u64);
            w.key("predicted_mflups").fixed(e.predicted_mflups, 6);
            w.key("time_to_solution_s").fixed(e.time_to_solution_s, 6);
            w.key("cost_dollars").fixed(e.cost_dollars, 6);
            w.key("updates_per_dollar").fixed(e.updates_per_dollar, 3);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Recommend an option under an objective. Returns `None` when no
    /// entry qualifies (e.g. an unmeetable deadline).
    pub fn recommend(&self, objective: Objective) -> Option<&DashboardEntry> {
        self.recommend_index(objective).map(|i| &self.entries[i])
    }

    /// Index of the recommended option in [`Dashboard::entries`], or
    /// `None` when no entry qualifies.
    ///
    /// This is the lookup a scheduler should carry around instead of the
    /// entry itself: entries are plain value rows, so matching a winner
    /// back by `==` silently resolves duplicate predictions (two pools
    /// priced identically) to the *first* duplicate rather than the row
    /// that actually won. The index is unambiguous. The rule itself is
    /// [`Objective::pick`] over the rows' `(time, cost)`.
    pub fn recommend_index(&self, objective: Objective) -> Option<usize> {
        let rows = self.entries.iter().enumerate();
        objective.pick(rows.map(|(i, e)| (i, e.time_to_solution_s, e.cost_dollars)))
    }
}

/// Reprice `base`'s communication under a routed fabric: take the
/// workload's exact decomposition census (the direct model's Eq. 9
/// analysis), route every internodal halo message through `variant`'s
/// topology, and substitute the resulting worst-task delivery time for
/// the general model's Eq. 13-16 comm terms. The memory side is
/// untouched. `None` when the grid cannot host `ranks` subdomains (the
/// scaled-census workloads keep their original grid, so they fall back
/// to scalar rows once ranks outgrow it).
fn routed_prediction(
    platform: &Platform,
    workload: &Workload,
    ranks: usize,
    base: &Prediction,
    variant: TopologyVariant,
) -> Option<Prediction> {
    let census = workload.census(ranks).ok()?;
    let placement = Placement::contiguous(ranks, platform.cores_per_node);
    let topology = build_topology(platform, variant, placement.n_nodes());
    let node_map: Vec<usize> = (0..placement.n_nodes()).collect();
    let routed = routed_task_comm(
        &topology,
        &census.analysis,
        &placement,
        &node_map,
        workload.profile.boundary_point_bytes,
        0.0,
        &[],
    );
    let inter_s = routed
        .per_task_inter_s
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    let composition = Composition {
        inter_s,
        comm_bandwidth_s: 0.0,
        comm_latency_s: 0.0,
        ..base.composition
    };
    Some(Prediction::from_composition(
        ranks,
        workload.points(),
        composition,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use hemocloud_cluster::platform::Platform;
    use hemocloud_geometry::anatomy::CylinderSpec;

    fn dashboard() -> Dashboard {
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 10_000);
        let characterizations: Vec<_> = [Platform::trc(), Platform::csp2(), Platform::csp2_small()]
            .iter()
            .map(|p| characterize(p, 42))
            .collect();
        Dashboard::build(
            &characterizations,
            &workload,
            &[16, 32, 64, 128, 512],
            &PriceSheet::default(),
        )
    }

    #[test]
    fn respects_platform_allocations() {
        let d = dashboard();
        // CSP-2 offers 144 cores: no 512-rank entry; CSP-2 Small offers
        // 128: the 128-rank option exists.
        let ranks_on = |abbrev: &str| -> Vec<usize> {
            let rows = d.entries.iter().filter(|e| e.platform == abbrev);
            rows.map(|e| e.ranks).collect()
        };
        assert!(ranks_on("CSP-2").iter().all(|&r| r <= 144));
        assert!(ranks_on("CSP-2 Small").contains(&128));
        // TRC has 2000 cores: 512 ranks present.
        assert!(ranks_on("TRC").contains(&512));
    }

    #[test]
    fn throughput_recommendation_is_fastest() {
        let d = dashboard();
        let best = d.recommend(Objective::MaxThroughput).unwrap();
        for e in &d.entries {
            assert!(best.time_to_solution_s <= e.time_to_solution_s);
        }
    }

    #[test]
    fn cost_recommendation_is_cheapest() {
        let d = dashboard();
        let best = d.recommend(Objective::MinCost).unwrap();
        for e in &d.entries {
            assert!(best.cost_dollars <= e.cost_dollars);
        }
    }

    #[test]
    fn deadline_filters_then_minimizes_cost() {
        let d = dashboard();
        let fastest = d.recommend(Objective::MaxThroughput).unwrap();
        let within = d
            .recommend(Objective::Deadline(fastest.time_to_solution_s * 4.0))
            .unwrap();
        assert!(within.time_to_solution_s <= fastest.time_to_solution_s * 4.0);
        // Impossible deadline yields no recommendation.
        assert!(d
            .recommend(Objective::Deadline(fastest.time_to_solution_s * 1e-6))
            .is_none());
    }

    #[test]
    fn duplicate_predictions_resolve_to_the_winning_index() {
        // Two pools priced *identically* except for their platform label —
        // the duplicate-row shape that made the old match-back-by-`==`
        // lookup ambiguous. The recommendation must be an index, it must
        // be the first duplicate (ties break toward the earliest entry),
        // and the caller can tell which row won even though the rows
        // compare equal on every metric.
        let row = |platform: &str, cost: f64| DashboardEntry {
            platform: platform.to_string(),
            ranks: 16,
            nodes: 1,
            predicted_mflups: 100.0,
            time_to_solution_s: 500.0,
            cost_dollars: cost,
            updates_per_dollar: 1.0e9 / cost,
            topology: "scalar".to_string(),
        };
        let d = Dashboard {
            workload_name: "dup".into(),
            entries: vec![row("A", 3.0), row("B", 1.0), row("C", 1.0)],
        };
        let i = d.recommend_index(Objective::MinCost).unwrap();
        assert_eq!(i, 1, "earliest of the tied cheapest rows wins");
        assert_eq!(d.recommend(Objective::MinCost).unwrap().platform, "B");
        // Same duplicate metrics under the other objectives.
        assert_eq!(d.recommend_index(Objective::MaxThroughput), Some(0));
        assert_eq!(d.recommend_index(Objective::Deadline(600.0)), Some(1));
        assert_eq!(d.recommend_index(Objective::Deadline(1.0)), None);
        // recommend() and recommend_index() always agree on the row.
        for obj in [
            Objective::MinCost,
            Objective::MaxThroughput,
            Objective::Deadline(600.0),
        ] {
            assert_eq!(
                d.recommend(obj),
                d.recommend_index(obj).map(|i| &d.entries[i])
            );
        }
    }

    #[test]
    fn entries_have_consistent_cost_metrics() {
        let d = dashboard();
        for e in &d.entries {
            assert!(e.cost_dollars > 0.0);
            assert!(e.updates_per_dollar.is_finite());
            assert!(e.nodes >= 1);
            assert_eq!(e.topology, "scalar", "plain build prices scalar comm");
        }
    }

    fn routed_dashboard() -> Dashboard {
        use hemocloud_cluster::topology::TopologyVariant;
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 10_000);
        let characterizations: Vec<_> = [Platform::csp2(), Platform::csp2_small()]
            .iter()
            .map(|p| characterize(p, 42))
            .collect();
        Dashboard::build_routed(
            &characterizations,
            &workload,
            &[16, 32, 64, 128],
            &PriceSheet::default(),
            &[TopologyVariant::PlacementGroup, TopologyVariant::Spread],
        )
    }

    #[test]
    fn topology_axis_multiplies_candidates_and_orders_variants() {
        let d = routed_dashboard();
        // Every (platform, ranks) cell carries a scalar row plus one row
        // per variant (the cylinder grid hosts all these rank counts).
        for topo in ["scalar", "placement-group", "spread"] {
            assert!(
                d.entries.iter().any(|e| e.topology == topo),
                "missing {topo} rows"
            );
        }
        // On multi-node cells, the oversubscribed spread fabric is never
        // faster than the one-hop placement group at the same cell.
        for e in d.entries.iter().filter(|e| e.topology == "spread") {
            if e.nodes < 2 {
                continue;
            }
            let pg = d
                .entries
                .iter()
                .find(|o| {
                    o.platform == e.platform
                        && o.ranks == e.ranks
                        && o.topology == "placement-group"
                })
                .expect("matching placement-group row");
            assert!(
                e.time_to_solution_s >= pg.time_to_solution_s,
                "{} ranks {}: spread {} faster than placement group {}",
                e.platform,
                e.ranks,
                e.time_to_solution_s,
                pg.time_to_solution_s
            );
        }
        // recommend() now picks across the topology axis too: the winner
        // carries a topology tag, and it is never an oversubscribed
        // variant when a same-cell placement-group row beats it.
        let best = d.recommend(Objective::MaxThroughput).unwrap();
        assert!(!best.topology.is_empty());
    }

    #[test]
    fn json_rendering_is_deterministic_and_tagged() {
        let d = routed_dashboard();
        let a = d.to_json();
        let b = d.to_json();
        assert_eq!(a, b, "rendering must be deterministic");
        assert!(a.contains("\"topology\": \"spread\""));
        assert!(a.contains("\"topology\": \"scalar\""));
        assert!(a.contains("\"report\": \"hemocloud_dashboard\""));
        assert!(!a.to_lowercase().contains("nan"));
        assert!(!a.to_lowercase().contains("inf"));
        // Entry count: one line per entry between the brackets.
        let rows = a.matches("\"platform\": ").count();
        assert_eq!(rows, d.entries.len());
    }

    #[test]
    fn hostile_names_and_non_finite_predictions_render_valid_json() {
        use hemocloud_obs::json::{parse, Value};
        let hostile = "sten\"8\\\u{1}\n";
        let mut d = routed_dashboard();
        d.workload_name = hostile.into();
        d.entries[0].platform = hostile.into();
        d.entries[0].topology = hostile.into();
        d.entries[0].predicted_mflups = f64::NAN;
        d.entries[0].time_to_solution_s = f64::INFINITY;
        let doc = parse(&d.to_json()).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some(hostile));
        let rows = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), d.entries.len());
        assert_eq!(rows[0].get("platform").and_then(Value::as_str), Some(hostile));
        assert_eq!(rows[0].get("topology").and_then(Value::as_str), Some(hostile));
        assert_eq!(rows[0].get("predicted_mflups"), Some(&Value::Null));
        assert_eq!(rows[0].get("time_to_solution_s"), Some(&Value::Null));
    }
}
