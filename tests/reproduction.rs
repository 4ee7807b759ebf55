//! Paper-shape regression tests: the table of experiments behind
//! `repro` and `REPRO.json`, run once at smoke size, with one test per
//! claim of the evaluation section asserting what `gate_repro` asserts of
//! the committed record — every check of that experiment holds and every
//! toleranced comparison is inside its tolerance. The set-ups, the paper's
//! constants and the checks themselves live in
//! `hemocloud_bench::experiments`; EXPERIMENTS.md is their narrative.

use hemocloud_bench::experiments::EXPERIMENTS;
use hemocloud_bench::gates::{gate_repro, gate_text};
use hemocloud_bench::repro::{run, to_json, Lab};
use hemocloud_obs::json::{parse, Value};
use std::sync::OnceLock;

/// The smoke-size record and what the gate says of it.
fn record() -> &'static (Value, Vec<String>) {
    static RECORD: OnceLock<(Value, Vec<String>)> = OnceLock::new();
    RECORD.get_or_init(|| {
        let lab = Lab::new(true);
        let json = to_json(&run(&lab, &EXPERIMENTS), lab.fast());
        (
            parse(&json).expect("valid JSON"),
            gate_text(&json, gate_repro),
        )
    })
}

/// The gate has nothing to say against experiment `id`, which makes
/// `checks` claims (at smoke size) and `gated` toleranced comparisons — so
/// dropping one is a failure here, not a quieter record.
fn assert_reproduced(id: &str, checks: usize, gated: usize) {
    let (doc, failures) = record();
    let mention = format!(" {id}: ");
    let against: Vec<&String> = failures.iter().filter(|f| f.contains(&mention)).collect();
    assert!(against.is_empty(), "{against:#?}");
    let all = doc.get("experiments").and_then(Value::as_array);
    let mine = all.and_then(|all| {
        all.iter()
            .find(|e| e.get("id") == Some(&Value::Str(id.into())))
    });
    let list = |key| {
        mine.and_then(|e| e.get(key)?.as_array())
            .expect("an experiment's list")
    };
    assert_eq!(list("checks").len(), checks, "{id} checks");
    let is_gated = |c: &&Value| c.get("rel_tol").or(c.get("abs_tol")).is_some();
    assert_eq!(
        list("comparisons").iter().filter(is_gated).count(),
        gated,
        "{id} comparisons"
    );
}

#[test]
fn table2_sustained_below_published_except_csp1() {
    assert_reproduced("table2", 1, 4);
}

#[test]
fn table3_characterization_recovers_paper_constants() {
    // a1 and a3 on all five systems, a2 on the three positive rows, b and l
    // on the three multi-node ones; the two negative a2 rows are not gated.
    assert_reproduced("table3", 2, 19);
}

#[test]
fn table4_noise_is_small_and_cloud_comparable_to_dedicated() {
    assert_reproduced("table4", 2, 0);
}

#[test]
fn fig5_hyperthreading_adds_no_bandwidth() {
    assert_reproduced("fig5", 2, 0);
}

#[test]
fn fig6_traditional_cluster_has_faster_interconnect() {
    assert_reproduced("fig6", 3, 6);
}

#[test]
fn fig9_fig10_composition_shapes() {
    assert_reproduced("fig9", 3, 0);
    assert_reproduced("fig10", 1, 0);
}

#[test]
fn fig11_relative_value_ordering() {
    assert_reproduced("fig11", 2, 0);
}

#[test]
fn interconnect_study_ec_pays_on_communication_heavy_workloads() {
    // "The cloud beats TRC" is a figure-scale check: one of two at smoke size.
    assert_reproduced("fig3", 1, 0);
}

#[test]
fn measured_aa_beats_ab_and_link_kinds_are_ordered() {
    assert_reproduced("fig4", 2, 0);
    // "The generalized model overpredicts" is figure-scale: two of three.
    assert_reproduced("fig8", 2, 0);
}

#[test]
fn every_other_experiment_reproduces_and_the_whole_record_passes_its_gate() {
    assert_reproduced("table1", 0, 0);
    assert_reproduced("fig2", 1, 0);
    assert_reproduced("fig7", 1, 0);
    assert_reproduced("ablations", 5, 0);
    assert_eq!(record().1, Vec::<String>::new());
}
