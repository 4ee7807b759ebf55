//! The paper's evaluation, one experiment or all of them: `repro <id>`
//! prints one table or figure (an unknown id lists them all); `repro all`,
//! or no argument like the other generators, prints every one and writes
//! the gated, provenance-stamped `REPRO.json`.
//!
//! `OUT_DIR=<dir>` is where `REPRO.json` goes (default: the current
//! directory, i.e. the committed record when run from the repo root).
//! The binary always runs the full size (about 2 s in release); the smoke
//! size is `Lab::new(true)`, which `tests/reproduction.rs` runs.
//!
//! Every number comes from the simulator at seed 2023, so the record is
//! byte-identical across reruns and machines.
//! `repro all` runs `gates::gate_repro` on what it writes and exits
//! non-zero on a check that does not hold or a comparison outside its
//! tolerance; `repro <id>` only prints (a failing check reads `[FAILS]`).

use hemocloud_bench::experiments::EXPERIMENTS;
use hemocloud_bench::repro::{run, to_json, Lab};
use hemocloud_bench::{gates, provenance};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| arg == "all" || arg == e.id)
        .collect();
    if selected.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("usage: repro <id>|all   (ids: {})", ids.join(", "));
        std::process::exit(2);
    }
    let lab = Lab::new(false);
    let results = run(&lab, selected);
    for (_, outcome) in &results {
        outcome.print();
    }
    let (censuses, trees) = (hemocloud_decomp::censuses(), hemocloud_decomp::rcb_trees());
    println!(
        "\nrepro: ran {} of {}; {} decomposition censuses over {} RCB trees",
        results.len(),
        EXPERIMENTS.len(),
        censuses.get(),
        trees.get()
    );
    if arg == "all" {
        let json = to_json(&results, lab.fast());
        let failures = gates::gate_text(&json, gates::gate_repro);
        provenance::write_artifact("REPRO.json", &json);
        gates::exit_on_failures(&failures);
    }
}
