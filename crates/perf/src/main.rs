//! `hemocloud-perf`: the benchmark `BENCHMARK.json` runs.
//!
//! ```text
//! cargo run --release --offline -p hemocloud-perf -- [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints
//! the provenance stamp, every metric by name with its unit, and last a
//! one-line JSON result. Without, it runs every workload — each in a
//! process of its own, so peak memory is attributable — untraced and
//! traced, and `--out` collects the result lines under one stamp.
//! See the README beside this crate for the metrics and the workloads.

mod contract;
mod provenance;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use contract::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::median;
use trace::Tracer;
use workloads::{Outcome, RunCfg};

/// A run does its set-up at least this often and for at least this long;
/// the median is reported.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        emit_contract: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => args.out = Some(value("a path")?),
            "--emit-contract" => args.emit_contract = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the driver's form.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The last line of a run's standard output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    }
    let run = |seconds: f64, full: bool, t: &Tracer| {
        let (setup_reps, setup_min_s) = if full {
            (SETUP_REPS, SETUP_MIN_S)
        } else {
            (1, 0.0)
        };
        let cfg = RunCfg {
            seed: args.seed,
            seconds,
            setup_reps,
            setup_min_s,
            full,
        };
        workloads::run(name, &cfg, t).expect("every declared workload has a runner")
    };
    println!("provenance: {}", provenance::stamp_json(args.seed));
    println!(
        "workload: {name}, {} s, trace {}",
        args.seconds,
        u8::from(args.trace)
    );

    let (out, mut metrics): (Outcome, Vec<(&str, f64, &str)>) = if !args.trace {
        let out = run(args.seconds, true, &Tracer::new(false));
        let values = [
            out.throughput,
            provenance::peak_rss_mib(),
            median(&out.setup_s),
        ];
        println!("set-up: {}", stats::describe(&out.setup_s, 1.0, "s"));
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();
        (out, metrics)
    } else {
        // Half the time untraced, half traced: the same code twice, so the
        // difference in throughput is what the spans cost.
        let plain = run(args.seconds / 2.0, false, &Tracer::new(false));
        let t = Tracer::new(true);
        let mut out = run(args.seconds / 2.0, true, &t);
        out.failures.extend(plain.failures);
        let spans = t.spans();
        let ledger = trace::ledger(&spans);
        out.set(
            "perf.trace_overhead_pct",
            100.0 * (plain.throughput / out.throughput - 1.0),
        );
        out.set("perf.unaccounted_pct", ledger.unaccounted_pct);
        out.set("perf.samples", out.samples as f64);
        out.set("perf.window_s", out.window_s);
        for (rank, (stage, share)) in ledger.stages.iter().take(3).enumerate() {
            println!(
                "stage {}: {stage} {share:.1}% of the measured window",
                rank + 1
            );
        }
        write_trace(name, args.seed, &spans);
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    out.layer.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect();
        (out, metrics)
    };

    for note in &out.notes {
        println!("{note}");
    }
    for failure in &out.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let mut correct = out.failures.is_empty();
    for (name, value, unit) in &mut metrics {
        if !value.is_finite() {
            eprintln!("CHECK FAILED: metric {name} is {value}");
            (*value, correct) = (0.0, false);
        }
        println!("{name} = {value} {unit}");
    }
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Spans go next to the executable, which is inside the build directory.
fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("perf-traces")))
    else {
        return;
    };
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::spans_to_json(spans)));
    match written {
        Ok(()) => println!("trace: {} spans in {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let (ok, stdout) = match output {
                Ok(o) => {
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    (
                        o.status.success(),
                        String::from_utf8_lossy(&o.stdout).into_owned(),
                    )
                }
                Err(e) => {
                    eprintln!("{}: cannot start: {e}", w.name);
                    (false, String::new())
                }
            };
            print!("{stdout}");
            all_ok &= ok;
            lines.push(
                stdout
                    .lines()
                    .last()
                    .filter(|l| l.starts_with('{'))
                    .unwrap_or("null")
                    .to_string(),
            );
        }
        results.push(format!(
            "    \"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            w.name, lines[0], lines[1]
        ));
    }
    if let Some(path) = &args.out {
        let text = format!(
            "{{\n  \"provenance\": {},\n  \"seconds\": {},\n  \"results\": {{\n{}\n  }}\n}}\n",
            provenance::stamp_json(args.seed),
            args.seconds,
            results.join(",\n")
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        print!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys_and_one_object_per_metric() {
        let line = result_line(
            true,
            12,
            0,
            &[("throughput", 1.25, "1/s"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"throughput\": {\"value\": 1.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        // Whole floats still print as numbers, and attempted never reads 0.
        assert!(result_line(false, 0, 0, &[("n", 3.0, "count")]).contains("\"attempted\": 1,"));
        assert!(result_line(false, 0, 0, &[("n", 3.0, "count")]).contains("\"value\": 3,"));
    }
}
