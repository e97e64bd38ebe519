//! perfbench: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_steady --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Workloads: `fleet_steady` and `fleet_churn`, open-loop ECG sessions
//! against the sharded hub. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced pass and prints the per-layer metrics.
//! The last line of standard output is one JSON object; see README.md.

mod fleet;
mod host;
mod inputs;
mod ledger;
mod search;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end or per-layer metrics, by the `--trace` mode.
    pub metrics: Metrics,
    /// Outputs checked against a reference.
    pub attempted: u64,
    /// Checks that failed, with a reason each.
    pub failures: Vec<String>,
    /// Host header and workload parameters (JSON object members).
    pub header: Vec<(String, String)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Whether to run the traced pass.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let args = Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? == 1,
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut outcome = workloads::run(&args);
    for (name, (value, _)) in &outcome.metrics {
        if !value.is_finite() {
            outcome
                .failures
                .push(format!("metric {name} was not measured"));
        }
    }
    outcome.metrics.retain(|_, (v, _)| v.is_finite());

    let header = outcome
        .header
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("host {{{header}}}");
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, (value, unit)) in &outcome.metrics {
        println!("  {name:<48} {value:>16.4} {unit}");
    }
    for f in outcome.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    let failed = outcome.failures.len() as u64;

    // The full record, host header included, for later comparison.
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let record = format!(
        "{{\"host\": {{{header}}}, \"correct\": {correct}, \"failures\": [{}], \"metrics\": {}}}\n",
        outcome
            .failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&outcome.metrics)
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
