//! `airdnd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Traced runs
//! also write their spans to `out/` in this package's directory.

use airdnd_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use airdnd_perfbench::run::{timed, traced};
use airdnd_perfbench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str =
    "usage: airdnd-perfbench --workload <corner-offload|city-fleet|ego-storm> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let (result, specs) = if args.trace {
        let (result, tracer) = traced(args.workload, args.seed);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{name}-seed{}.json", args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json().to_pretty_string()));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (result, PER_LAYER)
    } else {
        (timed(args.workload, args.seed, args.seconds), END_TO_END)
    };
    let passes: Vec<String> = result.pass_secs.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "workload {name} seed {} digest {:016x} pass seconds [{}]",
        args.seed,
        result.digest,
        passes.join(", ")
    );
    for spec in specs {
        if let Some(value) = result.metrics.get(spec.name) {
            println!("  {:<32} {:>16.6} {}", spec.name, value, spec.unit);
        }
    }
    match result.metrics.to_json(specs) {
        Ok(metrics) => {
            println!(
                "{}",
                result_line(result.correct, result.attempted, result.failed, metrics)
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("benchmark bug: {why}");
            ExitCode::FAILURE
        }
    }
}
