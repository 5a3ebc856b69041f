//! Declarative, multi-threaded, shardable, distributable experiment sweeps.
//!
//! ```sh
//! cargo run -p airdnd-bench --bin sweep --release                       # full, all cores
//! cargo run -p airdnd-bench --bin sweep --release -- --quick f2         # CI-sized F2
//! cargo run -p airdnd-bench --bin sweep --release -- --threads 8 f2 t9  # explicit pool
//! cargo run -p airdnd-bench --bin sweep --release -- --bench            # BENCH_harness.json
//!
//! # Split one sweep across processes/hosts, then reassemble:
//! cargo run -p airdnd-bench --bin sweep --release -- --quick --shard 0/2 --out s0 f2
//! cargo run -p airdnd-bench --bin sweep --release -- --quick --shard 1/2 --out s1 f2
//! cargo run -p airdnd-bench --bin sweep --release -- --quick --merge s0 --merge s1 --out m f2
//!
//! # Or let the driver distribute, retry and merge in one invocation:
//! cargo run -p airdnd-bench --bin sweep --release -- drive --shards 4 --jobs 2 --quick f2
//! ```
//!
//! `drive` spawns `--shards` subprocesses of this same binary (at most
//! `--jobs` at a time per host), each running `--shard i/n`, retries
//! failures up to `--retries` times, tracks status and host assignments
//! in `<out>/drive-state.json`, and merges on completion. Shard artifacts
//! are written atomically and stamped with a manifest fingerprint, so
//! re-running `drive` *resumes*: fingerprint-valid completed shards are
//! skipped, torn or stale ones are discarded and re-run.
//!
//! `drive --hosts H` (H ≥ 2) runs the same drive on a simulated
//! multi-host transport (`SimHostTransport`): shard jobs execute
//! in-process on a deterministic virtual-time host pool, write artifacts
//! into per-host staging directories, and only reach `--out` via an
//! explicit artifact fetch. Host faults are injectable —
//! `--inject-lost-host H` kills a host mid-run, `--inject-partition I:J`
//! cuts hosts I and J off from the coordinator right as the first
//! artifact fetch would happen (healing later), `--inject-spawn-death H`
//! kills a host between validate and spawn — and the drive recovers by
//! fencing and reassigning shards to surviving hosts, still producing
//! byte-identical merged output.
//!
//! Determinism contract: stdout (the rendered tables) and the JSON/CSV
//! artifacts are **byte-identical for any `--threads` value, any
//! `--shard` split, and any `drive` schedule** — including drives that
//! lost shards to crashes and resumed. The harness farms runs across
//! workers/processes but reassembles results in manifest order, and seeds
//! derive from `(base_seed, run_index)`, never from scheduling or process
//! placement. Progress streams to stderr, which is exempt. F10 is the one
//! deliberate exception: it reports wall-clock µs/decision.
//!
//! Fault injection (tests/CI only): `--fail-after K` makes a shard
//! process exit mid-sweep after K runs; `--torn` makes it leave a
//! truncated artifact behind. `drive --inject-fail I:K` / `--inject-torn
//! I` forward those to shard I's *first* attempt only, so a retried drive
//! must recover and still produce byte-identical output. The `
//! AIRDND_SWEEP_FAIL_AFTER` / `AIRDND_SWEEP_TORN` environment variables
//! are equivalent to the flags.

use airdnd_bench::workloads;
use airdnd_harness::{
    drive, drive_with, parse_shard, render_shard, shard_artifact_name, shard_bounds, write_atomic,
    write_report, AnyWorkload, CommandSpec, DriveOptions, DriveTuning, Progress, Shard,
    ShardArtifact, SimFaults, SimHostTransport, SimJob, SpawnCtx, Validation,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    threads: usize,
    quick: bool,
    bench: bool,
    out: PathBuf,
    shard: Option<Shard>,
    merge: Vec<PathBuf>,
    drive: bool,
    shards: usize,
    jobs: usize,
    retries: usize,
    hosts: usize,
    inject_fail: Vec<(usize, usize)>,
    inject_torn: Vec<usize>,
    inject_skip: Vec<usize>,
    inject_lost_host: Vec<usize>,
    inject_partition: Vec<(usize, usize)>,
    inject_spawn_death: Vec<usize>,
    fail_after: Option<usize>,
    torn: bool,
    skip_write: bool,
    trace: Option<usize>,
    trace_out: Option<PathBuf>,
    validate_trace: Option<PathBuf>,
    validate_profile: Option<PathBuf>,
    bench_engine: bool,
    explain: bool,
    query: Option<u64>,
    bench_compare: Option<(PathBuf, PathBuf)>,
    max_regress: f64,
    names: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 0,
        quick: false,
        bench: false,
        out: PathBuf::from("target/experiments/sweep"),
        shard: None,
        merge: Vec::new(),
        drive: false,
        shards: 2,
        jobs: 0,
        retries: 1,
        hosts: 1,
        inject_fail: Vec::new(),
        inject_torn: Vec::new(),
        inject_skip: Vec::new(),
        inject_lost_host: Vec::new(),
        inject_partition: Vec::new(),
        inject_spawn_death: Vec::new(),
        fail_after: std::env::var("AIRDND_SWEEP_FAIL_AFTER")
            .ok()
            .and_then(|v| v.parse().ok()),
        torn: std::env::var("AIRDND_SWEEP_TORN").is_ok(),
        skip_write: std::env::var("AIRDND_SWEEP_SKIP_WRITE").is_ok(),
        trace: None,
        trace_out: None,
        validate_trace: None,
        validate_profile: None,
        bench_engine: false,
        explain: false,
        query: None,
        bench_compare: None,
        max_regress: 10.0,
        names: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => args.threads = numeric_value(&mut it, "--threads"),
            "--out" => match it.next() {
                Some(path) => args.out = PathBuf::from(path),
                None => usage_error("--out needs a path"),
            },
            "--shard" => match it.next() {
                Some(spec) => match spec.parse::<Shard>() {
                    Ok(shard) => args.shard = Some(shard),
                    Err(e) => usage_error(&e),
                },
                None => usage_error("--shard needs an `i/n` spec"),
            },
            "--merge" => match it.next() {
                Some(dir) => args.merge.push(PathBuf::from(dir)),
                None => usage_error("--merge needs a shard-artifact directory"),
            },
            "drive" => args.drive = true,
            "--shards" => args.shards = numeric_value(&mut it, "--shards"),
            "--jobs" => args.jobs = numeric_value(&mut it, "--jobs"),
            "--retries" => args.retries = numeric_value(&mut it, "--retries"),
            "--inject-fail" => match it.next().and_then(|v| {
                let (i, k) = v.split_once(':')?;
                Some((i.parse().ok()?, k.parse().ok()?))
            }) {
                Some(pair) => args.inject_fail.push(pair),
                None => usage_error("--inject-fail needs an `INDEX:RUNS` spec"),
            },
            "--inject-torn" => match it.next().and_then(|v| v.parse().ok()) {
                Some(index) => args.inject_torn.push(index),
                None => usage_error("--inject-torn needs a shard index"),
            },
            "--inject-skip" => match it.next().and_then(|v| v.parse().ok()) {
                Some(index) => args.inject_skip.push(index),
                None => usage_error("--inject-skip needs a shard index"),
            },
            "--hosts" => args.hosts = numeric_value(&mut it, "--hosts"),
            "--inject-lost-host" => match it.next().and_then(|v| v.parse().ok()) {
                Some(host) => args.inject_lost_host.push(host),
                None => usage_error("--inject-lost-host needs a host index"),
            },
            "--inject-partition" => match it.next().and_then(|v| {
                let (i, j) = v.split_once(':')?;
                Some((i.parse().ok()?, j.parse().ok()?))
            }) {
                Some((i, j)) if i != j => args.inject_partition.push((i, j)),
                Some(_) => usage_error("--inject-partition needs two distinct hosts"),
                None => usage_error("--inject-partition needs an `I:J` host pair"),
            },
            "--inject-spawn-death" => match it.next().and_then(|v| v.parse().ok()) {
                Some(host) => args.inject_spawn_death.push(host),
                None => usage_error("--inject-spawn-death needs a host index"),
            },
            "--skip-write" => args.skip_write = true,
            "--fail-after" => args.fail_after = Some(numeric_value(&mut it, "--fail-after")),
            "--trace" => args.trace = Some(numeric_value(&mut it, "--trace")),
            "--trace-out" => match it.next() {
                Some(path) => args.trace_out = Some(PathBuf::from(path)),
                None => usage_error("--trace-out needs a file path"),
            },
            "--validate-trace" => match it.next() {
                Some(path) => args.validate_trace = Some(PathBuf::from(path)),
                None => usage_error("--validate-trace needs a file path"),
            },
            "--validate-profile" => match it.next() {
                Some(path) => args.validate_profile = Some(PathBuf::from(path)),
                None => usage_error("--validate-profile needs a file path"),
            },
            "--bench-engine" => args.bench_engine = true,
            "explain" => args.explain = true,
            "--query" => args.query = Some(numeric_value(&mut it, "--query") as u64),
            "--bench-compare" => match (it.next(), it.next()) {
                (Some(old), Some(new)) => {
                    args.bench_compare = Some((PathBuf::from(old), PathBuf::from(new)));
                }
                _ => usage_error("--bench-compare needs OLD.json and NEW.json paths"),
            },
            "--max-regress" => args.max_regress = float_value(&mut it, "--max-regress"),
            "--torn" => args.torn = true,
            "--quick" | "quick" => args.quick = true,
            "--bench" => args.bench = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                usage_error(&format!("unknown flag `{flag}`"));
            }
            name => args.names.push(name.to_owned()),
        }
    }
    if args.shard.is_some() && !args.merge.is_empty() {
        usage_error("--shard and --merge are mutually exclusive");
    }
    if args.drive && (args.shard.is_some() || !args.merge.is_empty()) {
        usage_error("drive already shards and merges; drop --shard/--merge");
    }
    if args.trace.is_some()
        && (args.drive || args.bench || args.shard.is_some() || !args.merge.is_empty())
    {
        usage_error("--trace is a single-run debug mode; drop drive/--bench/--shard/--merge");
    }
    if args.trace == Some(0) {
        usage_error("--trace needs a positive entry capacity");
    }
    if args.trace_out.is_some()
        && (args.drive || args.bench || args.shard.is_some() || !args.merge.is_empty())
    {
        usage_error("--trace-out is a single-run export mode; drop drive/--bench/--shard/--merge");
    }
    if args.trace_out.is_some() && args.names.len() != 1 {
        usage_error("--trace-out exports one workload's first run; name exactly one workload");
    }
    if args.drive && args.shards == 0 {
        usage_error("drive needs --shards >= 1");
    }
    if args.hosts == 0 {
        usage_error("--hosts needs at least one host");
    }
    if args.hosts > 1 && !args.drive {
        usage_error("--hosts only applies to `drive`");
    }
    let host_faults = !args.inject_lost_host.is_empty()
        || !args.inject_partition.is_empty()
        || !args.inject_spawn_death.is_empty();
    if host_faults && args.hosts < 2 {
        usage_error("host fault injection needs drive --hosts >= 2");
    }
    for host in args
        .inject_lost_host
        .iter()
        .chain(args.inject_spawn_death.iter())
        .chain(args.inject_partition.iter().flat_map(|(i, j)| [i, j]))
    {
        if *host >= args.hosts {
            usage_error(&format!(
                "host {host} out of range (have --hosts {})",
                args.hosts
            ));
        }
    }
    if args.explain && args.names.len() != 1 {
        usage_error("explain decomposes one workload's first run; name exactly one workload");
    }
    if args.explain && (args.drive || args.bench || args.shard.is_some() || !args.merge.is_empty())
    {
        usage_error("explain is a single-run debug mode; drop drive/--bench/--shard/--merge");
    }
    if args.query.is_some() && !args.explain {
        usage_error("--query only applies to `explain`");
    }
    if args.bench_compare.is_some() && args.explain {
        usage_error("--bench-compare and explain are separate modes");
    }
    let known = workloads::names();
    for name in &args.names {
        if !known.contains(&name.as_str()) {
            usage_error(&format!("unknown experiment `{name}`"));
        }
    }
    args
}

fn numeric_value(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match it.next().map(|v| (v.parse(), v)) {
        Some((Ok(n), _)) => n,
        Some((Err(_), v)) => usage_error(&format!("{flag} takes a number, got `{v}`")),
        None => usage_error(&format!("{flag} needs a value")),
    }
}

fn float_value(it: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    match it.next().map(|v| (v.parse::<f64>(), v)) {
        Some((Ok(n), _)) if n.is_finite() && n >= 0.0 => n,
        Some((_, v)) => usage_error(&format!(
            "{flag} takes a non-negative percentage, got `{v}`"
        )),
        None => usage_error(&format!("{flag} needs a value")),
    }
}

fn usage() -> String {
    format!(
        "usage: sweep [--threads N] [--quick] [--out DIR] [--bench] [--bench-engine]\n\
         \x20            [--shard I/N] [--merge DIR]... [--trace N]\n\
         \x20            [--trace-out FILE] [--validate-trace FILE] [names...]\n\
         \x20      sweep drive --shards N [--jobs J] [--retries R] [--hosts H]\n\
         \x20            [--quick] [--out DIR] [names...]\n\
         \x20      sweep explain WORKLOAD [--query K] [--quick]\n\
         \x20      sweep --bench-compare OLD.json NEW.json [--max-regress PCT]\n\
         names: {}\n\
         --trace N runs each named workload's first run with a bounded\n\
         event trace (N entries) and dumps it to stderr;\n\
         --trace-out FILE exports one workload's first run as a JSONL\n\
         event log (FILE), a causal span log (FILE.spans.jsonl) and a\n\
         Perfetto timeline with flow arrows (FILE.trace.json);\n\
         --validate-trace FILE checks an exported JSONL event log and,\n\
         when FILE.spans.jsonl exists, span well-formedness;\n\
         explain WORKLOAD [--query K] prints one query's span tree and\n\
         its critical-path stage budget (K = task id; default: first\n\
         completed query);\n\
         --bench-compare OLD.json NEW.json diffs two engine-bench\n\
         profiles and exits nonzero on any phase slower than\n\
         --max-regress percent (default 10);\n\
         --bench-engine profiles engine phases into BENCH_engine.json;\n\
         --validate-profile FILE checks a BENCH_engine.json-shaped\n\
         profile: every workload must attribute wall-clock to all six\n\
         engine phases;\n\
         --shard runs one slice and writes a mergeable artifact to --out;\n\
         --merge (repeatable) reassembles artifacts byte-identically;\n\
         drive spawns the shards as subprocesses (bounded by --jobs per\n\
         host), retries failures, resumes completed shards, and merges —\n\
         output byte-identical to a single-process run;\n\
         drive --hosts H (H >= 2) runs the shards on a simulated\n\
         multi-host transport with per-host staging, lost-host detection\n\
         and shard reassignment — still byte-identical.\n\
         Fault injection (tests): --fail-after K, --torn, --skip-write,\n\
         drive --inject-fail I:K, --inject-torn I, --inject-skip I;\n\
         host faults (need --hosts >= 2): --inject-lost-host H,\n\
         --inject-partition I:J, --inject-spawn-death H",
        workloads::names().join(", ")
    )
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", usage());
    std::process::exit(2);
}

fn selected(names: &[String]) -> Vec<Box<dyn AnyWorkload>> {
    workloads::registry()
        .into_iter()
        .filter(|w| names.is_empty() || names.iter().any(|n| n == w.name()))
        .collect()
}

fn stderr_progress(name: &str) -> impl FnMut(Progress) + '_ {
    move |p: Progress| {
        eprint!("\r[{name}] {}/{} runs", p.done, p.total);
        let _ = std::io::stderr().flush();
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.validate_trace {
        validate_trace_file(path);
        return;
    }
    if let Some(path) = &args.validate_profile {
        validate_profile_file(path);
        return;
    }
    if let Some((old, new)) = &args.bench_compare {
        bench_compare(old, new, args.max_regress);
        return;
    }
    if args.explain {
        run_explain(&args);
        return;
    }
    if args.bench_engine {
        engine_snapshot(args.quick);
        return;
    }
    if args.bench {
        bench_snapshot(args.threads);
        return;
    }
    std::fs::create_dir_all(&args.out).expect("can create the output directory");
    let started = Instant::now();
    let mode = if let Some(path) = &args.trace_out {
        run_trace_out(&args, path);
        format!("trace-out ({})", path.display())
    } else if let Some(capacity) = args.trace {
        run_trace(&args, capacity);
        format!("trace ({capacity} entries)")
    } else if args.drive {
        run_drive(&args);
        format!("drive ({} shards)", args.shards)
    } else if let Some(shard) = args.shard {
        run_shards(&args, shard);
        format!("shard {shard}")
    } else if !args.merge.is_empty() {
        run_merge(&args, &args.merge);
        "merge".to_owned()
    } else {
        run_full(&args);
        "sweep".to_owned()
    };
    eprintln!(
        "{mode} done in {:.1} s ({} mode)",
        started.elapsed().as_secs_f64(),
        if args.quick { "quick" } else { "full" }
    );
}

/// `--trace N`: the debug lens. Executes only the *first* manifest run of
/// each selected workload with the event log enabled (up to N events per
/// category) and dumps the rendered events to stderr — generated worlds
/// are hard to eyeball, so this is how you watch one run happen. Writes
/// no artifacts and prints nothing to stdout.
fn run_trace(args: &Args, capacity: usize) {
    use airdnd_telemetry::TelemetryOptions;
    for workload in selected(&args.names) {
        let opts = TelemetryOptions::events(capacity);
        match workload.observe_first_run(args.quick, opts) {
            Some(telemetry) => {
                eprintln!(
                    "[{}] trace of run 0 ({capacity} entry cap):",
                    workload.name()
                );
                eprint!("{}", telemetry.events.render());
            }
            None => eprintln!("[{}] workload has no trace support", workload.name()),
        }
    }
}

/// `--trace-out FILE`: executes the named workload's *first* manifest run
/// with the typed event log enabled and exports it twice — the JSONL
/// event log at FILE (validated after writing: parse, byte-exact
/// re-serialization, strictly increasing sequence) and a
/// Chrome-trace/Perfetto timeline at FILE.trace.json. Both exporters are
/// pure functions of the virtual-time event log, so re-running emits
/// byte-identical files.
fn run_trace_out(args: &Args, path: &std::path::Path) {
    use airdnd_telemetry::{export, TelemetryOptions};
    let workloads = selected(&args.names);
    let workload = workloads.first().expect("one workload name validated");
    let opts = TelemetryOptions::events(TelemetryOptions::DEFAULT_EVENT_CAPACITY).with_spans();
    let Some(telemetry) = workload.observe_first_run(args.quick, opts) else {
        eprintln!("[{}] workload has no telemetry support", workload.name());
        std::process::exit(1);
    };
    let events = telemetry.events.events();
    let jsonl = export::to_jsonl(&events);
    let count = match export::validate_jsonl(&jsonl) {
        Ok(count) => count,
        Err(e) => {
            eprintln!("error: exporter produced an invalid event log: {e}");
            std::process::exit(1);
        }
    };
    let spans = telemetry.spans.spans();
    let spans_jsonl = export::spans_to_jsonl(spans);
    let span_count = match export::validate_spans_jsonl(&spans_jsonl) {
        Ok(count) => count,
        Err(e) => {
            eprintln!("error: exporter produced an invalid span log: {e}");
            std::process::exit(1);
        }
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("can create the trace directory");
        }
    }
    std::fs::write(path, &jsonl).expect("can write the JSONL event log");
    let spans_path = sibling_path(path, ".spans.jsonl");
    std::fs::write(&spans_path, &spans_jsonl).expect("can write the span log");
    let timeline = export::to_chrome_trace_full(&events, spans, workload.name());
    let timeline_path = sibling_path(path, ".trace.json");
    std::fs::write(
        &timeline_path,
        serde_json::to_string_pretty(&timeline).expect("serializes") + "\n",
    )
    .expect("can write the timeline");
    eprintln!(
        "[{}] {count} events -> {} (validated), {span_count} spans -> {} (validated),\n\
         \x20 timeline -> {}, {} evicted by ring bounds",
        workload.name(),
        path.display(),
        spans_path.display(),
        timeline_path.display(),
        telemetry.events.dropped_total(),
    );
}

/// `FILE` + suffix (e.g. `events.jsonl` -> `events.jsonl.spans.jsonl`).
fn sibling_path(path: &std::path::Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// `--validate-trace FILE`: validates an existing JSONL event log — every
/// line parses as a `Recorded` event, re-serializes byte-identically, and
/// the global sequence strictly increases. When a sibling
/// `FILE.spans.jsonl` exists (written by `--trace-out`), additionally
/// validates span well-formedness: every span closed or expired, every
/// `parent`/`follows_from` reference present, causal order respected, no
/// cycles. Exits nonzero naming the first violation.
fn validate_trace_file(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    match airdnd_telemetry::export::validate_jsonl(&text) {
        Ok(count) => println!("{}: {count} events, valid", path.display()),
        Err(e) => {
            eprintln!("{}: invalid event log: {e}", path.display());
            std::process::exit(1);
        }
    }
    let spans_path = sibling_path(path, ".spans.jsonl");
    if spans_path.exists() {
        let spans_text = std::fs::read_to_string(&spans_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", spans_path.display());
            std::process::exit(1);
        });
        match airdnd_telemetry::export::validate_spans_jsonl(&spans_text) {
            Ok(count) => println!("{}: {count} spans, well-formed", spans_path.display()),
            Err(e) => {
                eprintln!("{}: invalid span log: {e}", spans_path.display());
                std::process::exit(1);
            }
        }
    }
}

/// `--validate-profile FILE`: validates a `BENCH_engine.json`-shaped phase
/// profile — the schema contract the CI smoke job holds `--bench-engine`
/// to. The file must carry a non-empty `workloads` map, and every workload
/// must have numeric `wall_ms`/`attributed_ms` plus a `phases.phases`
/// table attributing to **all six** engine phases (lifecycle, movement,
/// sensor, mesh, tasks, radio), each with numeric `ms`/`share`/`entries`.
/// Exits nonzero naming the first violation.
fn validate_profile_file(path: &std::path::Path) {
    use serde_json::{Number, Value};

    const PHASES: [&str; 6] = ["lifecycle", "movement", "sensor", "mesh", "tasks", "radio"];
    let fail = |msg: String| -> ! {
        eprintln!("{}: invalid profile: {msg}", path.display());
        std::process::exit(1);
    };
    fn entries(v: &Value) -> Option<&[(String, Value)]> {
        match v {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }
    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        entries(v)?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn numeric(v: &Value) -> bool {
        matches!(
            v,
            Value::Number(Number::PosInt(_) | Number::NegInt(_) | Number::Float(_))
        )
    }

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    let root = Value::parse(&text).unwrap_or_else(|| fail("not valid JSON".into()));
    match field(&root, "mode") {
        Some(Value::String(mode)) if mode == "quick" || mode == "full" => {}
        _ => fail("`mode` must be \"quick\" or \"full\"".into()),
    }
    let workloads = field(&root, "workloads")
        .and_then(entries)
        .unwrap_or_else(|| fail("missing `workloads` object".into()));
    if workloads.is_empty() {
        fail("`workloads` is empty".into());
    }
    let mut checked = 0usize;
    for (name, workload) in workloads {
        for key in ["wall_ms", "attributed_ms"] {
            if !field(workload, key).is_some_and(numeric) {
                fail(format!("workload `{name}`: missing numeric `{key}`"));
            }
        }
        let phases = field(workload, "phases")
            .and_then(|report| field(report, "phases"))
            .and_then(entries)
            .unwrap_or_else(|| fail(format!("workload `{name}`: missing `phases.phases` table")));
        for phase in PHASES {
            let entry = phases
                .iter()
                .find(|(k, _)| k == phase)
                .map(|(_, v)| v)
                .unwrap_or_else(|| fail(format!("workload `{name}`: phase `{phase}` missing")));
            for key in ["ms", "share", "entries"] {
                if !field(entry, key).is_some_and(numeric) {
                    fail(format!(
                        "workload `{name}`: phase `{phase}` missing numeric `{key}`"
                    ));
                }
            }
        }
        checked += 1;
    }
    println!(
        "{}: {checked} workload profile(s), all six phases attributed, valid",
        path.display()
    );
}

/// `explain WORKLOAD [--query K]`: executes the workload's first manifest
/// run with span recording enabled, picks one query (task id `K`, or the
/// first completed query when `--query` is omitted), prints its causal
/// span tree, and decomposes its end-to-end latency into the five
/// critical-path stages — which sum exactly to the total by construction.
fn run_explain(args: &Args) {
    use airdnd_telemetry::{extract, Span, SpanKind, SpanStatus, Stage, TelemetryOptions};

    let workloads = selected(&args.names);
    let workload = workloads.first().expect("one workload name validated");
    let opts = TelemetryOptions::default().with_spans();
    let Some(telemetry) = workload.observe_first_run(args.quick, opts) else {
        eprintln!("[{}] workload has no telemetry support", workload.name());
        std::process::exit(1);
    };
    let spans = telemetry.spans.spans();
    if let Err(e) = airdnd_telemetry::validate_spans(spans) {
        eprintln!("error: recorded span log is malformed: {e}");
        std::process::exit(1);
    }
    let completed: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Query && s.status == SpanStatus::Closed)
        .map(|s| s.task)
        .collect();
    let task = match args.query {
        Some(k) => k,
        None => match completed.first() {
            Some(&task) => task,
            None => {
                eprintln!(
                    "[{}] first run recorded no completed query to explain",
                    workload.name()
                );
                std::process::exit(1);
            }
        },
    };
    let query: Vec<&Span> = spans.iter().filter(|s| s.task == task).collect();
    if query.is_empty() {
        eprintln!(
            "[{}] no spans for task {task}; completed queries: {completed:?}",
            workload.name()
        );
        std::process::exit(1);
    }
    println!(
        "[{}] query task#{task} — {} span(s):",
        workload.name(),
        query.len()
    );
    print_span_tree(&query);
    match extract(spans, task) {
        Some(budget) => {
            println!("critical-path stage budget:");
            for stage in Stage::ALL {
                let us = budget.stage_us(stage);
                let share = if budget.total_us == 0 {
                    0.0
                } else {
                    us as f64 / budget.total_us as f64 * 100.0
                };
                println!(
                    "  {:<9} {:>12.3} ms  ({share:>5.1} %)",
                    stage.name(),
                    us as f64 / 1e3
                );
            }
            println!(
                "  {:<9} {:>12.3} ms  (stages sum exactly to the total)",
                "total",
                budget.total_us as f64 / 1e3
            );
            assert_eq!(budget.stages_total_us(), budget.total_us);
        }
        None => println!(
            "task {task} never completed — no stage budget (spans above show how far it got)"
        ),
    }
}

/// Prints one query's spans as a tree (children under their `parent`,
/// recording order within a level), annotating cross-node causality.
fn print_span_tree(query: &[&airdnd_telemetry::Span]) {
    fn print_node(query: &[&airdnd_telemetry::Span], id: u64, depth: usize) {
        let Some(span) = query.iter().find(|s| s.id == id) else {
            return;
        };
        let ms = |t: airdnd_sim::SimTime| t.as_nanos() as f64 / 1e6;
        let status = match span.status {
            airdnd_telemetry::SpanStatus::Open => "open",
            airdnd_telemetry::SpanStatus::Closed => "closed",
            airdnd_telemetry::SpanStatus::Expired => "expired",
        };
        let follows = span
            .follows_from
            .map(|f| format!(", follows #{f}"))
            .unwrap_or_default();
        println!(
            "  {:indent$}{:<13} #{:<3} node#{:<4} [{:>10.3} ms .. {:>10.3} ms]  {:>9.3} ms  {status}{follows}",
            "",
            span.kind.label(),
            span.id,
            span.actor,
            ms(span.start),
            span.end.map(ms).unwrap_or(f64::NAN),
            span.duration_us() as f64 / 1e3,
            indent = depth * 2,
        );
        for child in query.iter().filter(|s| s.parent == Some(id)) {
            print_node(query, child.id, depth + 1);
        }
    }
    for root in query.iter().filter(|s| s.parent.is_none()) {
        print_node(query, root.id, 0);
    }
}

/// `--bench-compare OLD.json NEW.json`: diffs two engine-bench profiles
/// per `(workload, phase)` and exits nonzero when any phase regressed
/// beyond `--max-regress` percent (and a 1 ms absolute floor). The table
/// goes to stdout; regressions are repeated on stderr.
fn bench_compare(old: &std::path::Path, new: &std::path::Path, max_regress_pct: f64) {
    let read = |path: &std::path::Path| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(1);
        })
    };
    let comparison =
        airdnd_bench::compare::compare_profiles(&read(old), &read(new), max_regress_pct)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
    println!(
        "bench-compare {} -> {} (tolerance {max_regress_pct} %):",
        old.display(),
        new.display()
    );
    for delta in &comparison.deltas {
        println!("  {delta}");
    }
    let regressions = comparison.regressions();
    if regressions.is_empty() {
        println!("no regressions beyond {max_regress_pct} %");
    } else {
        eprintln!(
            "error: {} phase(s) regressed beyond {max_regress_pct} %:",
            regressions.len()
        );
        for delta in regressions {
            eprintln!("  {delta}");
        }
        std::process::exit(1);
    }
}

/// `--bench-engine`: emits `BENCH_engine.json` — wall-clock attributed to
/// engine phases (lifecycle, movement, sensor, mesh, tasks, radio) for
/// one profiled run of each scenario-backed workload kind: the canonical
/// F2 grid, G3's churned generated world, G4's multi-ego world and G5's
/// composite city. The attribution is the baseline the planned engine
/// optimizations are measured against. Wall-clock only — never
/// byte-diffed.
fn engine_snapshot(quick: bool) {
    use airdnd_telemetry::TelemetryOptions;
    use serde_json::json;

    let opts = TelemetryOptions {
        events: None,
        profile: true,
        spans: false,
    };
    let mut profiles = Vec::new();
    for name in ["f2", "g3", "g4", "g5"] {
        let workload = workloads::find(name).expect("registered workload");
        eprintln!("profiling first {name} run ...");
        let start = Instant::now();
        let telemetry = workload
            .observe_first_run(quick, opts)
            .expect("scenario workloads support telemetry");
        let wall = start.elapsed();
        let attributed_ms = telemetry.phases.total_nanos() as f64 / 1.0e6;
        profiles.push((
            name,
            json!({
                "wall_ms": wall.as_secs_f64() * 1e3,
                "attributed_ms": attributed_ms,
                "phases": telemetry.phases.report(),
            }),
        ));
    }
    let entries: Vec<(String, serde_json::Value)> = profiles
        .into_iter()
        .map(|(name, profile)| (name.to_owned(), profile))
        .collect();
    let snapshot = json!({
        "description": "wall-clock attribution to engine phases (first manifest run of each workload, profiling hooks enabled)",
        "mode": if quick { "quick" } else { "full" },
        "workloads": serde_json::Value::Object(entries),
    });
    let path = "BENCH_engine.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&snapshot).expect("serializes") + "\n",
    )
    .expect("can write BENCH_engine.json");
    println!("wrote {path}");
}

/// Default mode: execute each selected workload completely, print its
/// table and write the aggregate JSON/CSV artifacts.
fn run_full(args: &Args) {
    for workload in selected(&args.names) {
        let output = workload.execute(
            args.quick,
            args.threads,
            &mut stderr_progress(workload.name()),
        );
        eprintln!();
        print!("{}", output.result.table.render());
        let (json_path, csv_path) =
            write_report(&args.out, &output.aggregate).expect("can write sweep artifacts");
        eprintln!(
            "  -> {}\n  -> {}\n",
            json_path.display(),
            csv_path.display()
        );
    }
}

/// `--shard i/n`: run only this slice of each selected workload and write
/// one mergeable artifact per workload (atomically: tmp + rename, so a
/// crash mid-write never leaves a torn artifact). Nothing goes to stdout —
/// tables only exist once every shard has been merged.
///
/// Fault injection (tests only): `--fail-after K` kills the process after
/// K runs complete, before the current workload's artifact is written;
/// `--torn` bypasses the atomic write for the first workload, leaves a
/// truncated artifact, and exits nonzero — simulating a non-atomic writer
/// dying mid-write.
fn run_shards(args: &Args, shard: Shard) {
    let mut runs_before = 0usize;
    for workload in selected(&args.names) {
        let mut progress = stderr_progress(workload.name());
        let artifact = workload.execute_shard(args.quick, args.threads, shard, &mut |p| {
            progress(p);
            if let Some(limit) = args.fail_after {
                if runs_before + p.done >= limit {
                    eprintln!("\ninjected failure: exiting after {limit} run(s)");
                    std::process::exit(3);
                }
            }
        });
        runs_before += artifact.results.len();
        eprintln!();
        if args.skip_write {
            // The lying-exit fault: claim success while delivering nothing.
            // The driver must trust the validator, not this exit code.
            eprintln!("injected skip: exiting 0 without writing artifacts");
            std::process::exit(0);
        }
        let path = args.out.join(shard_artifact_name(workload.name(), shard));
        let text = render_shard(&artifact);
        if args.torn {
            std::fs::write(&path, &text.as_bytes()[..text.len() / 2])
                .expect("can write torn artifact");
            eprintln!("injected torn artifact: {} truncated", path.display());
            std::process::exit(4);
        }
        write_atomic(&path, &text).expect("can write shard artifact");
        eprintln!(
            "  -> {} ({} runs)\n",
            path.display(),
            artifact.results.len()
        );
    }
}

/// `--merge dir...` (and the tail of `drive`): load every selected
/// workload's shard artifacts from the given directories, reassemble in
/// manifest order, and emit exactly what an unsharded run would have
/// emitted.
fn run_merge(args: &Args, dirs: &[PathBuf]) {
    for workload in selected(&args.names) {
        let artifacts = load_artifacts(workload.name(), dirs);
        if artifacts.is_empty() {
            eprintln!(
                "warning: no shard artifacts for `{}`, skipping",
                workload.name()
            );
            continue;
        }
        let output = workload
            .merge_shards(args.quick, &artifacts)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot merge `{}`: {e}", workload.name());
                std::process::exit(1);
            });
        print!("{}", output.result.table.render());
        let (json_path, csv_path) =
            write_report(&args.out, &output.aggregate).expect("can write sweep artifacts");
        eprintln!(
            "  -> {}\n  -> {}\n",
            json_path.display(),
            csv_path.display()
        );
    }
}

/// All shard artifacts for one workload across the merge directories, in
/// deterministic (dir, filename) order.
fn load_artifacts(name: &str, dirs: &[PathBuf]) -> Vec<ShardArtifact> {
    let prefix = format!("{name}.shard");
    let mut artifacts = Vec::new();
    for dir in dirs {
        let entries = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("cannot read merge dir {}: {e}", dir.display()));
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with(&prefix) && f.ends_with(".json"))
            })
            .collect();
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
            let artifact = parse_shard(&text)
                .unwrap_or_else(|e| panic!("cannot parse {}: {e}", file.display()));
            artifacts.push(artifact);
        }
    }
    artifacts
}

/// Deletes `<name>.shard<i>of<n>.json` artifacts whose `n` is not this
/// drive's shard count: they belong to an abandoned split and the final
/// merge (which globs every `<name>.shard*.json` in the out dir) must
/// never see them.
fn purge_foreign_splits(dir: &std::path::Path, name: &str, shard_count: usize) {
    let prefix = format!("{name}.shard");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let file = entry.file_name();
        let Some(file) = file.to_str() else { continue };
        let Some(middle) = file
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let count = middle
            .split_once("of")
            .and_then(|(_, n)| n.parse::<usize>().ok());
        if count != Some(shard_count) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// `drive`: the distributed sweep driver. Spawns `--shards` subprocesses
/// of this binary (each `--shard i/n`, at most `--jobs` at a time),
/// validates artifacts against the manifest fingerprint (resume skips
/// valid completed shards, torn/stale ones are deleted and re-run),
/// retries failures up to `--retries`, tracks per-shard status in
/// `<out>/drive-state.json`, and merges — producing stdout and report
/// artifacts byte-identical to a single-process run.
fn run_drive(args: &Args) {
    let workloads = selected(&args.names);
    let shard_count = args.shards;
    let jobs = if args.jobs == 0 {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(shard_count)
    } else {
        args.jobs
    };
    let expectations: Vec<(String, String, usize)> = workloads
        .iter()
        .map(|w| {
            (
                w.name().to_owned(),
                airdnd_harness::fingerprint_hex(w.fingerprint(args.quick)),
                w.total_runs(args.quick),
            )
        })
        .collect();
    let fingerprints: Vec<String> = expectations.iter().map(|(_, fp, _)| fp.clone()).collect();
    // Artifacts left by a drive with a *different* shard count can never
    // merge with this split (and would trip the merge glob); purge them so
    // changing --shards over the same --out dir just re-runs cleanly.
    for (name, _, _) in &expectations {
        purge_foreign_splits(&args.out, name, shard_count);
    }
    let logs_dir = args.out.join("drive-logs");
    std::fs::create_dir_all(&logs_dir).expect("can create the drive log directory");

    // A shard is complete iff every selected workload's artifact exists,
    // parses, matches the current grid fingerprint, and covers exactly its
    // slice of run indices. Anything less is deleted so a re-run starts
    // clean — a torn (truncated) artifact is indistinguishable from a
    // missing one by design.
    let out = args.out.clone();
    let validate = move |shard: Shard| -> Validation {
        for (name, fingerprint, total_runs) in &expectations {
            let path = out.join(shard_artifact_name(name, shard));
            let Ok(text) = std::fs::read_to_string(&path) else {
                return Validation::Missing(format!("artifact {} missing", path.display()));
            };
            let discard = |reason: String| {
                let _ = std::fs::remove_file(&path);
                Validation::Invalid(reason)
            };
            let artifact = match parse_shard(&text) {
                Ok(artifact) => artifact,
                Err(e) => return discard(format!("torn artifact {}: {e}", path.display())),
            };
            if artifact.workload != *name
                || artifact.shard_index != shard.index
                || artifact.shard_count != shard.count
                || artifact.total_runs != *total_runs
                || artifact.fingerprint != *fingerprint
            {
                return discard(format!(
                    "stale artifact {} (grid or split changed)",
                    path.display()
                ));
            }
            let expected: Vec<usize> = shard_bounds(*total_runs, shard).collect();
            let got: Vec<usize> = artifact.results.iter().map(|r| r.run_index).collect();
            if got != expected {
                return discard(format!(
                    "incomplete artifact {} ({} of {} runs)",
                    path.display(),
                    got.len(),
                    expected.len()
                ));
            }
        }
        Validation::Valid
    };

    // The child protocol: re-invoke this binary in `--shard i/n` mode with
    // the same grids pinned (explicit workload names, quick flag, thread
    // count). Children keep stdout silent; stderr goes to a per-attempt
    // log under drive-logs/. On a staging transport the child's --out is
    // its host's staging directory — artifacts only reach the real out
    // dir via a successful fetch.
    let exe = std::env::current_exe().expect("can locate the sweep binary");
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_owned()).collect();
    let command = |ctx: &SpawnCtx<'_>| -> CommandSpec {
        let shard = ctx.shard;
        let child_out = ctx
            .staging
            .map_or_else(|| args.out.clone(), std::path::Path::to_path_buf);
        let mut spec = CommandSpec::new(exe.to_string_lossy());
        if args.quick {
            spec = spec.arg("--quick");
        }
        spec = spec
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--out")
            .arg(child_out.to_string_lossy())
            // Process-level parallelism is the drive's own: each child
            // gets one worker thread unless the caller asked for more.
            .arg("--threads")
            .arg(args.threads.max(1).to_string())
            .args(names.iter().cloned());
        if ctx.attempt == 0 {
            // First-attempt-only fault injection, so retries recover.
            if let Some(&(_, k)) = args.inject_fail.iter().find(|(i, _)| *i == shard.index) {
                spec = spec.arg("--fail-after").arg(k.to_string());
            }
            if args.inject_torn.contains(&shard.index) {
                spec = spec.arg("--torn");
            }
            if args.inject_skip.contains(&shard.index) {
                spec = spec.arg("--skip-write");
            }
        }
        spec.stderr_log(
            logs_dir
                .join(format!(
                    "shard{}of{}.attempt{}.log",
                    shard.index, shard.count, ctx.attempt
                ))
                .to_string_lossy(),
        )
    };

    let opts = DriveOptions {
        shard_count,
        jobs,
        retries: args.retries,
        state_path: args.out.join("drive-state.json"),
        workloads: names.clone(),
        fingerprints,
        quick: args.quick,
        tuning: DriveTuning::default(),
    };
    let log = |msg: &str| eprintln!("[drive] {msg}");
    let result = if args.hosts > 1 {
        // Simulated multi-host mode: shard jobs execute in-process on a
        // deterministic virtual-time host pool, write artifacts into
        // per-host staging, and only reach --out via a successful fetch.
        // Host faults come from the --inject-lost-host / --inject-partition
        // / --inject-spawn-death schedule; shard-level faults
        // (--inject-fail / --inject-torn / --inject-skip) apply to the
        // first attempt exactly as on the local path.
        let faults = SimFaults {
            lost_hosts: args.inject_lost_host.clone(),
            dead_at_spawn: args.inject_spawn_death.clone(),
            partitions: args.inject_partition.clone(),
            ..SimFaults::default()
        };
        let staging_root = args.out.join("drive-staging");
        let _ = std::fs::remove_dir_all(&staging_root);
        let runner = |job: SimJob<'_>| -> bool {
            if job.attempt == 0 {
                if args.inject_fail.iter().any(|(i, _)| *i == job.shard.index) {
                    return false; // the crash: nonzero exit, nothing written
                }
                if args.inject_skip.contains(&job.shard.index) {
                    return true; // the lying exit: zero exit, nothing written
                }
            }
            for workload in &workloads {
                let artifact =
                    workload.execute_shard(args.quick, args.threads.max(1), job.shard, &mut |_| {});
                let path = job
                    .staging
                    .join(shard_artifact_name(workload.name(), job.shard));
                let text = render_shard(&artifact);
                if job.attempt == 0 && args.inject_torn.contains(&job.shard.index) {
                    let _ = std::fs::write(&path, &text.as_bytes()[..text.len() / 2]);
                    return false; // died mid-write: torn artifact left behind
                }
                if write_atomic(&path, &text).is_err() {
                    return false;
                }
            }
            true
        };
        let mut sim = SimHostTransport::new(
            args.hosts,
            shard_count,
            args.out.clone(),
            staging_root,
            faults,
            runner,
        );
        drive_with(&mut sim, &opts, command, validate, log)
    } else {
        drive(&opts, command, validate, log)
    };
    match result {
        Ok(report) => {
            eprintln!(
                "[drive] all {} shards done ({} resumed, {} subprocess launches)",
                shard_count,
                report.resumed(),
                report.launches()
            );
        }
        Err(e) => {
            eprintln!(
                "[drive] error: {e}\n[drive] state: {}",
                opts.state_path.display()
            );
            std::process::exit(1);
        }
    }
    run_merge(args, std::slice::from_ref(&args.out));
}

/// Emits `BENCH_harness.json`: sequential vs parallel wall-clock for the
/// quick F2 sweep, plus pure dispatch overhead on no-op runs.
fn bench_snapshot(threads: usize) {
    use airdnd_harness::{run_sweep, SweepSpec};
    use serde_json::json;

    let f2 = workloads::find("f2").expect("f2 registered");
    let f2_runs = f2.total_runs(true);
    eprintln!("timing quick F2 sweep ({f2_runs} runs) ...");
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Mirror the executor's clamp so the snapshot records the worker
    // count the parallel F2 run actually used.
    let f2_workers = (if threads == 0 { hw } else { threads }).clamp(1, f2_runs);
    let start = Instant::now();
    let seq = f2.execute(true, 1, &mut |_| {});
    let seq_wall = start.elapsed();
    let start = Instant::now();
    let par = f2.execute(true, threads, &mut |_| {});
    let par_wall = start.elapsed();
    let identical = seq.result.table.render() == par.result.table.render();
    assert!(
        identical,
        "sequential and parallel F2 tables must be byte-identical"
    );

    // Pure orchestration overhead: dispatch N no-op runs.
    let noop_runs = 4096usize;
    let noop = SweepSpec::new(0u64)
        .axis("run", 0..noop_runs as u64, |cfg, &v| *cfg = v)
        .manifest();
    let pool = if threads == 0 { hw } else { threads };
    let start = Instant::now();
    let outcome = run_sweep(&noop, pool, |plan| plan.config);
    assert_eq!(outcome.results.len(), noop_runs);
    let noop_elapsed = start.elapsed();

    let snapshot = json!({
        "description": "harness overhead + sequential-vs-parallel wall clock for the quick F2 sweep",
        "hardware_threads": hw,
        "f2_quick": json!({
            "runs": f2_runs,
            "sequential_ms": seq_wall.as_secs_f64() * 1e3,
            "parallel_ms": par_wall.as_secs_f64() * 1e3,
            "parallel_threads": f2_workers,
            "speedup": seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9),
            "outputs_byte_identical": identical,
        }),
        "noop_dispatch": json!({
            "runs": noop_runs,
            "total_ms": noop_elapsed.as_secs_f64() * 1e3,
            "per_run_us": noop_elapsed.as_secs_f64() * 1e6 / noop_runs as f64,
        }),
    });
    let path = "BENCH_harness.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&snapshot).expect("serializes") + "\n",
    )
    .expect("can write BENCH_harness.json");
    println!("wrote {path}");
    worldgen_snapshot();
}

/// Emits `BENCH_worldgen.json`: the per-run world-generation overhead the
/// generated workloads (G1/G2) pay — map synthesis, occlusion derivation
/// and placement per family — plus one quick G1 sweep for scale.
fn worldgen_snapshot() {
    use airdnd_scenario::ScenarioConfig;
    use airdnd_worldgen::{families, FleetProfile};
    use serde_json::json;

    let cfg = ScenarioConfig::default().seeded(42);
    let profile = FleetProfile::dense();
    let mut per_family = Vec::new();
    for family in families() {
        // Warm up once, then time a fixed batch.
        let _ = family.kind.instantiate(&cfg, &profile);
        let iters = 200u32;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(family.kind.instantiate(&cfg, &profile));
        }
        let elapsed = start.elapsed();
        per_family.push(json!({
            "family": family.name,
            "instantiate_us": elapsed.as_secs_f64() * 1e6 / f64::from(iters),
        }));
    }
    let g1 = workloads::find("g1").expect("g1 registered");
    let start = Instant::now();
    let _ = g1.execute(true, 1, &mut |_| {});
    let g1_wall = start.elapsed();
    let snapshot = json!({
        "description": "world-generation overhead per family (map synthesis + occlusion derivation + placement) and quick G1 wall clock",
        "instantiate": per_family,
        "g1_quick": json!({
            "runs": g1.total_runs(true),
            "sequential_ms": g1_wall.as_secs_f64() * 1e3,
        }),
    });
    let path = "BENCH_worldgen.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&snapshot).expect("serializes") + "\n",
    )
    .expect("can write BENCH_worldgen.json");
    println!("wrote {path}");
}
