//! No-panic properties for every text decoder that reads a file another
//! process wrote. `DriveState::parse` reads `drive-state.json` on resume,
//! `parse_shard` reads shard artifacts written by child processes, and
//! `parse_jsonl` / `parse_spans_jsonl` read exported event and span logs
//! back (`sweep --validate-trace` runs them on any file it is given). A
//! torn, stale or foreign file must answer `Err`, never panic. Inputs are
//! arbitrary bytes, strings spliced from JSON tokens plus the schema's own
//! vocabulary, and single-point mutations of a valid document.

use airdnd_harness::{
    parse_shard, render_shard, DriveState, HostEntry, ShardArtifact, ShardEntry, ShardResult,
    ShardStatus,
};
use airdnd_sim::SimTime;
use airdnd_telemetry::export::{parse_jsonl, parse_spans_jsonl, spans_to_jsonl, to_jsonl};
use airdnd_telemetry::{DropReason, EventKind, EventLog, QueryTracer, SpanLog};
use proptest::prelude::*;

/// Structural JSON tokens and edge-case scalars spliced into documents.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\n",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "1.5",
    "-0.0",
    "1e400",
    "-1e400",
    "4294967296",
    "18446744073709551616",
    "-9223372036854775809",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\"\\",
    "\\u12",
];

/// Garbage derived from `doc`: arbitrary bytes, token soup drawn from
/// [`TOKENS`] and `doc`'s own field names and values, or `doc` truncated,
/// overwritten or spliced at one point.
fn garbage(doc: String) -> impl Strategy<Value = String> {
    let mut vocab: Vec<String> = TOKENS.iter().map(|t| (*t).to_owned()).collect();
    vocab.extend(
        doc.split(|c| "{}[]:,\n ".contains(c))
            .filter(|piece| !piece.is_empty())
            .map(str::to_owned),
    );
    vocab.sort();
    vocab.dedup();
    let soup_vocab = vocab.clone();
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..512)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        prop::collection::vec(0..soup_vocab.len(), 0..96)
            .prop_map(move |picks| picks.iter().map(|&i| soup_vocab[i].as_str()).collect()),
        (any::<prop::sample::Index>(), 0..vocab.len(), 0u8..3)
            .prop_map(move |(at, token, mode)| mutate(&doc, at, &vocab[token], mode)),
    ]
}

/// `doc` cut at `at` (mode 0), with the char at `at` replaced by `token`
/// (mode 1), or with `token` inserted at `at` (mode 2).
fn mutate(doc: &str, at: prop::sample::Index, token: &str, mode: u8) -> String {
    let mut at = at.index(doc.len() + 1);
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    let (head, tail) = doc.split_at(at);
    match mode {
        0 => head.to_owned(),
        1 => {
            let rest = tail.char_indices().nth(1).map_or("", |(i, _)| &tail[i..]);
            format!("{head}{token}{rest}")
        }
        _ => format!("{head}{token}{tail}"),
    }
}

fn sample_state() -> DriveState {
    DriveState {
        shard_count: 3,
        workloads: vec!["f2".into(), "t6".into()],
        fingerprints: vec!["00ff00ff00ff00ff".into(), "0123456789abcdef".into()],
        quick: true,
        hosts: vec![
            HostEntry {
                index: 0,
                lost: false,
            },
            HostEntry {
                index: 1,
                lost: true,
            },
        ],
        shards: vec![
            ShardEntry {
                index: 0,
                status: ShardStatus::Done { attempts: 2 },
                assignments: vec![1, 0],
            },
            ShardEntry {
                index: 1,
                status: ShardStatus::Failed {
                    attempts: 3,
                    exit_code: Some(-9),
                },
                assignments: vec![0, 0, 0],
            },
            ShardEntry {
                index: 2,
                status: ShardStatus::Pending,
                assignments: vec![],
            },
        ],
        events: vec!["round 4: host 1 lost".into()],
    }
}

fn sample_artifact() -> String {
    render_shard(&ShardArtifact {
        workload: "f2".into(),
        shard_index: 1,
        shard_count: 2,
        total_runs: 4,
        fingerprint: "00ff00ff00ff00ff".into(),
        results: vec![
            ShardResult {
                run_index: 2,
                report: serde_json::json!({"views": 12, "kb_per_view": 1.25, "egos": [0, 3]}),
            },
            ShardResult {
                run_index: 3,
                report: serde_json::json!({"views": 0, "kb_per_view": 0.0, "egos": [7]}),
            },
        ],
    })
}

/// One event of every kind, as a JSONL export.
fn sample_events() -> String {
    let kinds = [
        EventKind::MeshJoin { node: 2 },
        EventKind::MeshLeave { node: 2 },
        EventKind::FrameTx {
            from: 1,
            to: None,
            bytes: 48,
        },
        EventKind::FrameRx {
            from: 1,
            to: 3,
            bytes: 48,
        },
        EventKind::FrameDrop {
            from: 1,
            to: Some(4),
            bytes: 1_200,
            reason: DropReason::QueueCap,
        },
        EventKind::TaskSubmit { task: 9, ego: 0 },
        EventKind::TaskOffload {
            task: 9,
            executor: 3,
        },
        EventKind::TaskComplete {
            task: 9,
            ego: 0,
            latency_us: 7_000,
        },
        EventKind::TaskExpire { task: 10, ego: 1 },
        EventKind::LifecycleSpawn { node: 5 },
        EventKind::LifecycleDespawn {
            node: 5,
            graceful: false,
        },
        EventKind::DemandFire { ego: 1, task: 2 },
    ];
    let mut log = EventLog::bounded(16);
    for (i, kind) in kinds.into_iter().enumerate() {
        log.record(SimTime::from_millis(i as u64), i as u32 % 3, kind);
    }
    to_jsonl(&log.events())
}

/// One completed query with a failover and one that expires, as a span
/// JSONL export.
fn sample_spans() -> String {
    let t = SimTime::from_millis;
    let mut log = SpanLog::enabled();
    let mut tracer = QueryTracer::new();
    tracer.submit(&mut log, 1, 0, t(2));
    tracer.offer_sent(&mut log, 1, 7, t(3), None);
    tracer.offer_sent(&mut log, 1, 8, t(5), Some(t(6)));
    tracer.result_ready(&mut log, 1, 8, t(6), t(9));
    tracer.result_sent(&mut log, 1, 8, t(9), Some(t(10)));
    tracer.complete(&mut log, 1, t(10));
    tracer.submit(&mut log, 2, 1, t(4));
    tracer.finish(&mut log, t(20));
    spans_to_jsonl(log.spans())
}

#[test]
fn sample_documents_parse() {
    let state = sample_state().render();
    assert_eq!(
        DriveState::parse(&state).expect("valid state").render(),
        state
    );
    let artifact = sample_artifact();
    assert_eq!(
        render_shard(&parse_shard(&artifact).expect("valid artifact")),
        artifact
    );
    let events = sample_events();
    assert_eq!(
        to_jsonl(&parse_jsonl(&events).expect("valid events")),
        events
    );
    let spans = sample_spans();
    assert_eq!(
        spans_to_jsonl(&parse_spans_jsonl(&spans).expect("valid spans")),
        spans
    );
}

#[test]
fn pathological_nesting_is_an_error() {
    for text in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        assert!(DriveState::parse(&text).is_err());
        assert!(parse_shard(&text).is_err());
        assert!(parse_jsonl(&text).is_err());
        assert!(parse_spans_jsonl(&text).is_err());
    }
}

proptest! {
    #[test]
    fn drive_state_parse_never_panics(
        inputs in prop::collection::vec(garbage(sample_state().render()), 8..9),
    ) {
        for text in &inputs {
            let _ = DriveState::parse(text);
        }
    }

    #[test]
    fn parse_shard_never_panics(
        inputs in prop::collection::vec(garbage(sample_artifact()), 8..9),
    ) {
        for text in &inputs {
            let _ = parse_shard(text);
        }
    }

    #[test]
    fn parse_jsonl_never_panics(inputs in prop::collection::vec(garbage(sample_events()), 8..9)) {
        for text in &inputs {
            let _ = parse_jsonl(text);
        }
    }

    #[test]
    fn parse_spans_jsonl_never_panics(
        inputs in prop::collection::vec(garbage(sample_spans()), 8..9),
    ) {
        for text in &inputs {
            let _ = parse_spans_jsonl(text);
        }
    }
}
