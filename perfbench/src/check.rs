//! The output check: report invariants and the simulated-outcome digest.

use airdnd_scenario::ScenarioReport;

/// Checks one report's invariants. `egos` is the number of query origins
/// the run was given.
///
/// # Errors
///
/// Names the first invariant the report breaks.
pub fn check_report(r: &ScenarioReport, egos: usize) -> Result<(), String> {
    let fail = |what: String| Err(what);
    if r.tasks_completed + r.tasks_failed > r.tasks_submitted {
        return fail(format!(
            "completed {} + failed {} > submitted {}",
            r.tasks_completed, r.tasks_failed, r.tasks_submitted
        ));
    }
    if r.latencies_ms.len() as u64 != r.tasks_completed {
        return fail(format!(
            "{} latency samples for {} completed queries",
            r.latencies_ms.len(),
            r.tasks_completed
        ));
    }
    if let Some(bad) = r.latencies_ms.iter().find(|l| !l.is_finite() || **l < 0.0) {
        return fail(format!("latency sample {bad} ms"));
    }
    for (name, rate) in [
        ("completion_rate", r.completion_rate),
        ("ego_completion_min", r.ego_completion_min),
        ("ego_completion_spread", r.ego_completion_spread),
        ("mean_coverage", r.mean_coverage),
        ("ego_only_coverage", r.ego_only_coverage),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return fail(format!("{name} {rate} outside [0, 1]"));
        }
    }
    let expected_rate = if r.tasks_submitted == 0 {
        1.0
    } else {
        r.tasks_completed as f64 / r.tasks_submitted as f64
    };
    if (r.completion_rate - expected_rate).abs() > 1e-12 {
        return fail(format!(
            "completion_rate {} != completed / submitted {expected_rate}",
            r.completion_rate
        ));
    }
    if r.egos != egos {
        return fail(format!("{} query origins, expected {egos}", r.egos));
    }
    if r.tasks_submitted == 0 {
        return fail("no query was submitted".to_owned());
    }
    Ok(())
}

/// FNV-1a 64 over the serialized reports, in run order. Two passes with
/// the same digest produced byte-identical simulated statistics.
pub fn digest(reports: &[ScenarioReport]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for report in reports {
        let json = serde_json::to_string(report).expect("reports serialize");
        for byte in json.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}
