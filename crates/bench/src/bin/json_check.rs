//! `json_check` — schema gate for the JSON artefacts ci.sh produces.
//!
//! Modes:
//!
//! * `json_check chrome <file>` — validates a Chrome `trace_event`
//!   export: parseable JSON, a non-empty `traceEvents` array, the
//!   required fields on every event, monotonically non-decreasing `ts`
//!   within each thread's duration track, and at least one counter
//!   (temperature) event.
//! * `json_check bench <file>` — validates `BENCH_parse.json`: the
//!   pipeline speedup is a number, or null with a `reason`, the
//!   `self_overhead` section is present with its timing fields, the
//!   per-stage breakdown is complete, the correlate/cache sections
//!   carry their throughput numbers, and a warm `serve` request is
//!   faster than the cold one.
//! * `json_check limits <file>` — validates the obs snapshot written by
//!   `fuzz_decode --metrics-out`: the `limit_hits_total` and
//!   `cancellations_total` counters exist, are numeric, and fired at
//!   least once during the fuzz run.
//! * `json_check fleet <file.json> [expected_nodes]` — validates a
//!   `/fleet.json` document: header fields, `node_count` consistent with
//!   the `nodes` array, and per-node identity + staleness + full metric
//!   snapshot (optionally pinning the fleet size).
//! * `json_check prom <file>` — lints a Prometheus text exposition (the
//!   collector's `/metrics` body): every series line parses, names use
//!   the exposition charset, and the `fleet_*` families are present.
//! * `json_check api <file>` — validates a saved `/api/v1/*` answer
//!   from `tempest serve`. The document kind (health, sessions,
//!   profile, hotspots, fleet) is detected from its key set; every kind
//!   must carry schema version `v: 1` and its pinned required fields.
//! * `json_check floor <file> <baseline>` — throughput regression gate:
//!   fails when the fresh run's `correlate.samples_per_sec` has dropped
//!   more than 30% below the committed baseline's.
//!
//! Exits nonzero with a message on the first violation, so ci.sh can
//! gate on it directly.

use std::collections::HashMap;
use std::process::ExitCode;

use tempest_obs::Json;

fn fail(msg: &str) -> ExitCode {
    eprintln!("json_check: FAIL: {msg}");
    ExitCode::from(1)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn check_chrome(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    let mut durations = 0usize;
    let mut counters = 0usize;
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if event.get("name").and_then(|n| n.as_str()).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if event.get("pid").and_then(|p| p.as_f64()).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        match ph {
            "X" => {
                durations += 1;
                let tid = event
                    .get("tid")
                    .and_then(|t| t.as_f64())
                    .ok_or_else(|| format!("event {i}: X without tid"))?
                    as i64;
                let ts = event
                    .get("ts")
                    .and_then(|t| t.as_f64())
                    .ok_or_else(|| format!("event {i}: X without ts"))?;
                if event.get("dur").and_then(|d| d.as_f64()).is_none() {
                    return Err(format!("event {i}: X without dur"));
                }
                if let Some(&prev) = last_ts.get(&tid) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts went backwards on tid {tid} ({prev} -> {ts})"
                        ));
                    }
                }
                last_ts.insert(tid, ts);
            }
            "C" => counters += 1,
            "i" | "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    if durations == 0 {
        return Err("no duration (X) events".into());
    }
    if counters == 0 {
        return Err("no counter (C) events — temperature tracks missing".into());
    }
    eprintln!(
        "json_check: chrome OK — {} events ({durations} durations, {counters} counters, {} threads)",
        events.len(),
        last_ts.len()
    );
    Ok(())
}

fn check_bench(doc: &Json) -> Result<(), String> {
    let pipeline = doc.get("pipeline").ok_or("missing pipeline section")?;
    let speedup = pipeline
        .get("speedup_jobs4_vs_jobs1")
        .ok_or("missing pipeline.speedup_jobs4_vs_jobs1")?;
    if speedup.is_null() {
        let reason = pipeline
            .get("reason")
            .and_then(|r| r.as_str())
            .ok_or("null speedup without a pipeline.reason string")?;
        eprintln!("json_check: pipeline speedup is null ({reason}) — accepted");
    } else if speedup.as_f64().is_none() {
        return Err("pipeline.speedup_jobs4_vs_jobs1 is neither number nor null".into());
    }

    let overhead = doc
        .get("self_overhead")
        .ok_or("missing self_overhead section")?;
    for field in [
        "seconds_metrics_on",
        "seconds_metrics_off",
        "slowdown_pct",
        "seconds_shipping_metrics_on",
        "seconds_shipping_metrics_off",
        "shipping_slowdown_pct",
    ] {
        if overhead.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("self_overhead.{field} missing or non-numeric"));
        }
    }
    let on = overhead
        .get("seconds_metrics_on")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let off = overhead
        .get("seconds_metrics_off")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    if on <= 0.0 || off <= 0.0 {
        return Err("self_overhead timings must be positive".into());
    }
    let stages = doc.get("stages").ok_or("missing stages section")?;
    for field in [
        "timeline_seconds",
        "correlate_seconds",
        "profile_seconds",
        "render_seconds",
    ] {
        if stages.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("stages.{field} missing or non-numeric"));
        }
    }
    let correlate = doc.get("correlate").ok_or("missing correlate section")?;
    for field in ["seconds", "seconds_sharded_auto", "samples_per_sec"] {
        if correlate.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("correlate.{field} missing or non-numeric"));
        }
    }
    let cache = doc.get("cache").ok_or("missing cache section")?;
    for field in ["seconds_cold", "seconds_warm", "warm_speedup"] {
        if cache.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("cache.{field} missing or non-numeric"));
        }
    }
    let serve = doc.get("serve").ok_or("missing serve section")?;
    for field in ["request_cold_secs", "request_warm_secs", "warm_speedup"] {
        if serve.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("serve.{field} missing or non-numeric"));
        }
    }
    // A cache hit skips recover + analyze + render; a warm request that
    // is not faster than the cold one is paying for something else.
    let serve_secs = |field| serve.get(field).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let (cold, warm) = (
        serve_secs("request_cold_secs"),
        serve_secs("request_warm_secs"),
    );
    if warm >= cold {
        return Err(format!(
            "serve.request_warm_secs ({warm}) is not below serve.request_cold_secs ({cold})"
        ));
    }

    eprintln!(
        "json_check: bench OK — stages/correlate/cache/serve/self_overhead present, speedup well-formed"
    );
    Ok(())
}

/// The obs-registry snapshot `fuzz_decode --metrics-out` writes must
/// prove the hostile-input counters exist and actually fired: a fuzz run
/// that never tripped a limit or a cancellation exercised nothing.
fn check_limits(doc: &Json) -> Result<(), String> {
    let counters = doc.get("counters").ok_or("missing counters object")?;
    let mut seen = Vec::new();
    for name in ["limit_hits_total", "cancellations_total"] {
        let value = counters
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("counters.{name} missing or non-numeric"))?;
        if value < 1.0 {
            return Err(format!(
                "counters.{name} is {value} — the fuzz run never exercised it"
            ));
        }
        seen.push(format!("{name}={value}"));
    }
    eprintln!("json_check: limits OK — {}", seen.join(", "));
    Ok(())
}

/// The `/fleet.json` document a collector (or `tempest fleet --json`)
/// emits: well-formed header fields, a `nodes` array whose length
/// matches `node_count`, and a complete identity + metrics snapshot per
/// node. An optional expected node count pins the fleet size in CI.
fn check_fleet(doc: &Json, expected_nodes: Option<usize>) -> Result<(), String> {
    for field in ["generated_unix_ns", "stale_after_ms", "node_count"] {
        if doc.get(field).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("{field} missing or non-numeric"));
        }
    }
    let count = doc.get("node_count").and_then(|v| v.as_f64()).unwrap() as usize;
    let nodes = doc
        .get("nodes")
        .and_then(|n| n.as_arr())
        .ok_or("missing nodes array")?;
    if nodes.len() != count {
        return Err(format!(
            "node_count says {count} but nodes has {} entries",
            nodes.len()
        ));
    }
    if let Some(expected) = expected_nodes {
        if count != expected {
            return Err(format!("expected {expected} node(s), fleet has {count}"));
        }
    } else if count == 0 {
        return Err("fleet is empty".into());
    }
    for (i, node) in nodes.iter().enumerate() {
        for field in ["key", "session", "hostname"] {
            if node.get(field).and_then(|v| v.as_str()).is_none() {
                return Err(format!("node {i}: {field} missing or non-string"));
            }
        }
        for field in ["node_id", "origin_unix_ns", "age_ms", "updates"] {
            if node.get(field).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("node {i}: {field} missing or non-numeric"));
            }
        }
        if node.get("stale").and_then(|v| v.as_bool()).is_none() {
            return Err(format!("node {i}: stale missing or non-boolean"));
        }
        let metrics = node
            .get("metrics")
            .ok_or_else(|| format!("node {i}: missing metrics snapshot"))?;
        if metrics.get("counters").is_none() {
            return Err(format!("node {i}: metrics.counters missing"));
        }
    }
    eprintln!("json_check: fleet OK — {count} node(s), full snapshots attached");
    Ok(())
}

/// Lint a Prometheus text exposition (what `/metrics` and `tempest
/// fleet --prom` emit): every non-comment line is `name[{labels}] value`
/// with a parseable value and an exposition-charset name, and the fleet
/// families are present.
fn check_prom(text: &str) -> Result<(), String> {
    let mut series = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line}", i + 1))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {}: unparseable value: {line}", i + 1));
        }
        let name = name_part.split('{').next().unwrap_or_default();
        let valid = !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !valid {
            return Err(format!("line {}: bad metric name: {line}", i + 1));
        }
        series += 1;
    }
    if series == 0 {
        return Err("no series in the exposition".into());
    }
    for family in ["fleet_nodes", "fleet_node_counter"] {
        if !text.contains(family) {
            return Err(format!("fleet family {family} missing from exposition"));
        }
    }
    eprintln!("json_check: prom OK — {series} series, fleet families present");
    Ok(())
}

/// Require `field` to be numeric; shared across the v1 API checks.
fn require_num(doc: &Json, field: &str, kind: &str) -> Result<(), String> {
    doc.get(field)
        .and_then(|v| v.as_f64())
        .map(|_| ())
        .ok_or_else(|| format!("{kind}: {field} missing or non-numeric"))
}

/// Require `field` to be a string; shared across the v1 API checks.
fn require_str(doc: &Json, field: &str, kind: &str) -> Result<(), String> {
    doc.get(field)
        .and_then(|v| v.as_str())
        .map(|_| ())
        .ok_or_else(|| format!("{kind}: {field} missing or non-string"))
}

/// Validate one saved `/api/v1/*` answer. The document kind is detected
/// from its key set, then its pinned required fields are enforced —
/// the offline twin of the golden-schema tests in `tests/query_api.rs`.
fn check_api(doc: &Json) -> Result<(), String> {
    let v = doc
        .get("v")
        .and_then(|v| v.as_f64())
        .ok_or("schema version v missing or non-numeric")?;
    if v != 1.0 {
        return Err(format!("schema version is {v}, expected 1"));
    }
    if doc.get("status").is_some() {
        require_str(doc, "status", "health")?;
        require_num(doc, "sessions", "health")?;
        require_num(doc, "jobs", "health")?;
        if doc.get("status").and_then(|s| s.as_str()) != Some("ok") {
            return Err("health: status is not \"ok\"".into());
        }
        eprintln!("json_check: api OK — health document");
    } else if doc.get("session_count").is_some() {
        require_num(doc, "session_count", "sessions")?;
        let count = doc.get("session_count").and_then(|v| v.as_f64()).unwrap() as usize;
        let sessions = doc
            .get("sessions")
            .and_then(|s| s.as_arr())
            .ok_or("sessions: missing sessions array")?;
        if sessions.len() != count {
            return Err(format!(
                "sessions: session_count says {count} but the array has {}",
                sessions.len()
            ));
        }
        for (i, s) in sessions.iter().enumerate() {
            let kind = format!("sessions[{i}]");
            require_str(s, "id", &kind)?;
            require_str(s, "etag", &kind)?;
            require_num(s, "bytes", &kind)?;
            require_num(s, "segments", &kind)?;
        }
        eprintln!("json_check: api OK — session catalog, {count} session(s)");
    } else if doc.get("functions").is_some() {
        require_num(doc, "node_id", "profile")?;
        require_str(doc, "hostname", "profile")?;
        require_num(doc, "span_s", "profile")?;
        doc.get("quality").ok_or("profile: missing quality")?;
        let functions = doc
            .get("functions")
            .and_then(|f| f.as_arr())
            .ok_or("profile: functions is not an array")?;
        for (i, f) in functions.iter().enumerate() {
            let kind = format!("functions[{i}]");
            require_str(f, "name", &kind)?;
            require_num(f, "inclusive_s", &kind)?;
            require_num(f, "calls", &kind)?;
        }
        eprintln!(
            "json_check: api OK — profile document, {} function(s)",
            functions.len()
        );
    } else if doc.get("spots").is_some() {
        require_str(doc, "session", "hotspots")?;
        require_str(doc, "sort", "hotspots")?;
        require_num(doc, "top", "hotspots")?;
        let sort = doc.get("sort").and_then(|s| s.as_str()).unwrap_or("");
        if !matches!(sort, "temp" | "time") {
            return Err(format!("hotspots: sort is {sort:?}, expected temp|time"));
        }
        let top = doc.get("top").and_then(|v| v.as_f64()).unwrap() as usize;
        let spots = doc
            .get("spots")
            .and_then(|s| s.as_arr())
            .ok_or("hotspots: spots is not an array")?;
        if spots.is_empty() || spots.len() > top {
            return Err(format!(
                "hotspots: {} spot(s) against top={top}",
                spots.len()
            ));
        }
        for (i, s) in spots.iter().enumerate() {
            let kind = format!("spots[{i}]");
            require_str(s, "name", &kind)?;
            require_num(s, "avg_f", &kind)?;
            require_num(s, "inclusive_s", &kind)?;
            require_num(s, "score", &kind)?;
        }
        eprintln!(
            "json_check: api OK — hotspots document, {} spot(s)",
            spots.len()
        );
    } else if doc.get("node_count").is_some() {
        // The fleet answer reuses the /fleet.json shape wholesale.
        check_fleet(doc, None)?;
        eprintln!("json_check: api OK — fleet document");
    } else {
        return Err("unrecognized v1 document (none of the known key sets)".into());
    }
    Ok(())
}

/// Allowed drop in correlate throughput before the gate fails: a fresh
/// run may be 30% slower than the committed baseline (noisy CI hosts),
/// but not more.
const FLOOR_TOLERANCE: f64 = 0.30;

fn samples_per_sec(doc: &Json, which: &str) -> Result<f64, String> {
    doc.get("correlate")
        .and_then(|c| c.get("samples_per_sec"))
        .and_then(|v| v.as_f64())
        .filter(|v| *v > 0.0)
        .ok_or_else(|| format!("{which}: correlate.samples_per_sec missing or non-positive"))
}

fn check_floor(fresh: &Json, baseline: &Json) -> Result<(), String> {
    let now = samples_per_sec(fresh, "fresh run")?;
    let base = samples_per_sec(baseline, "baseline")?;
    let floor = base * (1.0 - FLOOR_TOLERANCE);
    if now < floor {
        return Err(format!(
            "correlate throughput regressed: {now:.0} samples/s is below the floor \
             {floor:.0} ({}% under baseline {base:.0})",
            ((1.0 - now / base) * 100.0).round()
        ));
    }
    eprintln!(
        "json_check: floor OK — correlate {now:.0} samples/s vs baseline {base:.0} (floor {floor:.0})"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path, extra) = match args.as_slice() {
        [mode, path] => (mode.as_str(), path.as_str(), None),
        [mode, path, extra] if mode == "floor" || mode == "fleet" => {
            (mode.as_str(), path.as_str(), Some(extra.as_str()))
        }
        _ => {
            return fail(
                "usage: json_check <chrome|bench|limits|prom|api> <file> | \
                 fleet <file.json> [expected_nodes] | floor <file> <baseline>",
            )
        }
    };
    // Prometheus expositions are text, not JSON — lint them directly.
    if mode == "prom" {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| check_prom(&text));
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let doc = match load(path) {
        Ok(doc) => doc,
        Err(e) => return fail(&e),
    };
    let result = match mode {
        "chrome" => check_chrome(&doc),
        "bench" => check_bench(&doc),
        "limits" => check_limits(&doc),
        "api" => check_api(&doc),
        "fleet" => match extra.map(str::parse::<usize>) {
            None => check_fleet(&doc, None),
            Some(Ok(n)) => check_fleet(&doc, Some(n)),
            Some(Err(_)) => Err("fleet: expected_nodes must be an integer".into()),
        },
        "floor" => match extra {
            Some(b) => load(b).and_then(|base| check_floor(&doc, &base)),
            None => Err("floor mode needs a baseline file".into()),
        },
        other => Err(format!(
            "unknown mode {other:?} (expected chrome, bench, limits, fleet, prom, api, or floor)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
