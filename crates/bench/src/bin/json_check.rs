//! `json_check` — schema gate for the JSON artefacts ci.sh produces, and
//! its performance gate.
//!
//! Modes:
//!
//! * `json_check chrome <file>` — validates a Chrome `trace_event`
//!   export: parseable JSON, a non-empty `traceEvents` array, the
//!   required fields on every event, monotonically non-decreasing `ts`
//!   within each thread's duration track, and at least one counter
//!   (temperature) event.
//! * `json_check bench <BENCHMARK.json> <baseline> <run>...` — the
//!   performance gate over perfbench runs, each `run` one run's stdout.
//!   It grades the untraced runs' median of each end-to-end metric
//!   against the baseline's median and quartiles, and checks one traced
//!   run's correlate throughput and warm serve answer. It writes the
//!   fresh medians and quartiles on stdout in the baseline's format, and
//!   exits 1 on any CRITICAL row (see [`gate`]).
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
//!
//! Exits nonzero with a message on the first violation, so ci.sh can
//! gate on it directly.

use std::collections::HashMap;
use std::process::ExitCode;

use tempest_obs::{Json, JsonWriter};

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

// ---------- the performance gate -------------------------------------------

/// Largest fall of `correlate.samples_per_s` below the baseline median
/// that is not CRITICAL.
const CORRELATE_TOLERANCE: f64 = 0.30;

/// The per-layer figures the gate reads from the traced runs.
const LAYERS: [&str; 3] = [
    "correlate.samples_per_s",
    "http.profile_p50_us",
    "query.first_touch_s",
];

/// The context fields a baseline records; the first two name the
/// machine.
const CONTEXT: [&str; 4] = ["nproc", "llc", "rustc", "seconds"];

/// How far a fresh figure moved in its bad direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Grade {
    Ok,
    Moderate,
    High,
    Critical,
}

impl Grade {
    /// Grade a relative change `worse` (positive when worse) against a
    /// `bound` and a relative `spread`: CRITICAL beyond the bound and
    /// twice the spread, HIGH beyond half the bound and the spread,
    /// MODERATE beyond the spread.
    fn of(worse: f64, bound: f64, spread: f64) -> Grade {
        if worse > bound && worse > 2.0 * spread {
            Grade::Critical
        } else if worse > bound / 2.0 && worse > spread {
            Grade::High
        } else if worse > spread {
            Grade::Moderate
        } else {
            Grade::Ok
        }
    }

    /// Like [`Grade::of`], but CRITICAL beyond the bound whatever the
    /// spread.
    fn floor(worse: f64, bound: f64, spread: f64) -> Grade {
        match Grade::of(worse, bound, spread) {
            _ if worse > bound => Grade::Critical,
            grade => grade.min(Grade::High),
        }
    }
}

/// One line of the gate's report.
struct Row {
    grade: Grade,
    what: String,
    detail: String,
}

/// The median, the quartiles and the number of a figure's runs.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Stats {
    median: f64,
    q1: f64,
    q3: f64,
    runs: usize,
}

impl Stats {
    /// The quartiles by the rule of Python's `statistics.quantiles(n=4)`,
    /// as perfbench computes its spreads; one value is its own
    /// quartiles. `None` when empty.
    fn of(values: &[f64]) -> Option<Stats> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: i64| {
            let m = n as i64 + 1;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            // Negative when the clamp moved `j` up: Python extrapolates.
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = (*v.get((n.max(1) - 1) / 2)? + v[n / 2]) / 2.0;
        let (q1, q3) = if n == 1 {
            (median, median)
        } else {
            (quartile(1), quartile(3))
        };
        Some(Stats {
            median,
            q1,
            q3,
            runs: n,
        })
    }

    /// Read what [`Stats::write`] wrote; `None` unless the median is
    /// positive, as every gated figure's is.
    fn read(doc: Option<&Json>) -> Option<Stats> {
        let field = |k| doc?.get(k)?.as_f64();
        let stats = Stats {
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
            runs: field("runs")? as usize,
        };
        (stats.median > 0.0).then_some(stats)
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("median").float(self.median);
        w.key("q1").float(self.q1);
        w.key("q3").float(self.q3);
        w.key("runs").int(self.runs as u64);
        w.end_object();
    }

    /// Interquartile distance as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// One perfbench run: its `context` line and its last line.
struct Run {
    name: String,
    context: Json,
    last: Json,
}

impl Run {
    fn parse(name: &str, text: &str) -> Result<Run, String> {
        let context = text
            .lines()
            .filter(|l| l.starts_with("{\"context\""))
            .find_map(|l| Json::parse(l).ok()?.get("context").cloned())
            .ok_or_else(|| format!("{name}: no context line"))?;
        let last = text.lines().rev().find(|l| !l.trim().is_empty());
        let last = Json::parse(last.unwrap_or(""))
            .map_err(|e| format!("{name}: last line is not a result: {e}"))?;
        Ok(Run {
            name: name.to_string(),
            context,
            last,
        })
    }

    fn workload(&self) -> &str {
        let workload = self.context.get("workload").and_then(Json::as_str);
        workload.unwrap_or("")
    }

    fn traced(&self) -> bool {
        self.context.get("trace").and_then(Json::as_bool) == Some(true)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.last.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    /// Why the run's own checks failed, if they did.
    fn failure(&self) -> Option<String> {
        let correct = self.last.get("correct").and_then(Json::as_bool);
        let failed = self.last.get("failed").and_then(Json::as_f64);
        match (correct, failed) {
            (Some(true), Some(0.0)) => None,
            _ => Some(format!(
                "correct {}, failed {}",
                correct.map_or("missing".into(), |c| c.to_string()),
                failed.map_or("missing".into(), |f| f.to_string())
            )),
        }
    }
}

/// The gate's rows and the fresh figures in the baseline's format.
struct Verdict {
    rows: Vec<Row>,
    fresh: String,
}

type GradeFn = fn(f64, f64, f64) -> Grade;

/// The gate at work: the baseline, the rows so far, and the fresh
/// figures, each keyed by its row's name as in the baseline.
struct Gate<'a> {
    baseline: &'a Json,
    rows: Vec<Row>,
    fresh: Vec<(String, Stats)>,
}

impl Gate<'_> {
    fn flag(&mut self, what: &str, why: &str) {
        self.rows.push(Row {
            grade: Grade::Critical,
            what: what.to_string(),
            detail: why.to_string(),
        });
    }

    /// The median and quartiles of `metric` over `runs`, kept as the
    /// fresh figure `what`.
    fn measure(&mut self, what: &str, runs: &[&Run], metric: &str) -> Option<Stats> {
        let values: Option<Vec<f64>> = runs.iter().map(|r| r.metric(metric)).collect();
        let now = values.as_deref().and_then(Stats::of);
        match now {
            Some(stats) => self.fresh.push((what.to_string(), stats)),
            None => self.flag(what, "no run reports it"),
        }
        now
    }

    /// Grade `now` against the baseline's figure `what` by `grade` of its
    /// relative change in the bad direction, `bound`, and the larger of
    /// the baseline's and the fresh runs' spreads: runs scattered by
    /// other work on the host widen the margin instead of failing. Both
    /// spreads are shares of the baseline median, so a fresh median near
    /// zero cannot make the margin unbounded.
    fn compare(&mut self, what: &str, now: Stats, higher: bool, bound: f64, grade: GradeFn) {
        let base = self.baseline.get("figures").and_then(|f| f.get(what));
        let Some(base) = Stats::read(base) else {
            return self.flag(what, "not in the baseline");
        };
        let change = (now.median - base.median) / base.median;
        let worse = if higher { -change } else { change };
        let now_spread = (now.q3 - now.q1) / base.median;
        let spread = base.spread().max(now_spread);
        self.rows.push(Row {
            grade: grade(worse, bound, spread),
            what: what.to_string(),
            detail: format!(
                "baseline {} fresh {} worse {:+.1} % bound {:.0} % spread {:.1} % / {:.1} %",
                num(base.median),
                num(now.median),
                worse * 100.0,
                bound * 100.0,
                base.spread() * 100.0,
                now_spread * 100.0
            ),
        });
    }

    /// The fresh figures, and the context of the first untraced run, as
    /// a baseline document.
    fn document(&self, runs: &[Run]) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("context").begin_object();
        let first = runs.iter().find(|r| !r.traced()).or(runs.first());
        for key in CONTEXT {
            w.key(key);
            match first.and_then(|r| r.context.get(key)) {
                Some(Json::Num(n)) => w.float(*n),
                Some(Json::Str(s)) => w.str(s),
                _ => w.null(),
            };
        }
        w.end_object();
        w.key("figures").begin_object();
        for (what, stats) in &self.fresh {
            w.key(what);
            stats.write(&mut w);
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Grade `runs` against `baseline`, with the bounds `benchmark`
/// (BENCHMARK.json) declares.
///
/// * A run with `correct: false` or `failed > 0` is CRITICAL.
/// * Per workload and end-to-end metric, the untraced runs' median is
///   graded by [`Grade::of`] against the metric's bound and the larger
///   of the baseline's and the fresh runs' spreads.
/// * Over the traced runs, `correlate.samples_per_s` more than
///   [`CORRELATE_TOLERANCE`] below the baseline is CRITICAL, and so is a
///   warm profile answer (`http.profile_p50_us`) not faster than the
///   first, uncached answers (`query.first_touch_s`).
/// * A figure missing from the runs or the baseline is CRITICAL, so the
///   gate never passes on nothing.
fn gate(benchmark: &Json, baseline: &Json, runs: &[Run]) -> Result<Verdict, String> {
    fn text<'a>(m: &'a Json, k: &str) -> &'a str {
        m.get(k).and_then(Json::as_str).unwrap_or_default()
    }
    let list = |key| {
        let list = benchmark.get(key).and_then(Json::as_arr);
        list.ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let mut g = Gate {
        baseline,
        rows: Vec::new(),
        fresh: Vec::new(),
    };
    for run in runs {
        if let Some(why) = run.failure() {
            let what = format!("run {} ({})", run.name, run.workload());
            g.flag(&what, &format!("its checks failed: {why}"));
        }
    }
    for workload in list("workloads")?.iter().map(|w| text(w, "name")) {
        let untraced: Vec<&Run> = runs
            .iter()
            .filter(|r| r.workload() == workload && !r.traced())
            .collect();
        for m in list("end_to_end")? {
            let (name, higher) = (text(m, "name"), text(m, "better") == "higher");
            let bound = m.get("bound").and_then(Json::as_f64);
            let bound = bound.ok_or(format!("BENCHMARK.json: {name} has no bound"))?;
            let what = format!("{workload} {name}");
            if let Some(now) = g.measure(&what, &untraced, name) {
                g.compare(&what, now, higher, bound, Grade::of);
            }
        }
    }
    let traced: Vec<&Run> = runs.iter().filter(|r| r.traced()).collect();
    let [correlate, warm_us, cold_s] =
        LAYERS.map(|l| g.measure(&format!("traced {l}"), &traced, l));
    if let Some(now) = correlate {
        let what = format!("traced {}", LAYERS[0]);
        g.compare(&what, now, true, CORRELATE_TOLERANCE, Grade::floor);
    }
    if let (Some(warm_us), Some(cold_s)) = (warm_us, cold_s) {
        let (warm, cold) = (warm_us.median / 1e6, cold_s.median);
        g.rows.push(Row {
            grade: if warm < cold {
                Grade::Ok
            } else {
                Grade::Critical
            },
            what: "traced warm answer vs cold".to_string(),
            detail: format!(
                "http.profile_p50_us {} s against query.first_touch_s {} s",
                num(warm),
                num(cold)
            ),
        });
    }
    Ok(Verdict {
        fresh: g.document(runs),
        rows: g.rows,
    })
}

/// A document's context on one line, for telling machines apart.
fn context_line(doc: &Json) -> String {
    let field = |k| match doc.get("context").and_then(|c| c.get(k)) {
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Str(s)) => s.clone(),
        _ => "?".to_string(),
    };
    CONTEXT.map(|k| format!("{k}: {}", field(k))).join("; ")
}

/// Four significant digits, in exponent form outside [0.01, 10^5).
fn num(x: f64) -> String {
    if (0.01..1e5).contains(&x.abs()) {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// `json_check bench`: grade, print the rows on stderr and the fresh
/// document on stdout; `Ok(false)` on a CRITICAL row. A baseline that
/// cannot be read leaves its rows CRITICAL, but the fresh document is
/// still written: that is how a first baseline is recorded.
fn bench(benchmark: &str, baseline: &str, runs: &[String]) -> Result<bool, String> {
    let baseline = load(baseline).unwrap_or_else(|e| {
        eprintln!("json_check: bench: {e}");
        Json::Null
    });
    let runs = runs
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path);
            Run::parse(path, &text.map_err(|e| format!("cannot read {path}: {e}"))?)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let verdict = gate(&load(benchmark)?, &baseline, &runs)?;
    print!("{}", verdict.fresh);
    let fresh = Json::parse(&verdict.fresh).map_err(|e| e.to_string())?;
    let machine = |doc: &Json| {
        CONTEXT[..2]
            .iter()
            .map(|k| doc.get("context")?.get(k).cloned())
            .collect::<Vec<_>>()
    };
    if machine(&baseline) != machine(&fresh) {
        eprintln!("json_check: bench: the baseline comes from another machine");
        eprintln!("  baseline: {}", context_line(&baseline));
        eprintln!("  fresh:    {}", context_line(&fresh));
    }
    for row in &verdict.rows {
        eprintln!(
            "{:<9} {:<42} {}",
            format!("{:?}", row.grade).to_uppercase(),
            row.what,
            row.detail
        );
    }
    Ok(verdict.rows.iter().all(|r| r.grade != Grade::Critical))
}

const USAGE: &str = "usage: json_check <chrome|limits|prom|api> <file> | \
                     fleet <file.json> [expected_nodes] | \
                     bench <BENCHMARK.json> <baseline.json> <run>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let result = match args.as_slice() {
        [mode, benchmark, baseline, runs @ ..] if mode == "bench" && !runs.is_empty() => {
            match bench(benchmark, baseline, runs) {
                Ok(true) => Ok(()),
                Ok(false) => Err("bench: a CRITICAL regression".to_string()),
                Err(e) => Err(e),
            }
        }
        // Prometheus expositions are text, not JSON — lint them directly.
        [mode, path] if mode == "prom" => read(path).and_then(|text| check_prom(&text)),
        [mode, path, n] if mode == "fleet" => match n.parse::<usize>() {
            Ok(n) => load(path).and_then(|doc| check_fleet(&doc, Some(n))),
            Err(_) => Err("fleet: expected_nodes must be an integer".into()),
        },
        [mode, path] => load(path).and_then(|doc| match mode.as_str() {
            "chrome" => check_chrome(&doc),
            "limits" => check_limits(&doc),
            "api" => check_api(&doc),
            "fleet" => check_fleet(&doc, None),
            other => Err(format!(
                "unknown mode {other:?} (expected chrome, bench, limits, fleet, prom or api)"
            )),
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        load(path).expect("BENCHMARK.json at the repository root")
    }

    /// One perfbench run's stdout, reduced to what the gate reads: a
    /// named line, the context line and the result line.
    fn run(workload: &str, traced: bool, verdict: (bool, u64), metrics: &[(&str, f64)]) -> Run {
        let values: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"s\"}}"))
            .collect();
        let text = format!(
            "metric {workload} untraced x = 1 s (how)\n\
             {{\"context\": {{\"workload\": \"{workload}\", \"seconds\": 4, \"trace\": {traced}, \
             \"nproc\": 2, \"llc\": \"L3 32768K\", \"rustc\": \"rustc 1.95.0\"}}}}\n\
             note: a line after the context\n\
             {{\"correct\": {}, \"attempted\": 100, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            verdict.0,
            verdict.1,
            values.join(", ")
        );
        Run::parse(workload, &text).expect("a well-formed run")
    }

    const OK: (bool, u64) = (true, 0);

    /// Every end-to-end metric at `value`, for one untraced run.
    fn untraced(workload: &str, value: f64) -> Run {
        let names = [
            "setup_s",
            "throughput_per_s",
            "answer_p50_ms",
            "peak_heap_mb",
        ];
        let metrics: Vec<(&str, f64)> = names.iter().map(|n| (*n, value)).collect();
        run(workload, false, OK, &metrics)
    }

    /// A traced run with correlate throughput, warm profile answer (µs)
    /// and first touch (s).
    fn traced(correlate: f64, warm_us: f64, cold_s: f64) -> Run {
        let layers = [
            ("correlate.samples_per_s", correlate),
            ("http.profile_p50_us", warm_us),
            ("query.first_touch_s", cold_s),
        ];
        run("analyze", true, OK, &layers)
    }

    /// A baseline with every end-to-end figure at median 100 and the
    /// given quartiles, and correlate at 10 M samples/s.
    fn baseline(q1: f64, q3: f64) -> Json {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("context").begin_object();
        w.key("nproc").int(2);
        w.key("llc").str("L3 32768K");
        w.end_object();
        w.key("figures").begin_object();
        for workload in ["capture", "analyze", "serve"] {
            for m in [
                "setup_s",
                "throughput_per_s",
                "answer_p50_ms",
                "peak_heap_mb",
            ] {
                w.key(&format!("{workload} {m}"));
                let (median, runs) = (100.0, 10);
                Stats {
                    median,
                    q1,
                    q3,
                    runs,
                }
                .write(&mut w);
            }
        }
        w.key("traced correlate.samples_per_s");
        let (q1, q3) = (9.9e6, 10.1e6);
        Stats {
            median: 10e6,
            q1,
            q3,
            runs: 5,
        }
        .write(&mut w);
        w.end_object();
        w.end_object();
        Json::parse(&w.finish()).unwrap()
    }

    /// Healthy runs of every workload, with `changed` swapped in.
    fn runs_with(changed: Vec<Run>) -> Vec<Run> {
        let mut runs: Vec<Run> = ["capture", "analyze", "serve"]
            .iter()
            .filter(|w| !changed.iter().any(|r| r.workload() == **w && !r.traced()))
            .map(|w| untraced(w, 100.0))
            .collect();
        if !changed.iter().any(Run::traced) {
            runs.push(traced(10e6, 60.0, 0.03));
        }
        runs.extend(changed);
        runs
    }

    fn grade_of(verdict: &Verdict, what: &str) -> Grade {
        let row = verdict.rows.iter().find(|r| r.what == what);
        row.unwrap_or_else(|| panic!("no row {what}")).grade
    }

    fn verdict(baseline: &Json, runs: &[Run]) -> Verdict {
        gate(&benchmark(), baseline, runs).expect("the gate runs")
    }

    #[test]
    fn unchanged_runs_pass_every_row() {
        let v = verdict(&baseline(99.0, 101.0), &runs_with(vec![]));
        assert_eq!(v.rows.len(), 3 * 4 + 2);
        assert!(v.rows.iter().all(|r| r.grade == Grade::Ok));
    }

    #[test]
    fn each_grade_band_against_bound_and_spread() {
        // answer_p50_ms: lower is better, bound 24 %; spread 2 %.
        let base = baseline(99.0, 101.0);
        for (fresh, want) in [
            (101.5, Grade::Ok),
            (103.0, Grade::Moderate),
            (115.0, Grade::High),
            (130.0, Grade::Critical),
        ] {
            let metrics = [
                ("setup_s", 100.0),
                ("throughput_per_s", 100.0),
                ("answer_p50_ms", fresh),
                ("peak_heap_mb", 100.0),
            ];
            let r = run("serve", false, OK, &metrics);
            let v = verdict(&base, &runs_with(vec![r]));
            assert_eq!(grade_of(&v, "serve answer_p50_ms"), want, "at {fresh}");
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_not_critical_within_twice_the_spread() {
        // peak_heap_mb's bound is 10 %; a 30 % spread lets 50 % through
        // as HIGH, and only beyond 60 % is it CRITICAL.
        let base = baseline(85.0, 115.0);
        let at = |value| verdict(&base, &runs_with(vec![untraced("capture", value)]));
        assert_eq!(grade_of(&at(150.0), "capture peak_heap_mb"), Grade::High);
        assert_eq!(
            grade_of(&at(170.0), "capture peak_heap_mb"),
            Grade::Critical
        );
    }

    #[test]
    fn scattered_fresh_runs_widen_the_spread() {
        // Throughput 35 % under the baseline: CRITICAL when the five runs
        // agree, HIGH when they scatter as on a host busy with other work.
        let base = baseline(99.0, 101.0);
        let at = |values: [f64; 5]| {
            let runs = values.iter().map(|v| untraced("capture", *v)).collect();
            grade_of(
                &verdict(&base, &runs_with(runs)),
                "capture throughput_per_s",
            )
        };
        assert_eq!(at([64.0, 65.0, 65.0, 66.0, 65.0]), Grade::Critical);
        assert_eq!(at([55.0, 60.0, 65.0, 75.0, 80.0]), Grade::High);
    }

    #[test]
    fn the_bad_direction_follows_better() {
        let base = baseline(99.0, 101.0);
        let lower = verdict(&base, &runs_with(vec![untraced("analyze", 70.0)]));
        assert_eq!(
            grade_of(&lower, "analyze throughput_per_s"),
            Grade::Critical
        );
        assert_eq!(grade_of(&lower, "analyze setup_s"), Grade::Ok);
        let higher = verdict(&base, &runs_with(vec![untraced("analyze", 130.0)]));
        assert_eq!(grade_of(&higher, "analyze throughput_per_s"), Grade::Ok);
        assert_eq!(grade_of(&higher, "analyze setup_s"), Grade::Critical);
    }

    #[test]
    fn medians_not_single_runs_are_graded() {
        // One slow run in five leaves the median where it was.
        let base = baseline(99.0, 101.0);
        let runs: Vec<Run> = [100.0, 101.0, 99.0, 100.0, 200.0]
            .iter()
            .map(|v| untraced("analyze", *v))
            .collect();
        let v = verdict(&base, &runs_with(runs));
        assert_eq!(grade_of(&v, "analyze answer_p50_ms"), Grade::Ok);
    }

    #[test]
    fn a_run_whose_own_checks_failed_is_critical() {
        let base = baseline(99.0, 101.0);
        for verdict_line in [(false, 0), (true, 3)] {
            let metrics = [("setup_s", 100.0)];
            let bad = run("capture", false, verdict_line, &metrics);
            let v = verdict(&base, &runs_with(vec![bad]));
            assert_eq!(grade_of(&v, "run capture (capture)"), Grade::Critical);
        }
    }

    #[test]
    fn a_warm_answer_not_faster_than_the_cold_one_is_critical() {
        let base = baseline(99.0, 101.0);
        let what = "traced warm answer vs cold";
        let fast = verdict(&base, &runs_with(vec![traced(10e6, 60.0, 0.03)]));
        assert_eq!(grade_of(&fast, what), Grade::Ok);
        let slow = verdict(&base, &runs_with(vec![traced(10e6, 40_000.0, 0.03)]));
        assert_eq!(grade_of(&slow, what), Grade::Critical);
    }

    #[test]
    fn correlate_is_critical_more_than_30_percent_under_the_baseline() {
        let base = baseline(99.0, 101.0);
        let what = "traced correlate.samples_per_s";
        let at = |c| verdict(&base, &runs_with(vec![traced(c, 60.0, 0.03)]));
        assert_eq!(grade_of(&at(7.1e6), what), Grade::High);
        assert_eq!(grade_of(&at(6.9e6), what), Grade::Critical);
        assert_eq!(grade_of(&at(5e6), what), Grade::Critical);
        assert_eq!(grade_of(&at(12e6), what), Grade::Ok);
    }

    #[test]
    fn missing_figures_are_critical() {
        // Without a baseline only the warm-against-cold check, which
        // reads the fresh run alone, can pass.
        let none = verdict(&Json::Null, &runs_with(vec![]));
        let critical = none.rows.iter().filter(|r| r.grade == Grade::Critical);
        assert_eq!(critical.count(), none.rows.len() - 1);
        let untraced_only: Vec<Run> = runs_with(vec![])
            .into_iter()
            .filter(|r| !r.traced())
            .collect();
        let v = verdict(&baseline(99.0, 101.0), &untraced_only);
        let what = "traced correlate.samples_per_s";
        assert_eq!(grade_of(&v, what), Grade::Critical);
    }

    #[test]
    fn the_fresh_document_parses_back_as_a_baseline() {
        let runs: Vec<Run> = (0..5)
            .flat_map(|i| {
                let v = 90.0 + 5.0 * i as f64;
                ["capture", "analyze", "serve"].map(|w| untraced(w, v))
            })
            .chain([traced(9e6, 60.0, 0.03), traced(11e6, 70.0, 0.04)])
            .collect();
        let first = verdict(&Json::Null, &runs);
        let recorded = Json::parse(&first.fresh).expect("the fresh document is JSON");
        let again = verdict(&recorded, &runs);
        assert!(again.rows.iter().all(|r| r.grade == Grade::Ok));
        assert_eq!(again.fresh, first.fresh);
        let ctx = recorded.get("context").unwrap();
        assert_eq!(ctx.get("nproc").and_then(Json::as_f64), Some(2.0));
        assert_eq!(ctx.get("seconds").and_then(Json::as_f64), Some(4.0));
        let figure = |what| Stats::read(recorded.get("figures").and_then(|f| f.get(what)));
        // Python: statistics.quantiles([90, 95, 100, 105, 110], n=4).
        let want = Stats {
            median: 100.0,
            q1: 92.5,
            q3: 107.5,
            runs: 5,
        };
        assert_eq!(figure("serve peak_heap_mb"), Some(want));
        let correlate = figure("traced correlate.samples_per_s");
        assert_eq!(correlate.map(|s| (s.median, s.runs)), Some((10e6, 2)));
    }

    #[test]
    fn quartiles_follow_python() {
        let q = |v: &[f64]| Stats::of(v).map(|s| (s.q1, s.median, s.q3));
        assert_eq!(q(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        let ten = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(q(&ten), Some((1.75, 3.5, 5.25)));
        assert_eq!(q(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(q(&[]), None);
    }
}
