//! The `tempest` CLI: subcommand parsing and execution.
//!
//! ```text
//! tempest demo <ft|bt|cg|ep|mg|lu|is|micro-d> [--class S|W|A|B|C] [--np N] [--out DIR]
//! tempest report <trace…>           # Figure-2(a) report per node
//! tempest summary <trace…>          # cluster-level merge & divergence
//! tempest plot <trace> [--sensor N] # ASCII timeline + function banner
//! tempest gprof <trace>             # baseline flat profile of the same events
//! tempest dump <trace>              # raw text dump
//! tempest sensors                   # live hwmon discovery + one sample
//! tempest spool recover <dir>       # rebuild a trace from a crash spool
//! tempest export <trace>            # Chrome trace_event JSON for Perfetto
//! tempest metrics <trace…>          # run the pipeline, print self-metrics
//! tempest watch <spool dir>         # live one-screen status of a spool
//! tempest collect serve --out DIR   # network collector daemon
//! tempest ship <spool dir> --to A   # stream a spool to a collector
//! ```
//!
//! Argument handling is deliberately hand-rolled: the dependency budget
//! (DESIGN.md) has no CLI crate, and the grammar is six fixed verbs.

use std::path::{Path, PathBuf};
use tempest_cluster::{ClusterRun, ClusterRunConfig};
use tempest_core::plot::{ascii_plot, function_banner, TimeSeries};
use tempest_core::timeline::Timeline;
use tempest_core::{report, AnalysisCache, ClusterProfile, Engine, ParseError};
use tempest_probe::trace::Trace;
use tempest_sensors::SensorId;
use tempest_workloads::npb::NpbBenchmark;
use tempest_workloads::Class;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// What went wrong, user-facing.
    pub message: String,
    /// Suggested process exit code (2 = usage, 1 = runtime).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn run(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

const USAGE: &str = "\
tempest — thermal profiler for parallel code (Tempest reproduction)

USAGE:
  tempest demo <ft|bt|cg|ep|mg|lu|is|micro-d> [--class S|W|A|B|C] [--np N] [--out DIR]
  tempest record  <a|b|c|d|e> [--out DIR]      (native run, real instrumentation)
  tempest report  <trace file(s)> [--format text|csv|kv|md|json] [--recover] [--jobs N]
                  [--cache DIR | --no-cache]   (result cache; TEMPEST_CACHE is the default)
  tempest summary <trace file(s)> [--recover] [--jobs N]
  tempest doctor  <trace file(s)> [--jobs N] [--fsck]   (triage damaged traces;
                  --fsck deep-verifies every spool frame under strict limits)
  tempest plot    <trace file> [--sensor N]
  tempest traits  <trace file> [--sensor N]
  tempest callgraph <trace file>
  tempest gprof   <trace file>
  tempest dump    <trace file>
  tempest sensors
  tempest spool recover <spool dir> [--out FILE]   (rebuild a trace from a crash spool)
  tempest export  <trace file> [--format chrome-trace] [--out FILE] [--recover]
  tempest export  <collected spool dir(s)> --format fleet-trace [--out FILE]
                  (cross-node ship→collect frame-latency track for Perfetto)
  tempest metrics <trace file(s)> [--format human|prom|json] [--recover] [--jobs N]
  tempest watch   <spool dir> [--interval SECS] [--count N]   (live spool status)
  tempest fleet   <HOST:PORT | collector out dir> [--interval SECS] [--count N]
                  [--json | --prom]   (live multi-node table from a collector's
                  metrics endpoint or its collected spool directories)
  tempest collect serve --out DIR [--addr HOST:PORT] [--once N] [--port-file FILE]
                  [--fsync] [--max-frame-bytes N] [--disk-budget N]
                  [--shed refuse|disconnect] [--rate-limit N] [--deadline SECS]
                  [--metrics-addr HOST:PORT [--metrics-port-file FILE]]
                  (--metrics-addr serves GET /metrics and /fleet.json over HTTP)
  tempest ship    <spool dir> --to HOST:PORT [--session NAME] [--follow]
                  [--retries N] [--base-ms N] [--cap-ms N] [--seed N]
                  [--no-telemetry]
  tempest serve   <collected dir> [--addr HOST:PORT] [--port-file FILE]
                  [--once N] [--once-ready] [--rate-limit N] [--rescan-ms MS]
                  (analysis query daemon: GET /api/v1/health, /api/v1/sessions,
                  /api/v1/sessions/{id}/profile, /api/v1/sessions/{id}/hotspots,
                  /api/v1/fleet; answers come from the analysis result cache,
                  default <dir>/.tempest-cache unless --no-cache)

  report/summary/doctor/export/serve share the common flags --jobs N,
  --cache DIR | --no-cache, --deadline SECS, and --metrics (print self-metrics
  after the run). A --deadline is a wall-clock budget after which analysis stops
  and renders whatever was decoded so far (partial results, flagged in the
  quality line; serve applies it per request and never caches partial answers).
";

/// Entry point given argv (without the program name). Writes to stdout;
/// returns an error with exit code otherwise.
pub fn main_with_args(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut it = args.iter();
    let verb = it.next().map(String::as_str).unwrap_or("");
    let rest: Vec<String> = it.cloned().collect();
    match verb {
        "demo" => cmd_demo(&rest, out),
        "record" => cmd_record(&rest, out),
        "report" => cmd_report(&rest, out),
        "summary" => cmd_summary(&rest, out),
        "doctor" => cmd_doctor(&rest, out),
        "plot" => cmd_plot(&rest, out),
        "traits" => cmd_traits(&rest, out),
        "callgraph" => cmd_callgraph(&rest, out),
        "gprof" => cmd_gprof(&rest, out),
        "dump" => cmd_dump(&rest, out),
        "sensors" => cmd_sensors(out),
        "spool" => cmd_spool(&rest, out),
        "export" => cmd_export(&rest, out),
        "metrics" => cmd_metrics(&rest, out),
        "watch" => cmd_watch(&rest, out),
        "fleet" => cmd_fleet(&rest, out),
        "collect" => cmd_collect(&rest, out),
        "ship" => cmd_ship(&rest, out),
        "serve" => cmd_serve(&rest, out),
        "help" | "--help" | "-h" | "" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Flags that take no value; everything else starting `--` consumes one.
const BOOLEAN_FLAGS: &[&str] = &[
    "--recover",
    "--metrics",
    "--fsync",
    "--follow",
    "--no-cache",
    "--fsck",
    "--json",
    "--prom",
    "--no-telemetry",
    "--once-ready",
];

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOLEAN_FLAGS.contains(&a.as_str()) && args.get(i + 1).is_some();
            continue;
        }
        out.push(a);
    }
    out
}

/// Parse `--jobs N` (0 = one worker per CPU, the default). Multi-node
/// analysis fans out over this many workers; results are merged in input
/// order, so any worker count produces byte-identical output.
fn parse_jobs(args: &[String]) -> Result<usize, CliError> {
    match flag_value(args, "--jobs") {
        None => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage("--jobs wants an integer (0 = auto)")),
    }
}

fn parse_class(s: &str) -> Result<Class, CliError> {
    Ok(match s.to_ascii_uppercase().as_str() {
        "S" => Class::S,
        "W" => Class::W,
        "A" => Class::A,
        "B" => Class::B,
        "C" => Class::C,
        other => return Err(CliError::usage(format!("unknown class `{other}`"))),
    })
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    Trace::load(Path::new(path)).map_err(|e| CliError::run(format!("{path}: {e}")))
}

/// The flag set shared by every analysis-running subcommand
/// (`report`/`summary`/`doctor`/`export`/`serve`), parsed once so the
/// flags mean the same thing — and fail the same way — everywhere:
/// `--jobs N`, `--cache DIR | --no-cache` (with `TEMPEST_CACHE` as the
/// implicit cache default), `--deadline SECS`, and `--metrics`.
struct CommonFlags {
    /// Worker count (0 = auto); analysis fan-out or serve workers.
    jobs: usize,
    /// Wall-clock analysis budget in seconds (0 = none). `deadline()`
    /// turns it into an absolute cutoff at the point of use.
    deadline_secs: u64,
    /// Print the self-metrics snapshot after the run.
    metrics: bool,
    /// `--no-cache` was passed — wins over `--cache` and the env var.
    no_cache: bool,
    /// Resolved cache directory (`--cache DIR`, else `TEMPEST_CACHE`),
    /// ignored when `no_cache` is set.
    cache_dir: Option<PathBuf>,
}

fn parse_common_flags(args: &[String]) -> Result<CommonFlags, CliError> {
    Ok(CommonFlags {
        jobs: parse_jobs(args)?,
        deadline_secs: parse_u64_flag(args, "--deadline", 0)?,
        metrics: flag_present(args, "--metrics"),
        no_cache: flag_present(args, "--no-cache"),
        cache_dir: flag_value(args, "--cache")
            .or_else(|| {
                std::env::var("TEMPEST_CACHE")
                    .ok()
                    .filter(|v| !v.is_empty())
            })
            .map(PathBuf::from),
    })
}

impl CommonFlags {
    /// The absolute deadline for an analysis starting now, if any.
    fn deadline(&self) -> Option<std::time::Instant> {
        (self.deadline_secs > 0)
            .then(|| std::time::Instant::now() + std::time::Duration::from_secs(self.deadline_secs))
    }

    /// Open the resolved result cache (`None` means run uncached).
    fn open_cache(&self) -> Result<Option<AnalysisCache>, CliError> {
        if self.no_cache {
            return Ok(None);
        }
        match &self.cache_dir {
            None => Ok(None),
            Some(dir) => AnalysisCache::open(dir)
                .map(Some)
                .map_err(|e| CliError::run(format!("{}: {e}", dir.display()))),
        }
    }

    /// The shared `--metrics` tail: append the self-metrics snapshot.
    fn finish(&self, out: &mut dyn std::io::Write) {
        if self.metrics {
            write_self_metrics(out);
        }
    }
}

/// Append the global self-metrics snapshot (human format) — the shared
/// tail of `--metrics` on report/summary/doctor.
fn write_self_metrics(out: &mut dyn std::io::Write) {
    let snap = tempest_obs::global().snapshot();
    let _ = write!(out, "\nself-metrics:\n{}", tempest_obs::to_human(&snap));
}

/// `tempest export`: render a trace in an interchange format. The only
/// format so far is `chrome-trace`: Chrome `trace_event` JSON that loads
/// directly in chrome://tracing or https://ui.perfetto.dev (functions as
/// per-thread duration events, sensors as counter tracks, gaps as
/// instant events).
fn cmd_export(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("export: which trace file?"))?;
    let common = parse_common_flags(args)?;
    let format = flag_value(args, "--format").unwrap_or_else(|| "chrome-trace".into());
    if format == "fleet-trace" {
        export_fleet_trace(&pos, args, out)?;
        common.finish(out);
        return Ok(());
    }
    if format != "chrome-trace" {
        return Err(CliError::usage(format!(
            "unknown export format `{format}` (chrome-trace|fleet-trace)"
        )));
    }
    let trace = if flag_present(args, "--recover") {
        Trace::load_salvage(Path::new(path.as_str()))
            .map(|(t, _)| t)
            .map_err(|e| CliError::run(format!("{path}: {e}")))?
    } else {
        load_trace(path)?
    };
    let doc = tempest_core::chrome_trace_json(&trace);
    match flag_value(args, "--out") {
        Some(file) => {
            std::fs::write(&file, doc).map_err(|e| CliError::run(format!("{file}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote {file} — open it at https://ui.perfetto.dev or chrome://tracing"
            );
        }
        None => {
            let _ = write!(out, "{doc}");
        }
    }
    common.finish(out);
    Ok(())
}

/// `tempest export --format fleet-trace`: render the cross-node
/// ship→collect frame-latency view from one or more collected session
/// spool directories. Each directory contributes one process whose
/// track holds a duration event per shipped frame, spanning the frame's
/// spool-append origin stamp to its collector receipt stamp (the
/// `FRAME_SHIPPED2` envelope carries both).
fn export_fleet_trace(
    pos: &[&String],
    args: &[String],
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut nodes: Vec<(String, Vec<tempest_probe::spool::FrameTrace>)> = Vec::new();
    for path in pos {
        let dir = Path::new(path.as_str());
        if !tempest_probe::spool::is_spool_dir(dir) {
            return Err(CliError::run(format!("{path}: not a spool directory")));
        }
        let (_, rep) = tempest_probe::spool::recover(dir)
            .map_err(|e| CliError::run(format!("{path}: {e}")))?;
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(path)
            .to_string();
        nodes.push((name, rep.frame_traces));
    }
    let traced: usize = nodes.iter().map(|(_, t)| t.len()).sum();
    if traced == 0 {
        return Err(CliError::run(
            "no frame traces found — fleet-trace needs collector-side session \
             directories (shipped with protocol v2)"
                .to_string(),
        ));
    }
    let doc = tempest_core::chrome_fleet_trace_json(&nodes);
    match flag_value(args, "--out") {
        Some(file) => {
            std::fs::write(&file, doc).map_err(|e| CliError::run(format!("{file}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote {file} ({traced} frame trace(s) across {} node(s)) — open it at https://ui.perfetto.dev",
                nodes.len()
            );
        }
        None => {
            let _ = write!(out, "{doc}");
        }
    }
    Ok(())
}

/// `tempest metrics`: run the full analysis pipeline over the given
/// traces purely to exercise it, then print the self-metrics the run
/// produced (stage timings, decode counters, …) in the chosen format.
fn cmd_metrics(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos: Vec<String> = positional(args).into_iter().cloned().collect();
    if pos.is_empty() {
        return Err(CliError::usage("metrics: which trace file(s)?"));
    }
    let format = flag_value(args, "--format").unwrap_or_else(|| "human".into());
    if !matches!(format.as_str(), "human" | "prom" | "json") {
        return Err(CliError::usage(format!(
            "unknown metrics format `{format}` (human|prom|json)"
        )));
    }
    let request = tempest_core::AnalysisRequest::new()
        .jobs(parse_jobs(args)?)
        .recover(flag_present(args, "--recover"));
    for result in request.analyze(&pos).into_profiles() {
        result.map_err(CliError::run)?;
    }
    let snap = tempest_obs::global().snapshot();
    let rendered = match format.as_str() {
        "human" => tempest_obs::to_human(&snap),
        "prom" => tempest_obs::to_prometheus(&snap),
        "json" => tempest_obs::to_json(&snap),
        _ => unreachable!("format validated above"),
    };
    let _ = write!(out, "{rendered}");
    Ok(())
}

/// One rendered frame of `tempest watch`, plus the totals needed to
/// compute rates for the next frame.
struct WatchFrame {
    rendered: String,
    events: u64,
    samples: u64,
}

/// Render the live status of a spool directory: totals, rates against
/// the previous frame, backpressure drops, hottest sensor, and the top-5
/// hot functions recovered so far.
fn render_watch_frame(
    dir: &Path,
    prev: Option<(u64, u64)>,
    dt_secs: f64,
) -> Result<WatchFrame, String> {
    use std::fmt::Write as _;
    if !tempest_probe::spool::is_spool_dir(dir) {
        return Err("waiting for spool segments…".to_string());
    }
    let (trace, rep) =
        tempest_probe::spool::recover(dir).map_err(|e| format!("spool recovery failed: {e}"))?;
    let mut s = String::new();
    let span_secs = trace.span_ns() as f64 / 1e9;
    let rate = |now: u64, before: Option<u64>| -> f64 {
        match before {
            // Rate over the polling interval once we have a previous frame.
            Some(b) if dt_secs > 0.0 => (now.saturating_sub(b)) as f64 / dt_secs,
            // First frame: average over the trace's own span.
            _ if span_secs > 0.0 => now as f64 / span_secs,
            _ => 0.0,
        }
    };
    let _ = writeln!(
        s,
        "spool {} — {} segment(s), {} shutdown",
        dir.display(),
        rep.segments_scanned,
        if rep.clean_shutdown {
            "clean"
        } else {
            "live/unclean"
        }
    );
    let _ = writeln!(
        s,
        "  events   {:>10}   ({:.0}/s)",
        tempest_obs::human_count(rep.events_recovered),
        rate(rep.events_recovered, prev.map(|p| p.0)),
    );
    let _ = writeln!(
        s,
        "  samples  {:>10}   ({:.0}/s)",
        tempest_obs::human_count(rep.samples_recovered),
        rate(rep.samples_recovered, prev.map(|p| p.1)),
    );
    let _ = writeln!(
        s,
        "  drops    {} event(s), {} sample(s) shed",
        tempest_obs::human_count(rep.salvage.events_dropped_backpressure),
        tempest_obs::human_count(rep.salvage.samples_dropped_backpressure),
    );
    // Hottest sensor: latest reading per sensor, hottest of those.
    let mut latest: std::collections::BTreeMap<u16, f64> = std::collections::BTreeMap::new();
    for sample in &trace.samples {
        let c = sample.temperature.celsius();
        if c.is_finite() {
            latest.insert(sample.sensor.0, c);
        }
    }
    if let Some((&id, &celsius)) = latest.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        let label = trace
            .node
            .sensors
            .iter()
            .find(|m| m.id.0 == id)
            .map(|m| m.label.clone())
            .unwrap_or_else(|| format!("sensor#{id}"));
        let _ = writeln!(s, "  hottest  {label}  {celsius:.1} C");
    } else {
        let _ = writeln!(s, "  hottest  (no samples yet)");
    }
    let request = tempest_core::AnalysisRequest::new().recover(true);
    match request.analyze_trace(&trace) {
        Ok(profile) => {
            let _ = writeln!(s, "  top hot functions so far:");
            for spot in tempest_core::analysis::hotspots(&profile, 5) {
                let _ = writeln!(
                    s,
                    "    {:<20} avg {:>6.1} F  {:>7.2}s  score {:>8.2}",
                    spot.name, spot.avg_f, spot.inclusive_secs, spot.score
                );
            }
        }
        Err(e) => {
            let _ = writeln!(s, "  (no profile yet: {e})");
        }
    }
    Ok(WatchFrame {
        rendered: s,
        events: rep.events_recovered,
        samples: rep.samples_recovered,
    })
}

/// The refresh loop `watch` and `fleet` share. Parses `--interval SECS`
/// (default 2) and `--count N` (0 = forever), then renders `count`
/// frames with `frame`, which is handed the interval; the loop stops at
/// the first frame error. With `clear`, each frame after the first
/// starts with an ANSI clear so a terminal shows a refreshing screen.
fn refresh_loop(
    args: &[String],
    default_count: u64,
    clear: bool,
    out: &mut dyn std::io::Write,
    mut frame: impl FnMut(&mut dyn std::io::Write, f64) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let interval: f64 = flag_value(args, "--interval")
        .unwrap_or_else(|| "2".into())
        .parse()
        .map_err(|_| CliError::usage("--interval wants seconds"))?;
    if !interval.is_finite() || interval < 0.0 {
        return Err(CliError::usage("--interval wants non-negative seconds"));
    }
    let count: u64 = match flag_value(args, "--count") {
        None => default_count,
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage("--count wants an integer (0 = forever)"))?,
    };
    for frame_no in 1u64.. {
        if frame_no > 1 {
            if clear {
                // Refresh in place on a terminal; harmless in a pipe.
                let _ = write!(out, "\x1b[2J\x1b[H");
            }
            std::thread::sleep(std::time::Duration::from_secs_f64(interval));
        }
        frame(out, interval)?;
        let _ = out.flush();
        if frame_no == count {
            break;
        }
    }
    Ok(())
}

/// `tempest watch`: tail a live spool directory, re-rendering a
/// one-screen status every `--interval` seconds, `--count` times.
fn cmd_watch(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let dir = pos
        .first()
        .ok_or_else(|| CliError::usage("watch: which spool directory?"))?;
    let dir = Path::new(dir.as_str());
    let mut prev: Option<(u64, u64)> = None;
    refresh_loop(args, 0, true, out, |out, interval| {
        match render_watch_frame(dir, prev, interval) {
            Ok(frame) => {
                let _ = write!(out, "{}", frame.rendered);
                prev = Some((frame.events, frame.samples));
            }
            Err(reason) => {
                let _ = writeln!(out, "{}: {reason}", dir.display());
            }
        }
        Ok(())
    })
}

/// One node's row in the `tempest fleet` table, extracted from a
/// telemetry snapshot regardless of whether it arrived over HTTP or was
/// scanned out of a collected spool directory.
struct FleetRow {
    key: String,
    host: String,
    age_ms: Option<u64>,
    stale: bool,
    events: u64,
    acked: u64,
    drops: u64,
    io_drops: u64,
    limit_hits: u64,
    hot: Option<(u16, f64)>,
}

/// Build a table row from a snapshot's counters/gauges; absent metrics
/// read as zero so nodes at different pipeline stages still render.
fn fleet_row(
    key: &str,
    host: &str,
    age_ms: Option<u64>,
    stale: bool,
    snap: &tempest_obs::Snapshot,
) -> FleetRow {
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    FleetRow {
        key: key.to_string(),
        host: host.to_string(),
        age_ms,
        stale,
        events: c("probe_events_total"),
        acked: c("ship_frames_acked_total"),
        drops: c("spool_events_dropped_backpressure") + c("spool_samples_dropped_backpressure"),
        io_drops: c("spool_batches_dropped_io_total"),
        limit_hits: c("limit_hits_total"),
        hot: snap.gauge("tempd_hottest_celsius").map(|cel| {
            (
                snap.gauge("tempd_hottest_sensor").unwrap_or(0.0) as u16,
                cel,
            )
        }),
    }
}

/// Render the fleet table: one header, one line per node, stale nodes
/// marked with `!` on their age.
fn render_fleet_table(rows: &[FleetRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let stale = rows.iter().filter(|r| r.stale).count();
    let _ = writeln!(s, "fleet: {} node(s), {} stale", rows.len(), stale);
    let _ = writeln!(
        s,
        "  {:<24} {:<12} {:>7} {:>9} {:>8} {:>7} {:>8} {:>7}  HOTTEST",
        "NODE", "HOST", "AGE", "EVENTS", "ACKED", "DROPS", "IO-DROP", "LIMITS"
    );
    for r in rows {
        let mut age = r
            .age_ms
            .map_or_else(|| "?".to_string(), |ms| format!("{:.1}s", ms as f64 / 1e3));
        if r.stale {
            age.push('!');
        }
        let hot = r
            .hot
            .map_or_else(|| "-".to_string(), |(id, c)| format!("s{id} {c:.1}C"));
        let _ = writeln!(
            s,
            "  {:<24} {:<12} {:>7} {:>9} {:>8} {:>7} {:>8} {:>7}  {hot}",
            r.key,
            r.host,
            age,
            tempest_obs::human_count(r.events),
            tempest_obs::human_count(r.acked),
            tempest_obs::human_count(r.drops),
            tempest_obs::human_count(r.io_drops),
            tempest_obs::human_count(r.limit_hits),
        );
    }
    s
}

/// Parse a `/fleet.json` document into table rows.
fn rows_from_fleet_json(doc: &str) -> Result<Vec<FleetRow>, String> {
    let v = tempest_obs::Json::parse(doc).map_err(|e| format!("bad fleet.json: {e}"))?;
    let nodes = v
        .get("nodes")
        .and_then(|n| n.as_arr())
        .ok_or("fleet.json has no nodes array")?;
    let mut rows = Vec::new();
    for node in nodes {
        let metric_pairs = |section: &str| -> Vec<(String, f64)> {
            match node.get("metrics").and_then(|m| m.get(section)) {
                Some(tempest_obs::Json::Obj(map)) => map
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let snap = tempest_obs::Snapshot {
            counters: metric_pairs("counters")
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
            gauges: metric_pairs("gauges"),
            ..Default::default()
        };
        rows.push(fleet_row(
            node.get("key").and_then(|k| k.as_str()).unwrap_or("?"),
            node.get("hostname").and_then(|h| h.as_str()).unwrap_or("?"),
            node.get("age_ms")
                .and_then(|a| a.as_f64())
                .map(|a| a as u64),
            node.get("stale").and_then(|s| s.as_bool()).unwrap_or(false),
            &snap,
        ));
    }
    Ok(rows)
}

/// Scan a collector output directory into an aggregated fleet view —
/// the offline analogue of the collector's in-memory state. The scan
/// itself lives in [`tempest_collect::fleet`] (the query daemon's
/// `/api/v1/fleet` shares it); this wrapper only keeps the CLI's
/// "nothing yet" error contract.
fn local_fleet_state(dir: &Path) -> Result<tempest_collect::FleetState, String> {
    let fleet = tempest_collect::fleet::FleetState::from_collected_dir(
        dir,
        tempest_collect::fleet::DEFAULT_STALE_AFTER,
    );
    if fleet.is_empty() {
        Err("no telemetry snapshots found yet".to_string())
    } else {
        Ok(fleet)
    }
}

/// One `tempest fleet` frame, from either source, in any output mode.
fn render_fleet_frame(target: &str, json: bool, prom: bool) -> Result<String, String> {
    let dir = Path::new(target);
    if dir.is_dir() {
        let fleet = local_fleet_state(dir)?;
        if json {
            return Ok(fleet.to_json());
        }
        if prom {
            return Ok(fleet.to_prometheus());
        }
        let now = tempest_obs::unix_now_ns();
        let rows: Vec<FleetRow> = fleet
            .nodes()
            .iter()
            .map(|n| {
                // Offline scan: age against the snapshot's own origin
                // stamp, since nothing "received" it.
                let age_ms = now.saturating_sub(n.telemetry.origin_unix_ns) / 1_000_000;
                let stale = age_ms > fleet.stale_after().as_millis() as u64;
                fleet_row(
                    &n.key,
                    &n.telemetry.hostname,
                    Some(age_ms),
                    stale,
                    &n.telemetry.snapshot,
                )
            })
            .collect();
        return Ok(render_fleet_table(&rows));
    }
    if prom {
        return tempest_collect::http_get(target, "/metrics").map_err(|e| e.to_string());
    }
    let doc = tempest_collect::http_get(target, "/fleet.json").map_err(|e| e.to_string())?;
    if json {
        return Ok(doc);
    }
    Ok(render_fleet_table(&rows_from_fleet_json(&doc)?))
}

/// `tempest fleet`: the multi-node analogue of `tempest watch` — a live
/// table of every node a collector knows about (rates, drops, limit
/// hits, hottest sensor), sourced from the collector's HTTP metrics
/// endpoint (`HOST:PORT`) or offline from its collected spool
/// directories. `--json` / `--prom` print the raw fleet document /
/// Prometheus exposition instead (one shot by default).
fn cmd_fleet(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let target = pos.first().ok_or_else(|| {
        CliError::usage("fleet: which collector? (HOST:PORT or collected out dir)")
    })?;
    let json = flag_present(args, "--json");
    let prom = flag_present(args, "--prom");
    if json && prom {
        return Err(CliError::usage("fleet: --json and --prom are exclusive"));
    }
    let machine = json || prom;
    refresh_loop(args, u64::from(machine), !machine, out, |out, _| {
        match render_fleet_frame(target, json, prom) {
            Ok(text) => {
                let _ = write!(out, "{text}");
            }
            Err(reason) if machine => {
                // Machine-readable modes fail loudly: a script piping
                // this into a parser must not see an error as data.
                return Err(CliError::run(format!("{target}: {reason}")));
            }
            Err(reason) => {
                let _ = writeln!(out, "{target}: {reason}");
            }
        }
        Ok(())
    })
}

/// Parse an optional integer flag with a default.
fn parse_u64_flag(args: &[String], flag: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("{flag} wants an integer"))),
    }
}

/// `tempest collect serve`: run the network collector daemon. Every
/// shipped session lands under `--out` as a standard spool directory, so
/// `tempest spool recover`, `doctor`, `report --recover` and friends work
/// on the collected copy unchanged. `--once N` accepts exactly N
/// connections then exits (CI smoke tests); `--port-file` atomically
/// publishes the bound address so scripts using `--addr 127.0.0.1:0`
/// never have to guess or sleep.
fn cmd_collect(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_collect::{Collector, CollectorConfig, ShedPolicy};
    let pos = positional(args);
    match pos.first().map(|s| s.as_str()) {
        Some("serve") => {}
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown collect action `{other}` (only `serve`)"
            )))
        }
        None => return Err(CliError::usage("collect: which action? (serve)")),
    }
    let out_dir = flag_value(args, "--out")
        .ok_or_else(|| CliError::usage("collect serve: --out DIR is required"))?;
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:9797".into());
    let mut config = CollectorConfig::new(&out_dir);
    config.fsync_per_frame = flag_present(args, "--fsync");
    config.max_frame_bytes =
        parse_u64_flag(args, "--max-frame-bytes", config.max_frame_bytes as u64)?
            .min(u32::MAX as u64) as u32;
    if let Some(budget) = flag_value(args, "--disk-budget") {
        config.disk_budget_bytes = Some(
            budget
                .parse()
                .map_err(|_| CliError::usage("--disk-budget wants bytes"))?,
        );
    }
    if let Some(rate) = flag_value(args, "--rate-limit") {
        config.rate_limit = Some(
            rate.parse()
                .map_err(|_| CliError::usage("--rate-limit wants frames/sec"))?,
        );
    }
    config.session_deadline = parse_u64_flag(args, "--deadline", 0)
        .map(|secs| (secs > 0).then(|| std::time::Duration::from_secs(secs)))?;
    config.shed = match flag_value(args, "--shed").as_deref() {
        None | Some("refuse") => ShedPolicy::Refuse,
        Some("disconnect") => ShedPolicy::Disconnect,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown shed policy `{other}` (refuse|disconnect)"
            )))
        }
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| CliError::run(format!("{out_dir}: {e}")))?;

    let collector =
        Collector::bind(&addr, config).map_err(|e| CliError::run(format!("{addr}: {e}")))?;
    let handle = collector
        .handle()
        .map_err(|e| CliError::run(format!("collector: {e}")))?;
    let _ = writeln!(out, "collecting on {} into {out_dir}", handle.addr());
    let _ = out.flush();
    if let Some(port_file) = flag_value(args, "--port-file") {
        publish_addr(&port_file, handle.addr())?;
    }
    // Optional HTTP surface: GET /metrics (Prometheus text) and
    // GET /fleet.json, fed by the same fleet state the wire protocol
    // updates. Lives on its own listener so the collection port never
    // speaks HTTP.
    let metrics_server = match flag_value(args, "--metrics-addr") {
        Some(maddr) => {
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let server = tempest_collect::serve_metrics(&maddr, handle.fleet(), stop.clone())
                .map_err(|e| CliError::run(format!("{maddr}: {e}")))?;
            let _ = writeln!(
                out,
                "fleet metrics on http://{}/metrics and /fleet.json",
                server.addr()
            );
            let _ = out.flush();
            if let Some(file) = flag_value(args, "--metrics-port-file") {
                publish_addr(&file, server.addr())?;
            }
            Some((server, stop))
        }
        None => None,
    };
    let served = match flag_value(args, "--once") {
        Some(n) => {
            let n: u64 = n
                .parse()
                .map_err(|_| CliError::usage("--once wants a connection count"))?;
            collector.serve_connections(n)
        }
        None => collector.run(),
    };
    served.map_err(|e| CliError::run(format!("collector: {e}")))?;
    if let Some((server, stop)) = metrics_server {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        server.join();
    }
    let stats = handle.stats();
    use std::sync::atomic::Ordering::Relaxed;
    let _ = writeln!(
        out,
        "served {} connection(s): {} frame(s) written, {} duplicate(s), {} quarantined, {} shed, {} session(s) completed",
        stats.connections.load(Relaxed),
        stats.frames.load(Relaxed),
        stats.duplicates.load(Relaxed),
        stats.quarantined.load(Relaxed),
        stats.shed.load(Relaxed),
        stats.sessions_completed.load(Relaxed),
    );
    Ok(())
}

/// Publish a bound address, newline-terminated, to `file` through
/// [`tempest_obs::publish`], so a watching script never reads half of it.
fn publish_addr(file: &str, addr: impl std::fmt::Display) -> Result<(), CliError> {
    tempest_obs::publish(Path::new(file), format!("{addr}\n").as_bytes())
        .map_err(|e| CliError::run(format!("{file}: {e}")))
}

/// `tempest serve`: the analysis query daemon. Point it at a collected
/// session directory (or a single spool) and it answers the versioned
/// `/api/v1/*` hot-spot questions over HTTP/1.1 keep-alive, serving
/// repeat questions from the content-hash analysis cache instead of
/// re-analyzing per request. `--once N` exits after N requests (CI
/// smoke); `--once-ready` additionally fails fast when the initial scan
/// finds no sessions, so a script never curls an empty catalog.
fn cmd_serve(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let dir = pos
        .first()
        .ok_or_else(|| CliError::usage("serve: which collected directory?"))?;
    let common = parse_common_flags(args)?;
    let once: Option<u64> = match flag_value(args, "--once") {
        Some(n) => Some(
            n.parse()
                .map_err(|_| CliError::usage("--once wants a request count"))?,
        ),
        None => None,
    };
    let once_ready = flag_present(args, "--once-ready");
    let port_file = flag_value(args, "--port-file");
    if once_ready && port_file.is_none() {
        return Err(CliError::usage("--once-ready needs --port-file FILE"));
    }

    let mut config = tempest_collect::QueryConfig {
        dir: PathBuf::from(dir.as_str()),
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        ..Default::default()
    };
    config.jobs = if common.jobs == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        common.jobs
    };
    // The daemon caches next to the data by default: answers survive
    // restarts and a second daemon over the same directory starts warm.
    config.cache_dir = if common.no_cache {
        None
    } else {
        Some(
            common
                .cache_dir
                .clone()
                .unwrap_or_else(|| Path::new(dir.as_str()).join(".tempest-cache")),
        )
    };
    if let Some(rate) = flag_value(args, "--rate-limit") {
        config.rate_limit = Some(
            rate.parse()
                .map_err(|_| CliError::usage("--rate-limit wants requests/sec"))?,
        );
    }
    config.rescan_ms = parse_u64_flag(args, "--rescan-ms", 2000)?;
    config.deadline =
        (common.deadline_secs > 0).then(|| std::time::Duration::from_secs(common.deadline_secs));

    let server = tempest_collect::QueryServer::start(config)
        .map_err(|e| CliError::run(format!("{dir}: {e}")))?;
    if once_ready && server.session_count() == 0 {
        server.stop();
        server.join();
        return Err(CliError::run(format!("{dir}: no sessions found to serve")));
    }
    let _ = writeln!(
        out,
        "serving {} session(s) from {dir} on http://{}/api/v1/ ({} worker(s))",
        server.session_count(),
        server.addr(),
        server.jobs(),
    );
    let _ = out.flush();
    if let Some(port_file) = port_file {
        // The catalog scan already ran, so the file appearing means the
        // API is answering.
        publish_addr(&port_file, server.addr())?;
    }
    match once {
        Some(n) => {
            while server.served() < n {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            server.stop();
        }
        None => {
            // Foreground daemon: park until killed. The worker threads
            // own all the work; this thread just keeps the process up.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
    let served = server.served();
    server.join();
    let _ = writeln!(out, "served {served} request(s)");
    common.finish(out);
    Ok(())
}

/// `tempest ship`: stream a spool directory to a collector. Completion
/// means the collector acknowledged the session footer; a run that
/// exhausts its retry budget exits nonzero but leaves the local spool
/// (and the persisted resume cursor) intact, so a later re-run resumes
/// where this one stopped without re-sending anything.
fn cmd_ship(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_probe::ship::{self, ShipConfig};
    let pos = positional(args);
    let dir = pos
        .first()
        .ok_or_else(|| CliError::usage("ship: which spool directory?"))?;
    let to = flag_value(args, "--to")
        .ok_or_else(|| CliError::usage("ship: --to HOST:PORT is required"))?;
    let mut config = ShipConfig::new(dir.as_str(), to);
    if let Some(session) = flag_value(args, "--session") {
        config.session = session;
    }
    config.follow = flag_present(args, "--follow");
    config.telemetry = !flag_present(args, "--no-telemetry");
    config.retry.max_failures = parse_u64_flag(args, "--retries", config.retry.max_failures as u64)?
        .min(u32::MAX as u64) as u32;
    config.retry.base_ms = parse_u64_flag(args, "--base-ms", config.retry.base_ms)?;
    config.retry.cap_ms = parse_u64_flag(args, "--cap-ms", config.retry.cap_ms)?;
    config.retry.seed = parse_u64_flag(args, "--seed", config.retry.seed)?;

    let report = ship::ship(&config).map_err(|e| CliError::run(format!("{dir}: {e}")))?;
    let _ = writeln!(
        out,
        "shipped {}: {} frame(s) sent, {} acked, {} skipped (already collected), {} reconnect(s), {} ms backing off",
        dir,
        report.frames_sent,
        report.frames_acked,
        report.frames_skipped,
        report.reconnects,
        report.backoff_ms
    );
    if report.complete {
        let _ = writeln!(out, "session complete: collector holds the full spool");
        Ok(())
    } else if report.degraded {
        Err(CliError::run(format!(
            "retry budget exhausted at cursor {:?}; local spool kept, re-run `tempest ship` to resume",
            report.cursor
        )))
    } else {
        let _ = writeln!(
            out,
            "caught up at cursor {:?} (session still open; --follow tails it to completion)",
            report.cursor
        );
        Ok(())
    }
}

fn cmd_demo(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let workload = pos
        .first()
        .ok_or_else(|| CliError::usage("demo: which workload?"))?
        .as_str();
    let class = parse_class(&flag_value(args, "--class").unwrap_or_else(|| "A".into()))?;
    let np: usize = flag_value(args, "--np")
        .unwrap_or_else(|| "4".into())
        .parse()
        .map_err(|_| CliError::usage("--np wants an integer"))?;
    let dir = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "traces".into()));

    let programs = match workload {
        "micro-d" => vec![tempest_workloads::micro::program(
            tempest_workloads::micro::Micro::D,
            30.0,
            2.0,
        )],
        name => {
            let bench = NpbBenchmark::ALL
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| CliError::usage(format!("unknown workload `{name}`")))?;
            bench.programs(class, np)
        }
    };
    let cfg = ClusterRunConfig::paper_default();
    let run = ClusterRun::execute(&cfg, &programs);
    std::fs::create_dir_all(&dir).map_err(|e| CliError::run(format!("{}: {e}", dir.display())))?;
    for trace in &run.traces {
        let path = dir.join(format!("{workload}-node{}.trace", trace.node.node_id));
        trace
            .save(&path)
            .map_err(|e| CliError::run(format!("{}: {e}", path.display())))?;
        let _ = writeln!(
            out,
            "wrote {} ({} events, {} samples)",
            path.display(),
            trace.events.len(),
            trace.samples.len()
        );
    }
    let _ = writeln!(
        out,
        "simulated {:.1}s on {} node(s); next: tempest report {}/{workload}-node0.trace",
        run.engine.end_ns as f64 / 1e9,
        run.traces.len(),
        dir.display()
    );
    Ok(())
}

fn cmd_record(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_workloads::micro::{run_native, Micro, MicroConfig};
    let pos = positional(args);
    let which = pos
        .first()
        .ok_or_else(|| CliError::usage("record: which micro-benchmark (a-e)?"))?;
    let micro = match which.to_ascii_lowercase().as_str() {
        "a" => Micro::A,
        "b" => Micro::B,
        "c" => Micro::C,
        "d" => Micro::D,
        "e" => Micro::E,
        other => {
            return Err(CliError::usage(format!(
                "unknown micro-benchmark `{other}`"
            )))
        }
    };
    let dir = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "traces".into()));
    std::fs::create_dir_all(&dir).map_err(|e| CliError::run(format!("{}: {e}", dir.display())))?;

    // Real instrumentation; real hwmon sensors when present, simulated
    // Opteron bank otherwise (the portable fallback of §3.4).
    let hw = tempest_sensors::hwmon::HwmonSource::discover();
    let source: Box<dyn tempest_sensors::SensorSource> = if hw.is_available() {
        Box::new(hw)
    } else {
        Box::new(tempest_sensors::sim::SimulatedSensorBank::new(
            tempest_sensors::platform::PlatformSpec::opteron_full(),
            tempest_sensors::node_model::NodeThermalModel::new(
                tempest_sensors::node_model::NodeThermalParams::opteron_node(),
            ),
            7,
            0.1,
        ))
    };
    let session = tempest_probe::ProfilingSession::start_with_sensors(
        std::sync::Arc::new(tempest_probe::MonotonicClock::new()),
        source,
        tempest_probe::tempd::TempdConfig::at_rate(20.0),
    );
    {
        let tp = session.thread_profiler();
        run_native(micro, MicroConfig::default(), &tp);
    }
    let trace = session.finish();
    let path = dir.join(format!("micro-{}.trace", which.to_ascii_lowercase()));
    trace
        .save(&path)
        .map_err(|e| CliError::run(format!("{}: {e}", path.display())))?;
    let _ = writeln!(
        out,
        "recorded {} ({} events, {} samples over {:.3} s)",
        path.display(),
        trace.events.len(),
        trace.samples.len(),
        trace.span_ns() as f64 / 1e9
    );
    Ok(())
}

fn cmd_report(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos: Vec<String> = positional(args).into_iter().cloned().collect();
    if pos.is_empty() {
        return Err(CliError::usage("report: which trace file(s)?"));
    }
    let format = flag_value(args, "--format").unwrap_or_else(|| "text".into());
    if !matches!(format.as_str(), "text" | "csv" | "kv" | "md" | "json") {
        return Err(CliError::usage(format!("unknown format `{format}`")));
    }
    let common = parse_common_flags(args)?;
    let recover = flag_present(args, "--recover");
    let deadline = common.deadline();
    // A deadline makes partial output legitimate, so quality gets the
    // same visibility --recover gives it.
    let tolerant = recover || deadline.is_some();
    let cache = common.open_cache()?;
    // Analyse every node in parallel; render in input order (identical
    // output to the sequential loop, including failing on the first bad
    // trace by position). The rendered text — quality line included, so
    // cached bytes are complete — is what the cache stores and serves.
    let engine = Engine::new(common.jobs);
    let render = |profile: &tempest_core::NodeProfile| {
        let mut rendered = match format.as_str() {
            "text" => report::render_stdout(profile),
            "csv" => tempest_core::export::profile_to_csv(profile),
            "kv" => tempest_core::export::profile_to_kv(profile),
            "md" => tempest_core::export::profile_to_markdown(profile),
            "json" => tempest_core::export::profile_to_json(profile),
            _ => unreachable!("format validated above"),
        };
        // The JSON document carries quality in-band (the v1 DTO shape
        // must stay parseable); the text formats get the trailing line.
        if format != "json" && tolerant && !profile.quality.is_pristine() {
            rendered.push_str(&format!("data quality: {}\n", profile.quality));
        }
        rendered
    };
    let request = tempest_core::AnalysisRequest::new()
        .recover(recover)
        .deadline(deadline);
    for result in request.render_on(&engine, cache.as_ref(), &pos, &format, render) {
        let _ = write!(out, "{}", result.map_err(CliError::run)?);
    }
    common.finish(out);
    Ok(())
}

fn cmd_traits(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("traits: which trace file?"))?;
    let sensor: u16 = flag_value(args, "--sensor")
        .unwrap_or_else(|| "3".into())
        .parse()
        .map_err(|_| CliError::usage("--sensor wants an integer"))?;
    let trace = load_trace(path)?;
    let timeline = Timeline::build(&trace.events);
    let phases = tempest_core::phases::segment_phases(&trace.samples, SensorId(sensor), 4, 0.15);
    if phases.is_empty() {
        return Err(CliError::run("not enough samples to segment phases"));
    }
    let _ = writeln!(out, "thermal phases (sensor index {sensor}):");
    for p in &phases {
        let _ = writeln!(
            out,
            "  {:>8.1}s..{:>8.1}s  {:<8}  {:+6.2} F ({:+.3} F/s)",
            p.start_ns as f64 / 1e9,
            p.end_ns as f64 / 1e9,
            format!("{:?}", p.trend),
            p.delta_f,
            p.rate_f_per_s()
        );
    }
    let _ = writeln!(
        out,
        "
function thermal traits (dominant-phase warming rates):"
    );
    for t in tempest_core::phases::function_traits(&phases, &timeline) {
        let _ = writeln!(
            out,
            "  {:<20} {:+7.3} F/s over {:>7.1}s",
            trace.function_name(t.func),
            t.rate_f_per_s,
            t.seconds
        );
    }
    Ok(())
}

fn cmd_summary(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos: Vec<String> = positional(args).into_iter().cloned().collect();
    if pos.is_empty() {
        return Err(CliError::usage("summary: which trace file(s)?"));
    }
    let common = parse_common_flags(args)?;
    let recover = flag_present(args, "--recover");
    let request = tempest_core::AnalysisRequest::new()
        .jobs(common.jobs)
        .recover(recover)
        .deadline(common.deadline());
    let mut profiles = Vec::new();
    let mut lost = 0usize;
    for result in request.analyze(&pos).into_profiles() {
        match result {
            Ok(p) => profiles.push(p),
            // Partial-cluster tolerance under --recover: a node whose
            // trace is missing or unsalvageable is reported and skipped,
            // not fatal. Strict mode fails on the first bad node.
            Err(message) if recover => {
                lost += 1;
                let _ = writeln!(out, "skipping node: {message}");
            }
            Err(message) => return Err(CliError::run(message)),
        }
    }
    if profiles.is_empty() {
        return Err(CliError::run("no node trace could be recovered"));
    }
    let cluster = if recover {
        ClusterProfile::with_expected(profiles, pos.len())
    } else {
        ClusterProfile::new(profiles)
    };
    let _ = writeln!(out, "cluster of {} node(s):", cluster.node_count());
    if lost > 0 {
        let _ = writeln!(
            out,
            "  ({lost} of {} node trace(s) unrecoverable; statistics cover survivors only)",
            pos.len()
        );
    }
    for s in cluster.node_summaries() {
        let _ = writeln!(
            out,
            "  node {} ({})  avg {:>6.1} F  max {:>6.1} F",
            s.node_id + 1,
            s.hostname,
            s.avg_f,
            s.max_f
        );
    }
    if let Some((lo, hi)) = cluster.node_divergence_f() {
        let _ = writeln!(out, "  divergence across nodes: {:.1} F", hi - lo);
    }
    if recover && (lost > 0 || cluster.nodes.iter().any(|n| !n.quality.is_pristine())) {
        let _ = writeln!(out, "\ndata quality:");
        for line in cluster.quality_report().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(out, "\nhot spots (node 1):");
    for spot in tempest_core::analysis::hotspots(&cluster.nodes[0], 5) {
        let _ = writeln!(
            out,
            "  {:<20} avg {:>6.1} F  {:>7.2}s  score {:>8.2}",
            spot.name, spot.avg_f, spot.inclusive_secs, spot.score
        );
    }
    common.finish(out);
    Ok(())
}

/// `tempest spool recover`: rebuild a trace from an on-disk crash spool
/// written by the durable sink. Recovery is checksum-driven: every intact
/// frame prefix is kept, the torn tail (if any) is discarded, and the
/// result can optionally be materialised as a normal `.trace` file.
fn cmd_spool(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    match pos.first().map(|s| s.as_str()) {
        Some("recover") => {}
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown spool action `{other}` (only `recover`)"
            )))
        }
        None => return Err(CliError::usage("spool: which action? (recover)")),
    }
    let dir = pos
        .get(1)
        .ok_or_else(|| CliError::usage("spool recover: which spool directory?"))?;
    let dir_path = Path::new(dir.as_str());
    if !tempest_probe::spool::is_spool_dir(dir_path) {
        return Err(CliError::run(format!(
            "{dir}: not a tempest spool directory (no segment files)"
        )));
    }
    let (trace, rep) = tempest_probe::spool::recover(dir_path)
        .map_err(|e| CliError::run(format!("{dir}: {e}")))?;
    let shutdown = if rep.clean_shutdown {
        "clean shutdown (session footer present)"
    } else {
        "unclean shutdown (no session footer; crash or kill)"
    };
    let _ = writeln!(out, "{dir}: {shutdown}");
    let _ = writeln!(
        out,
        "  {} segment(s) scanned, {} frame(s) recovered, {} discarded",
        rep.segments_scanned, rep.frames_recovered, rep.frames_discarded
    );
    let _ = writeln!(
        out,
        "  recovered {} events, {} samples, {} function(s)",
        rep.events_recovered,
        rep.samples_recovered,
        trace.functions.len()
    );
    let shed_events = rep.salvage.events_dropped_backpressure;
    let shed_samples = rep.salvage.samples_dropped_backpressure;
    if shed_events + shed_samples > 0 {
        let _ = writeln!(
            out,
            "  writer backpressure shed {shed_events} event(s) / {shed_samples} sample(s) before shutdown"
        );
    }
    match flag_value(args, "--out") {
        Some(path) => {
            trace
                .save(Path::new(&path))
                .map_err(|e| CliError::run(format!("{path}: {e}")))?;
            let _ = writeln!(out, "wrote {path}");
        }
        None => {
            let _ = writeln!(
                out,
                "  (dry run: pass --out FILE to save the recovered trace)"
            );
        }
    }
    Ok(())
}

/// `tempest doctor`: triage trace files without analysing them in full.
/// For each file: try a strict read; if that fails, salvage and report
/// exactly what was lost; then pre-flight the decoded trace the way a
/// strict parse would. Exit code stays 0 — doctor diagnoses, it does not
/// judge.
fn cmd_doctor(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos: Vec<String> = positional(args).into_iter().cloned().collect();
    if pos.is_empty() {
        return Err(CliError::usage("doctor: which trace file(s)?"));
    }
    let fsck = flag_present(args, "--fsck");
    let common = parse_common_flags(args)?;
    let deadline = common.deadline();
    // Each file's triage is independent; fan it out and print the fully
    // rendered verdicts in input order.
    let engine = Engine::new(common.jobs);
    for rendered in engine.map(pos, move |path| triage_one(&path, fsck, deadline)) {
        let _ = write!(out, "{rendered}");
    }
    common.finish(out);
    Ok(())
}

/// Triage one trace file into doctor's rendered verdict block. Spool
/// directories (from the durable sink) are triaged via checksum recovery
/// rather than a strict file read.
fn triage_one(path: &str, fsck: bool, deadline: Option<std::time::Instant>) -> String {
    use std::fmt::Write as _;
    use tempest_probe::limits::{CancelToken, DecodeLimits};
    let as_path = Path::new(path);
    if as_path.is_dir() {
        if AnalysisCache::is_cache_dir(as_path) {
            return triage_cache_dir(path, as_path);
        }
        return triage_spool_dir(path, as_path, fsck, deadline);
    }
    let limits = DecodeLimits::default();
    let cancel = CancelToken::until_opt(deadline);
    let bytes = match std::fs::read(as_path) {
        Ok(bytes) => bytes,
        Err(e) => {
            let mut out = String::new();
            let _ = writeln!(out, "{path}: unreadable");
            let _ = writeln!(out, "  salvage failed: {e}");
            return out;
        }
    };
    let strict = Trace::decode_with(&bytes, &limits, &cancel);
    let (verdict, detail, trace) = match strict {
        Ok(trace) => ("ok", String::from("strict read clean"), Some(trace)),
        Err(strict_err) => match Trace::decode_salvage_with(&bytes, &limits, &cancel) {
            Ok((trace, rep)) => {
                let mut d = format!("strict read failed ({strict_err}); salvaged");
                if let Some(section) = rep.truncated_in {
                    d += &format!(
                        " — truncated in {section}: {}/{} events, {}/{} samples",
                        rep.events_salvaged,
                        rep.events_declared,
                        rep.samples_salvaged,
                        rep.samples_declared
                    );
                }
                if rep.nonfinite_samples_skipped > 0 {
                    d += &format!(
                        ", {} non-finite sample(s) dropped",
                        rep.nonfinite_samples_skipped
                    );
                }
                if let Some(limit) = rep.limit {
                    d += &format!(", stopped by limit: {limit}");
                }
                ("degraded", d, Some(trace))
            }
            Err(e) => ("unreadable", format!("salvage failed: {e}"), None),
        },
    };
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {verdict}");
    let _ = writeln!(out, "  {detail}");
    if let Some(trace) = trace {
        match ParseError::classify(&trace) {
            None => {
                let _ = writeln!(
                    out,
                    "  parse: clean ({} events, {} samples, {} function(s))",
                    trace.events.len(),
                    trace.samples.len(),
                    trace.functions.len()
                );
            }
            Some(problem) => {
                let _ = writeln!(out, "  parse: {problem}");
                let _ = writeln!(out, "  hint: re-run with --recover to analyse anyway");
            }
        }
    }
    out
}

/// Render the flight-recorder dump beside a spool (`flight.json`), if
/// one exists: why it was dumped and the last few structured events —
/// the first thing to read when triaging a degraded pipeline.
fn render_flight_report(dir: &Path) -> Option<String> {
    use std::fmt::Write as _;
    let path = dir.join(tempest_probe::spool::FLIGHT_DUMP_NAME);
    let text = std::fs::read_to_string(&path).ok()?;
    let mut out = String::new();
    match tempest_obs::Json::parse(&text) {
        Ok(v) => {
            let reason = v.get("reason").and_then(|r| r.as_str()).unwrap_or("?");
            let events = v.get("events").and_then(|e| e.as_arr()).unwrap_or(&[]);
            let _ = writeln!(
                out,
                "  flight recorder: dumped on \"{reason}\", {} event(s)",
                events.len()
            );
            const SHOWN: usize = 5;
            if events.len() > SHOWN {
                let _ = writeln!(out, "    … {} earlier event(s)", events.len() - SHOWN);
            }
            for e in events.iter().rev().take(SHOWN).rev() {
                let level = e.get("level").and_then(|l| l.as_str()).unwrap_or("?");
                let target = e.get("target").and_then(|t| t.as_str()).unwrap_or("?");
                let message = e.get("message").and_then(|m| m.as_str()).unwrap_or("?");
                let _ = writeln!(out, "    [{level}] {target}: {message}");
            }
        }
        Err(e) => {
            let _ = writeln!(
                out,
                "  flight recorder: {} unreadable ({e})",
                path.display()
            );
        }
    }
    Some(out)
}

/// Doctor verdict for a spool directory: run checksum recovery and report
/// what survived. An unclean shutdown or discarded frames downgrade the
/// verdict to `degraded`; a directory without segment files is `unreadable`.
fn triage_spool_dir(
    path: &str,
    dir: &Path,
    fsck: bool,
    deadline: Option<std::time::Instant>,
) -> String {
    use std::fmt::Write as _;
    use tempest_probe::limits::{CancelToken, DecodeLimits};
    let mut out = String::new();
    if !tempest_probe::spool::is_spool_dir(dir) {
        let _ = writeln!(out, "{path}: unreadable");
        let _ = writeln!(
            out,
            "  directory, but not a tempest spool (no segment files)"
        );
        return out;
    }
    // Deep verification (--fsck): re-decode every checksum-valid frame
    // under strict limits. A frame can pass its CRC yet declare hostile
    // quantities, so violations downgrade the verdict even when plain
    // recovery succeeds.
    let fsck_segments = if fsck {
        match tempest_probe::spool::fsck_dir(dir, &DecodeLimits::strict()) {
            Ok(segments) => Some(segments),
            Err(e) => {
                let _ = writeln!(out, "{path}: unreadable");
                let _ = writeln!(out, "  fsck failed: {e}");
                return out;
            }
        }
    } else {
        None
    };
    let fsck_dirty = fsck_segments
        .as_ref()
        .is_some_and(|segments| segments.iter().any(|s| !s.is_clean()));
    // Manifest-vs-disk audit first: a clean-looking spool whose manifest
    // disagrees with the segment files on disk (missing, unexpected, or
    // unsealed segments) is degraded no matter how well recovery went.
    let manifest_problems = match tempest_probe::spool::check_manifest(dir) {
        Ok(Some(check)) if !check.consistent() => check.problems(),
        Ok(_) => Vec::new(),
        Err(e) => vec![format!("manifest unreadable: {e}")],
    };
    match tempest_probe::spool::recover_with(
        dir,
        &DecodeLimits::default(),
        &CancelToken::until_opt(deadline),
    ) {
        Ok((trace, rep)) => {
            let verdict = if rep.clean_shutdown
                && rep.frames_discarded == 0
                && manifest_problems.is_empty()
                && !fsck_dirty
            {
                "ok"
            } else {
                "degraded"
            };
            let _ = writeln!(out, "{path}: {verdict}");
            for problem in &manifest_problems {
                let _ = writeln!(out, "  manifest: {problem}");
            }
            let _ = writeln!(
                out,
                "  spool: {} segment(s), {} frame(s) recovered, {} discarded, {} shutdown",
                rep.segments_scanned,
                rep.frames_recovered,
                rep.frames_discarded,
                if rep.clean_shutdown {
                    "clean"
                } else {
                    "unclean"
                }
            );
            if let Some(limit) = rep.salvage.limit {
                let _ = writeln!(out, "  stopped by limit: {limit}");
            }
            if let Some(segments) = &fsck_segments {
                for seg in segments {
                    let name = seg
                        .path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("segment");
                    let _ = writeln!(
                        out,
                        "  fsck {name}: {} frame(s) verified, {} torn",
                        seg.frames_ok, seg.frames_torn
                    );
                    for violation in &seg.violations {
                        let _ = writeln!(out, "    violation: {violation}");
                    }
                }
            }
            let _ = writeln!(
                out,
                "  recovered {} events, {} samples, {} function(s)",
                rep.events_recovered,
                rep.samples_recovered,
                trace.functions.len()
            );
            // The session footer (clean shutdowns only) carries exact
            // backpressure shed counts; show them in human units.
            let shed_events = rep.salvage.events_dropped_backpressure;
            let shed_samples = rep.salvage.samples_dropped_backpressure;
            if rep.clean_shutdown || shed_events + shed_samples > 0 {
                let _ = writeln!(
                    out,
                    "  backpressure: {} event(s), {} sample(s) dropped",
                    tempest_obs::human_count(shed_events),
                    tempest_obs::human_count(shed_samples),
                );
            }
            // Network-collection context. A persisted ship cursor means
            // some shipper sent this spool out; shipped_through means the
            // spool itself IS a collector-side copy (frames arrived
            // wrapped with their source cursor).
            if let Some(cursor) = tempest_probe::ship::Cursor::load(dir) {
                let _ = writeln!(
                    out,
                    "  shipping: acked through segment {} offset {} (resume cursor on disk)",
                    cursor.seg, cursor.off
                );
            }
            if let Some((seg, off)) = rep.shipped_through {
                let _ = writeln!(
                    out,
                    "  collected session: source frames through segment {seg} offset {off}, {} duplicate frame(s) dropped",
                    rep.frames_deduped
                );
            }
            if rep.telemetry_frames > 0 {
                let _ = writeln!(
                    out,
                    "  telemetry: {} snapshot(s) spooled",
                    rep.telemetry_frames
                );
            }
            if !rep.frame_traces.is_empty() {
                let mut transits: Vec<u64> = rep
                    .frame_traces
                    .iter()
                    .filter_map(|t| t.transit_ns())
                    .collect();
                transits.sort_unstable();
                let median = transits.get(transits.len() / 2).copied().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  frame traces: {} frame(s), median ship→collect {}",
                    rep.frame_traces.len(),
                    tempest_obs::human_ns(median)
                );
            }
            if let Some(flight) = render_flight_report(dir) {
                let _ = write!(out, "{flight}");
            }
            if verdict == "degraded" {
                let _ = writeln!(
                    out,
                    "  hint: `tempest spool recover {path} --out FILE` saves the salvaged prefix"
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "{path}: unreadable");
            let _ = writeln!(out, "  spool recovery failed: {e}");
            if let Some(flight) = render_flight_report(dir) {
                let _ = write!(out, "{flight}");
            }
        }
    }
    out
}

/// Doctor verdict for an analysis cache directory: report version,
/// entry count/volume, and anything that shouldn't be there. Stale
/// entries (written by another cache version) or foreign files (torn
/// temps, unrelated content) downgrade the verdict to `degraded`.
fn triage_cache_dir(path: &str, dir: &Path) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match AnalysisCache::audit(dir) {
        Ok(audit) => {
            let current = audit.version == Some(tempest_core::cache::CACHE_VERSION);
            let verdict = if current && audit.stale == 0 && audit.foreign == 0 {
                "ok"
            } else {
                "degraded"
            };
            let _ = writeln!(out, "{path}: {verdict}");
            let _ = writeln!(
                out,
                "  analysis cache v{}: {} entr{}, {}",
                audit.version.map_or_else(|| "?".into(), |v| v.to_string()),
                audit.entries,
                if audit.entries == 1 { "y" } else { "ies" },
                tempest_obs::human_bytes(audit.bytes),
            );
            if !current {
                let _ = writeln!(
                    out,
                    "  version mismatch: tempest expects v{} — every entry is stale",
                    tempest_core::cache::CACHE_VERSION
                );
            }
            if audit.stale > 0 {
                let _ = writeln!(
                    out,
                    "  {} stale entr{} (discarded on next cached run)",
                    audit.stale,
                    if audit.stale == 1 { "y" } else { "ies" }
                );
            }
            if audit.foreign > 0 {
                let _ = writeln!(
                    out,
                    "  {} foreign file(s) — torn temp files or content tempest never wrote",
                    audit.foreign
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "{path}: unreadable");
            let _ = writeln!(out, "  cache audit failed: {e}");
        }
    }
    out
}

fn cmd_plot(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("plot: which trace file?"))?;
    let sensor: u16 = flag_value(args, "--sensor")
        .unwrap_or_else(|| "3".into())
        .parse()
        .map_err(|_| CliError::usage("--sensor wants an integer"))?;
    let trace = load_trace(path)?;
    let timeline = Timeline::build(&trace.events);
    let name_of = |id: u32| trace.function_name(tempest_probe::func::FunctionId(id));
    let label = trace
        .node
        .sensors
        .iter()
        .find(|s| s.id == SensorId(sensor))
        .map(|s| s.label.clone())
        .unwrap_or_else(|| format!("sensor{}", sensor + 1));
    let series = TimeSeries::from_samples(label, &trace.samples, SensorId(sensor), 0);
    if series.points.is_empty() {
        return Err(CliError::run(format!(
            "no samples for sensor index {sensor}"
        )));
    }
    let _ = writeln!(
        out,
        "function: {}",
        function_banner(&timeline, &name_of, 72)
    );
    let _ = write!(out, "{}", ascii_plot(&[series], 72, 16));
    Ok(())
}

fn cmd_callgraph(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("callgraph: which trace file?"))?;
    let trace = load_trace(path)?;
    let graph = tempest_core::callgraph::CallGraph::build(&trace.events);
    let _ = write!(out, "{}", graph.render(&|f| trace.function_name(f)));
    Ok(())
}

fn cmd_gprof(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("gprof: which trace file?"))?;
    let trace = load_trace(path)?;
    let flat = tempest_gprof::FlatProfile::from_events(&trace.events);
    let _ = write!(out, "{}", flat.render(&trace.functions));
    Ok(())
}

fn cmd_dump(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::usage("dump: which trace file?"))?;
    let trace = load_trace(path)?;
    let _ = write!(out, "{}", trace.to_text());
    Ok(())
}

fn cmd_sensors(out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_sensors::source::SensorSource;
    let mut hw = tempest_sensors::hwmon::HwmonSource::discover();
    if !hw.is_available() {
        let _ = writeln!(
            out,
            "no hwmon/thermal sensors exposed on this host (container/VM?)"
        );
        return Ok(());
    }
    let readings = hw.sample_all(0);
    for (info, r) in hw.sensors().iter().zip(&readings) {
        let _ = writeln!(
            out,
            "{:<32} {:<12} {:>7.1} C",
            info.label,
            format!("{:?}", info.kind),
            r.temperature.celsius()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        main_with_args(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tempest-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown command"));
    }

    #[test]
    fn demo_then_report_then_plot_roundtrip() {
        let dir = temp_dir("demo");
        let dir_s = dir.to_str().unwrap();
        let out = run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        assert!(out.contains("wrote"));
        let trace_path = dir.join("micro-d-node0.trace");
        assert!(trace_path.exists());
        let trace_s = trace_path.to_str().unwrap();

        let report = run(&["report", trace_s]).unwrap();
        assert!(report.contains("Function: main"));
        assert!(report.contains("Min"));

        let plot = run(&["plot", trace_s]).unwrap();
        assert!(plot.contains("function:"));
        assert!(plot.contains('|'));

        let gprof = run(&["gprof", trace_s]).unwrap();
        assert!(gprof.contains("cumulative"));

        let dump = run(&["dump", trace_s]).unwrap();
        assert!(dump.contains("# tempest trace"));

        let md = run(&["report", trace_s, "--format", "md"]).unwrap();
        assert!(md.contains("| sensor |"));
        let csv = run(&["report", trace_s, "--format", "csv"]).unwrap();
        assert!(csv.starts_with("node,function,"));
        let kv = run(&["report", trace_s, "--format", "kv"]).unwrap();
        assert!(kv.contains("function main"));
        let traits = run(&["traits", trace_s]).unwrap();
        assert!(traits.contains("thermal phases"));
        assert!(traits.contains("F/s"));
        let graph = run(&["callgraph", trace_s]).unwrap();
        assert!(graph.contains("main"));
        assert!(graph.contains("->"));

        let summary = run(&["summary", trace_s]).unwrap();
        assert!(summary.contains("cluster of 1 node"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn callgraph_and_plot_name_functions_by_id() {
        use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
        use tempest_sensors::{SensorReading, Temperature};
        // A symbol table not indexed by id: position 0 holds id 1.
        let def = |id: u32, name: &str| FunctionDef {
            id: FunctionId(id),
            name: name.into(),
            address: 0x40_0000 + id as u64 * 16,
            kind: ScopeKind::Function,
        };
        let (main, leaf, t0) = (FunctionId(0), FunctionId(1), ThreadId(0));
        let trace = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![def(1, "leaf"), def(0, "main")],
            events: vec![
                Event::enter(0, t0, main),
                Event::enter(500, t0, leaf),
                Event::exit(600, t0, leaf),
                Event::exit(1_000, t0, main),
            ],
            samples: (0..10)
                .map(|i| SensorReading::new(SensorId(0), i * 100, Temperature::from_celsius(40.0)))
                .collect(),
        };
        let dir = temp_dir("names-by-id");
        let path = dir.join("table.trace");
        trace.save(&path).unwrap();
        let path = path.to_str().unwrap();

        let graph = run(&["callgraph", path]).unwrap();
        let edge = graph.lines().nth(1).unwrap();
        let words: Vec<&str> = edge.split_whitespace().take(3).collect();
        assert_eq!(words, ["main", "->", "leaf"], "{graph}");

        let plot = run(&["plot", path, "--sensor", "0"]).unwrap();
        let banner = plot.lines().next().unwrap();
        // One initial per column: main's, with leaf's in the middle.
        let initials = banner.strip_prefix("function: ").unwrap();
        assert!(
            initials.starts_with("mmmm") && initials.ends_with("mmmm") && initials.contains('l'),
            "{banner}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_npb_multi_node() {
        let dir = temp_dir("npb");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "cg", "--class", "A", "--np", "4", "--out", dir_s]).unwrap();
        for n in 0..4 {
            assert!(dir.join(format!("cg-node{n}.trace")).exists());
        }
        // Summary over all four nodes.
        let traces: Vec<String> = (0..4)
            .map(|n| {
                dir.join(format!("cg-node{n}.trace"))
                    .to_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let args: Vec<&str> = std::iter::once("summary")
            .chain(traces.iter().map(String::as_str))
            .collect();
        let out = run(&args).unwrap();
        assert!(out.contains("cluster of 4 node(s)"));
        assert!(out.contains("divergence"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_flag_does_not_change_output() {
        let dir = temp_dir("jobs");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "cg", "--class", "A", "--np", "4", "--out", dir_s]).unwrap();
        let traces: Vec<String> = (0..4)
            .map(|n| {
                dir.join(format!("cg-node{n}.trace"))
                    .to_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        for verb in ["report", "summary", "doctor"] {
            let mut base: Vec<&str> = vec![verb];
            base.extend(traces.iter().map(String::as_str));
            let seq = run(&[base.clone(), vec!["--jobs", "1"]].concat()).unwrap();
            let par = run(&[base.clone(), vec!["--jobs", "4"]].concat()).unwrap();
            assert_eq!(seq, par, "{verb} output must not depend on --jobs");
            assert!(!seq.is_empty());
        }
        let err = run(&["report", "x.trace", "--jobs", "lots"]).unwrap_err();
        assert_eq!(err.code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_missing_file_is_run_error() {
        let err = run(&["report", "/nonexistent/x.trace"]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn bad_class_rejected() {
        let err = run(&["demo", "ft", "--class", "Z"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn record_native_micro_benchmark() {
        let dir = temp_dir("record");
        let dir_s = dir.to_str().unwrap();
        let out = run(&["record", "d", "--out", dir_s]).unwrap();
        assert!(out.contains("recorded"));
        let trace_path = dir.join("micro-d.trace");
        let report = run(&["report", trace_path.to_str().unwrap()]).unwrap();
        assert!(report.contains("Function: main"));
        assert!(report.contains("Function: foo1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sensors_runs_anywhere() {
        let out = run(&["sensors"]).unwrap();
        assert!(!out.is_empty());
    }

    /// Write a demo trace and a 60%-truncated copy of it; return both paths.
    fn good_and_truncated(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
        let dir = temp_dir(tag);
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        let good = dir.join("micro-d-node0.trace");
        let bytes = std::fs::read(&good).unwrap();
        let cut = dir.join("truncated.trace");
        std::fs::write(&cut, &bytes[..bytes.len() * 6 / 10]).unwrap();
        (dir, good, cut)
    }

    #[test]
    fn doctor_triages_good_and_damaged_traces() {
        let (dir, good, cut) = good_and_truncated("doctor");
        let out = run(&["doctor", good.to_str().unwrap()]).unwrap();
        assert!(out.contains(": ok"), "{out}");
        assert!(out.contains("parse: clean"), "{out}");

        let out = run(&["doctor", cut.to_str().unwrap()]).unwrap();
        assert!(out.contains(": degraded"), "{out}");
        assert!(out.contains("truncated in"), "{out}");

        let out = run(&["doctor", "/nonexistent/x.trace"]).unwrap();
        assert!(out.contains(": unreadable"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_recover_salvages_truncated_trace() {
        let (dir, _good, cut) = good_and_truncated("recover");
        // Strict report refuses the damaged file...
        let err = run(&["report", cut.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 1);
        // ...but --recover produces a profile plus a quality line.
        let out = run(&["report", cut.to_str().unwrap(), "--recover"]).unwrap();
        assert!(out.contains("Function: main"), "{out}");
        assert!(out.contains("data quality:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write a small spool under a fresh temp dir. `clean` finishes the
    /// writer (symbols + footer); otherwise the writer is dropped mid-flight,
    /// leaving an unsealed `.open` segment with no footer — a crash.
    fn write_spool(tag: &str, clean: bool) -> (PathBuf, PathBuf) {
        use tempest_probe::spool::{SpoolConfig, SpoolWriter};
        use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
        let parent = temp_dir(tag);
        let dir = parent.join("spool");
        let cfg = SpoolConfig::new(&dir);
        let mut w = SpoolWriter::create(&cfg, NodeMeta::anonymous()).unwrap();
        let t = ThreadId(0);
        let mut batch = Vec::new();
        for i in 0..10u64 {
            batch.push(Event::enter(i * 1_000_000, t, FunctionId(0)));
            batch.push(Event::sample(
                i * 1_000_000 + 10,
                SensorId(0),
                40.0 + i as f64,
            ));
            batch.push(Event::exit(i * 1_000_000 + 500_000, t, FunctionId(0)));
        }
        w.append_batch(&batch).unwrap();
        if clean {
            let funcs = vec![FunctionDef {
                id: FunctionId(0),
                name: "main".into(),
                address: 0x1000,
                kind: ScopeKind::Function,
            }];
            w.finish(&funcs, 0, 0).unwrap();
        }
        (parent, dir)
    }

    #[test]
    fn report_and_summary_accept_deadline_flag() {
        let dir = temp_dir("deadline");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        let trace = dir.join("micro-d-node0.trace");
        let trace_s = trace.to_str().unwrap();
        // A generous deadline on a tiny trace never trips: full output,
        // no quality line.
        let out = run(&["report", trace_s, "--deadline", "60", "--no-cache"]).unwrap();
        assert!(out.contains("Function: main"), "{out}");
        assert!(!out.contains("deadline hit"), "{out}");
        let out = run(&["summary", trace_s, "--deadline", "60"]).unwrap();
        assert!(out.contains("cluster of 1 node"), "{out}");
        let err = run(&["report", trace_s, "--deadline", "soon"]).unwrap_err();
        assert_eq!(err.code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_fsck_deep_verifies_spool_segments() {
        let (parent, dir) = write_spool("fsck-clean", true);
        let out = run(&["doctor", dir.to_str().unwrap(), "--fsck"]).unwrap();
        assert!(out.contains(": ok"), "{out}");
        assert!(out.contains("fsck seg-"), "{out}");
        assert!(out.contains("verified"), "{out}");
        std::fs::remove_dir_all(&parent).ok();

        // Tear the tail of a segment: fsck reports the torn frame per
        // segment and the verdict degrades.
        let (parent, dir) = write_spool("fsck-torn", true);
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let out = run(&["doctor", dir.to_str().unwrap(), "--fsck"]).unwrap();
        assert!(out.contains(": degraded"), "{out}");
        assert!(out.contains("1 torn"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn spool_recover_rebuilds_and_saves_a_trace() {
        let (parent, dir) = write_spool("spool-clean", true);
        let dir_s = dir.to_str().unwrap();

        let out = run(&["spool", "recover", dir_s]).unwrap();
        assert!(out.contains("clean shutdown"), "{out}");
        assert!(out.contains("recovered 20 events, 10 samples"), "{out}");
        assert!(out.contains("dry run"), "{out}");

        let saved = parent.join("recovered.trace");
        let saved_s = saved.to_str().unwrap();
        let out = run(&["spool", "recover", dir_s, "--out", saved_s]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let report = run(&["report", saved_s]).unwrap();
        assert!(report.contains("Function: main"), "{report}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn spool_recover_flags_crashed_session() {
        let (parent, dir) = write_spool("spool-crash", false);
        let out = run(&["spool", "recover", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("unclean shutdown"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn spool_usage_errors() {
        assert_eq!(run(&["spool"]).unwrap_err().code, 2);
        assert_eq!(run(&["spool", "frobnicate"]).unwrap_err().code, 2);
        assert_eq!(run(&["spool", "recover"]).unwrap_err().code, 2);
        assert_eq!(
            run(&["spool", "recover", "/nonexistent"]).unwrap_err().code,
            1
        );
    }

    #[test]
    fn doctor_triages_spool_directories() {
        let (parent, dir) = write_spool("doctor-spool", true);
        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains(": ok"), "{out}");
        assert!(out.contains("clean shutdown"), "{out}");
        std::fs::remove_dir_all(&parent).ok();

        let (parent, dir) = write_spool("doctor-spool-crash", false);
        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains(": degraded"), "{out}");
        assert!(out.contains("unclean shutdown"), "{out}");
        assert!(out.contains("spool recover"), "{out}");

        let empty = parent.join("not-a-spool");
        std::fs::create_dir_all(&empty).unwrap();
        let out = run(&["doctor", empty.to_str().unwrap()]).unwrap();
        assert!(out.contains(": unreadable"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn export_chrome_trace_roundtrips_through_json_parser() {
        let dir = temp_dir("export");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        let trace = dir.join("micro-d-node0.trace");
        let trace_s = trace.to_str().unwrap();

        let doc = run(&["export", trace_s]).unwrap();
        let parsed = tempest_obs::Json::parse(&doc).expect("export must be valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());

        let out_file = dir.join("trace.json");
        let out_s = out_file.to_str().unwrap();
        let msg = run(&["export", trace_s, "--out", out_s]).unwrap();
        assert!(msg.contains("perfetto"), "{msg}");
        let saved = std::fs::read_to_string(&out_file).unwrap();
        assert_eq!(saved, doc, "--out must write the same document");

        assert_eq!(run(&["export"]).unwrap_err().code, 2);
        assert_eq!(
            run(&["export", trace_s, "--format", "svg"])
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_command_prints_stage_timings() {
        let dir = temp_dir("metrics");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        let trace = dir.join("micro-d-node0.trace");
        let trace_s = trace.to_str().unwrap();

        let human = run(&["metrics", trace_s]).unwrap();
        assert!(human.contains("stage_decode_ns"), "{human}");
        assert!(human.contains("stage_correlate_ns"), "{human}");

        let prom = run(&["metrics", trace_s, "--format", "prom"]).unwrap();
        assert!(prom.contains("# TYPE"), "{prom}");

        let json = run(&["metrics", trace_s, "--format", "json"]).unwrap();
        let parsed = tempest_obs::Json::parse(&json).expect("metrics JSON must parse");
        assert!(parsed.get("histograms").is_some());

        assert_eq!(run(&["metrics"]).unwrap_err().code, 2);
        assert_eq!(
            run(&["metrics", trace_s, "--format", "xml"])
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_metrics_flag_appends_snapshot() {
        let dir = temp_dir("report-metrics");
        let dir_s = dir.to_str().unwrap();
        run(&["demo", "micro-d", "--out", dir_s]).unwrap();
        let trace = dir.join("micro-d-node0.trace");
        let trace_s = trace.to_str().unwrap();
        for verb in ["report", "summary", "doctor"] {
            let out = run(&[verb, trace_s, "--metrics"]).unwrap();
            assert!(out.contains("self-metrics:"), "{verb}: {out}");
        }
        // Without the flag the tail is absent.
        let out = run(&["report", trace_s]).unwrap();
        assert!(!out.contains("self-metrics:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_prints_backpressure_drops_in_human_units() {
        let (parent, dir) = write_spool("doctor-drops", true);
        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("backpressure: 0 event(s), 0 sample(s) dropped"),
            "{out}"
        );
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn watch_frame_golden_shape_includes_drops_and_backpressure() {
        use tempest_probe::spool::{SpoolConfig, SpoolWriter};
        use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
        let parent = temp_dir("watch-golden");
        let dir = parent.join("spool");
        let mut w = SpoolWriter::create(&SpoolConfig::new(&dir), NodeMeta::anonymous()).unwrap();
        let t = ThreadId(0);
        let mut batch = Vec::new();
        for i in 0..10u64 {
            batch.push(Event::enter(i * 1_000_000, t, FunctionId(0)));
            batch.push(Event::sample(
                i * 1_000_000 + 10,
                SensorId(0),
                40.0 + i as f64,
            ));
            batch.push(Event::exit(i * 1_000_000 + 500_000, t, FunctionId(0)));
        }
        w.append_batch(&batch).unwrap();
        let funcs = vec![FunctionDef {
            id: FunctionId(0),
            name: "main".into(),
            address: 0x1000,
            kind: ScopeKind::Function,
        }];
        // Seal with shed counts so the drops line carries real numbers.
        w.finish(&funcs, 3, 2).unwrap();

        let frame = render_watch_frame(&dir, None, 2.0).unwrap();
        assert_eq!(frame.events, 20);
        assert_eq!(frame.samples, 10);
        let lines: Vec<&str> = frame.rendered.lines().collect();
        // Golden shape, line by line: header, events, samples, drops,
        // hottest, then the hotspot list.
        assert!(lines[0].starts_with("spool "), "{}", frame.rendered);
        assert!(lines[0].ends_with("clean shutdown"), "{}", frame.rendered);
        assert!(lines[1].trim_start().starts_with("events"), "{}", lines[1]);
        assert!(lines[1].contains("/s)"), "{}", lines[1]);
        assert!(lines[2].trim_start().starts_with("samples"), "{}", lines[2]);
        assert_eq!(lines[3].trim(), "drops    3 event(s), 2 sample(s) shed");
        assert_eq!(lines[4].trim(), "hottest  sensor#0  49.0 C");
        assert!(
            lines[5].contains("top hot functions so far:"),
            "{}",
            lines[5]
        );
        assert!(lines[6].contains("main"), "{}", lines[6]);
        assert!(lines[6].contains("score"), "{}", lines[6]);

        // With a previous frame, rates are deltas over the interval:
        // (20 - 10) events in 2s is 5/s.
        let frame = render_watch_frame(&dir, Some((10, 6)), 2.0).unwrap();
        assert!(frame.rendered.contains("(5/s)"), "{}", frame.rendered);
        assert!(frame.rendered.contains("(2/s)"), "{}", frame.rendered);
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn fleet_dir_mode_renders_table_json_and_prom() {
        // A sealed spool: finish() appends one telemetry snapshot, which
        // is exactly what the offline fleet scan aggregates.
        let (parent, dir) = write_spool("fleet-dir", true);
        let dir_s = dir.to_str().unwrap();

        let table = run(&["fleet", dir_s, "--count", "1"]).unwrap();
        assert!(table.contains("fleet: 1 node(s), 0 stale"), "{table}");
        assert!(table.contains("NODE"), "{table}");
        assert!(table.contains("HOTTEST"), "{table}");
        assert!(table.contains("spool"), "{table}");

        let json = run(&["fleet", dir_s, "--json"]).unwrap();
        let v = tempest_obs::Json::parse(&json).expect("fleet json must parse");
        assert_eq!(v.get("node_count").and_then(|n| n.as_f64()), Some(1.0));
        let nodes = v.get("nodes").and_then(|n| n.as_arr()).unwrap();
        assert!(nodes[0].get("metrics").is_some(), "{json}");

        let prom = run(&["fleet", dir_s, "--prom"]).unwrap();
        assert!(prom.contains("fleet_nodes 1"), "{prom}");
        assert!(prom.contains("fleet_node_counter{node="), "{prom}");

        // Usage: a target is required, machine modes are exclusive.
        assert_eq!(run(&["fleet"]).unwrap_err().code, 2);
        assert_eq!(
            run(&["fleet", dir_s, "--json", "--prom"]).unwrap_err().code,
            2
        );

        // A spool with no telemetry yet: machine modes fail loudly so a
        // parser never sees an error as data, the table reports and moves on.
        let (parent2, dir2) = write_spool("fleet-dir-empty", false);
        let err = run(&["fleet", dir2.to_str().unwrap(), "--json"]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("no telemetry"), "{}", err.message);
        let out = run(&["fleet", dir2.to_str().unwrap(), "--count", "1"]).unwrap();
        assert!(out.contains("no telemetry"), "{out}");

        std::fs::remove_dir_all(&parent).ok();
        std::fs::remove_dir_all(&parent2).ok();
    }

    #[test]
    fn doctor_surfaces_flight_recorder_dump() {
        use tempest_obs::flight::FlightRecorder;
        use tempest_obs::FlightLevel;
        let (parent, dir) = write_spool("doctor-flight", true);
        // Simulate a degraded pipeline dumping its black box beside the
        // spool: 8 events, so the report elides all but the last 5.
        let rec = FlightRecorder::new(16);
        for i in 0..8 {
            rec.record_parts(
                FlightLevel::Warn,
                "ship",
                format!("retrying connect #{i}"),
                vec![("attempt".into(), i.to_string())],
            );
        }
        rec.dump_to(
            &dir.join(tempest_probe::spool::FLIGHT_DUMP_NAME),
            "injected degradation",
        )
        .unwrap();

        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("flight recorder: dumped on \"injected degradation\", 8 event(s)"),
            "{out}"
        );
        assert!(out.contains("… 3 earlier event(s)"), "{out}");
        assert!(out.contains("[warn] ship: retrying connect #7"), "{out}");
        assert!(!out.contains("retrying connect #0"), "{out}");

        // A corrupt dump degrades to a note, never an error.
        std::fs::write(
            dir.join(tempest_probe::spool::FLIGHT_DUMP_NAME),
            "{not json",
        )
        .unwrap();
        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains("unreadable"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    /// `watch` and `fleet` share one refresh loop: the same usage errors
    /// for bad `--interval`/`--count` values, and a screen clear between
    /// frames only where a table is drawn.
    #[test]
    fn refresh_loop_validates_flags_and_clears_only_tables() {
        let (parent, dir) = write_spool("refresh-loop", true);
        let dir_s = dir.to_str().unwrap();
        for verb in ["watch", "fleet"] {
            for (flag, value) in [
                ("--interval", "-1"),
                ("--interval", "nan"),
                ("--count", "x"),
            ] {
                let err = run(&[verb, dir_s, flag, value]).unwrap_err();
                assert_eq!(err.code, 2, "{verb} {flag} {value}: {}", err.message);
            }
        }
        let cases: [(&[&str], bool); 2] = [
            (&["watch", dir_s, "--count", "2", "--interval", "0"], true),
            (
                &["fleet", dir_s, "--json", "--count", "2", "--interval", "0"],
                false,
            ),
        ];
        for (args, clears) in cases {
            let out = run(args).unwrap();
            assert_eq!(out.contains("\x1b[2J\x1b[H"), clears, "{args:?}");
        }
        let out = run(&["fleet", dir_s, "--json", "--count", "2", "--interval", "0"]).unwrap();
        assert_eq!(out.matches("\"node_count\"").count(), 2, "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn watch_renders_live_then_finished_spool() {
        use std::sync::Arc;
        use tempest_probe::spool::SpoolConfig;
        use tempest_probe::{MonotonicClock, SpooledSession, TempdConfig};

        let parent = temp_dir("watch");
        let dir = parent.join("spool");
        let session = SpooledSession::start(
            SpoolConfig::new(&dir),
            Arc::new(MonotonicClock::new()),
            None,
            TempdConfig::default(),
        )
        .unwrap();
        {
            let tp = session.thread_profiler();
            for _ in 0..100 {
                let _g = tp.scope("busy_loop");
            }
            tp.flush();
        }
        // The writer thread persists asynchronously; wait for the batch to
        // land before watching.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if tempest_probe::spool::is_spool_dir(&dir) {
                if let Ok((_, rep)) = tempest_probe::spool::recover(&dir) {
                    if rep.events_recovered >= 200 {
                        break;
                    }
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "spool writer never persisted the batch"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // One frame from the actively-written (unclean, live) spool.
        let dir_s = dir.to_str().unwrap();
        let out = run(&["watch", dir_s, "--count", "1"]).unwrap();
        assert!(out.contains("live/unclean"), "{out}");
        assert!(out.contains("events"), "{out}");
        assert!(out.contains("200"), "{out}");

        session.finish().unwrap();
        // Two frames from the sealed spool: totals plus a refresh escape.
        let out = run(&["watch", dir_s, "--count", "2", "--interval", "0"]).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(
            out.contains("\x1b[2J"),
            "second frame must clear the screen"
        );

        // Usage and not-a-spool handling.
        assert_eq!(run(&["watch"]).unwrap_err().code, 2);
        let empty = parent.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = run(&["watch", empty.to_str().unwrap(), "--count", "1"]).unwrap();
        assert!(out.contains("waiting for spool"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn collect_serve_and_ship_roundtrip_through_the_cli() {
        let parent = temp_dir("cli-ship");
        // A sealed session to ship.
        let (src_parent, spool) = write_spool("cli-ship-src", true);
        let collected = parent.join("collected");
        let port_file = parent.join("collector.addr");

        // Serve exactly one connection on an ephemeral port, publishing
        // the bound address through --port-file.
        let serve_args: Vec<String> = [
            "collect",
            "serve",
            "--out",
            collected.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--once",
            "1",
            "--port-file",
            port_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            main_with_args(&serve_args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
        });

        // The port file appears atomically once the listener is bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_string();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "collector never published its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let out = run(&[
            "ship",
            spool.to_str().unwrap(),
            "--to",
            &addr,
            "--session",
            "clitest",
            "--retries",
            "10",
            "--base-ms",
            "1",
        ])
        .unwrap();
        assert!(out.contains("session complete"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("collecting on"), "{served}");
        assert!(served.contains("1 session(s) completed"), "{served}");

        // Doctor knows both sides of the wire: the source spool carries a
        // resume cursor, the collected copy knows its source provenance.
        let src_doc = run(&["doctor", spool.to_str().unwrap()]).unwrap();
        assert!(src_doc.contains("shipping: acked through"), "{src_doc}");
        let dst = collected.join("clitest-node0");
        let dst_doc = run(&["doctor", dst.to_str().unwrap()]).unwrap();
        assert!(dst_doc.contains(": ok"), "{dst_doc}");
        assert!(dst_doc.contains("collected session"), "{dst_doc}");
        assert!(dst_doc.contains("0 duplicate frame(s)"), "{dst_doc}");

        // The collected copy is a first-class spool: recover + report.
        let report = run(&["spool", "recover", dst.to_str().unwrap()]).unwrap();
        assert!(report.contains("clean shutdown"), "{report}");

        // The shipped telemetry snapshot and the per-frame origin stamps
        // both survived the wire: doctor reads them off the collected copy.
        assert!(
            dst_doc.contains("telemetry: 1 snapshot(s) spooled"),
            "{dst_doc}"
        );
        assert!(dst_doc.contains("frame traces:"), "{dst_doc}");
        assert!(dst_doc.contains("median ship→collect"), "{dst_doc}");

        // Offline fleet view over the collector's output directory.
        let fleet = run(&["fleet", collected.to_str().unwrap(), "--json"]).unwrap();
        let v = tempest_obs::Json::parse(&fleet).expect("fleet json must parse");
        assert_eq!(v.get("node_count").and_then(|n| n.as_f64()), Some(1.0));
        let table = run(&["fleet", collected.to_str().unwrap(), "--count", "1"]).unwrap();
        assert!(table.contains("clitest-node0"), "{table}");

        // Cross-node frame-latency export from the same directory.
        let trace_path = parent.join("fleet-latency.json");
        let exported = run(&[
            "export",
            dst.to_str().unwrap(),
            "--format",
            "fleet-trace",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(exported.contains("wrote"), "{exported}");
        let doc = std::fs::read_to_string(&trace_path).unwrap();
        let parsed = tempest_obs::Json::parse(&doc).expect("fleet trace must parse");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|n| n.as_str())
                        == Some("ship→collect")
            }),
            "{doc}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some("ship")),
            "{doc}"
        );
        std::fs::remove_dir_all(&parent).ok();
        std::fs::remove_dir_all(&src_parent).ok();
    }

    #[test]
    fn collect_and_ship_usage_errors() {
        assert_eq!(run(&["collect"]).unwrap_err().code, 2);
        assert_eq!(run(&["collect", "frobnicate"]).unwrap_err().code, 2);
        assert_eq!(run(&["collect", "serve"]).unwrap_err().code, 2); // no --out
        assert_eq!(
            run(&["collect", "serve", "--out", "x", "--shed", "panic"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(run(&["ship"]).unwrap_err().code, 2);
        assert_eq!(run(&["ship", "somedir"]).unwrap_err().code, 2); // no --to
                                                                    // Missing spool directory is a runtime error, not usage.
        assert_eq!(
            run(&["ship", "/nonexistent/spool", "--to", "127.0.0.1:1"])
                .unwrap_err()
                .code,
            1
        );
    }

    #[test]
    fn ship_to_dead_collector_exits_nonzero_but_keeps_the_spool() {
        let (parent, spool) = write_spool("cli-ship-dead", true);
        // Learn a free port, then close it so connections are refused.
        let free = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = free.local_addr().unwrap().to_string();
        drop(free);
        let err = run(&[
            "ship",
            spool.to_str().unwrap(),
            "--to",
            &addr,
            "--retries",
            "2",
            "--base-ms",
            "1",
            "--cap-ms",
            "2",
        ])
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("retry budget exhausted"),
            "{}",
            err.message
        );
        // Degradation left the local session fully usable.
        let out = run(&["spool", "recover", spool.to_str().unwrap()]).unwrap();
        assert!(out.contains("clean shutdown"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn doctor_flags_manifest_disk_disagreement() {
        let (parent, spool) = write_spool("cli-manifest", true);
        // Plant a sealed segment the manifest never listed.
        let seg = spool.join("seg-000000.seg");
        std::fs::copy(&seg, spool.join("seg-000099.seg")).unwrap();
        let out = run(&["doctor", spool.to_str().unwrap()]).unwrap();
        assert!(out.contains(": degraded"), "{out}");
        assert!(out.contains("not in the manifest"), "{out}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn serve_usage_errors() {
        assert_eq!(run(&["serve"]).unwrap_err().code, 2); // no directory
        assert_eq!(
            run(&["serve", "somedir", "--once-ready"]).unwrap_err().code,
            2
        ); // --once-ready without --port-file
        assert_eq!(
            run(&["serve", "/nonexistent/collected", "--once", "1"])
                .unwrap_err()
                .code,
            1
        ); // missing directory is a runtime error
    }

    #[test]
    fn serve_answers_v1_api_through_the_cli() {
        let (parent, spool) = write_spool("cli-serve", true);
        let port_file = parent.join("serve.addr");

        // Exactly five requests, then the daemon exits on its own.
        let serve_args: Vec<String> = [
            "serve",
            spool.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--once",
            "5",
            "--once-ready",
            "--port-file",
            port_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--no-cache",
            "--rescan-ms",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            main_with_args(&serve_args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
        });

        // The port file appearing means the catalog scan already ran.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_string();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let mut client = tempest_collect::HttpClient::connect(&addr).unwrap();
        let (status, _, body) = client.get("/api/v1/health", &[]).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        let (status, _, body) = client.get("/api/v1/sessions", &[]).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"id\":\"spool\""), "{body}");
        let (status, headers, body) = client
            .get("/api/v1/sessions/spool/hotspots?top=3&sort=temp", &[])
            .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"spots\""), "{body}");
        let etag = headers
            .iter()
            .find(|(n, _)| n == "etag")
            .map(|(_, v)| v.clone())
            .expect("hotspots answer must carry an ETag");
        let (status, _, _) = client
            .get(
                "/api/v1/sessions/spool/hotspots?top=3&sort=temp",
                &[("If-None-Match", &etag)],
            )
            .unwrap();
        assert_eq!(status, 304, "matching ETag must revalidate");
        let (status, _, body) = client.get("/api/v1/sessions/spool/profile", &[]).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"functions\""), "{body}");

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("serving 1 session(s)"), "{served}");
        assert!(served.contains("served 5 request(s)"), "{served}");
        std::fs::remove_dir_all(&parent).ok();
    }

    #[test]
    fn summary_recover_tolerates_missing_nodes() {
        let (dir, good, _cut) = good_and_truncated("partial");
        let out = run(&[
            "summary",
            good.to_str().unwrap(),
            "/nonexistent/gone.trace",
            "--recover",
        ])
        .unwrap();
        assert!(out.contains("skipping node"), "{out}");
        assert!(out.contains("cluster of 1 node"), "{out}");
        assert!(out.contains("survivors only"), "{out}");
        assert!(out.contains("hot spots"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
