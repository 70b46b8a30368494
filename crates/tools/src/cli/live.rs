//! Live views that redraw on an interval: `watch` (one spool) and
//! `fleet` (every node a collector knows).

use super::args::Args;
use super::CliError;
use std::fmt::Write as _;
use std::path::Path;
use tempest_collect::fleet::{FleetState, DEFAULT_STALE_AFTER};

/// One rendered frame of `tempest watch`, plus the totals needed to
/// compute rates for the next frame.
pub(super) struct WatchFrame {
    pub(super) rendered: String,
    pub(super) events: u64,
    pub(super) samples: u64,
}

/// Render the live status of a spool directory: totals, rates against
/// the previous frame, backpressure drops, hottest sensor, and the top-5
/// hot functions recovered so far.
pub(super) fn render_watch_frame(
    dir: &Path,
    prev: Option<(u64, u64)>,
    dt_secs: f64,
) -> Result<WatchFrame, String> {
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

/// The flags [`refresh_loop`] reads.
pub(super) const REFRESH: &str = "--interval= --count=";

/// The refresh loop `watch` and `fleet` share. Reads `--interval SECS`
/// (default 2) and `--count N` (0 = forever), then renders `count`
/// frames with `frame`, which is handed the interval; the loop stops at
/// the first frame error. With `clear`, each frame after the first
/// starts with an ANSI clear so a terminal shows a refreshing screen.
fn refresh_loop(
    args: &Args,
    default_count: u64,
    clear: bool,
    out: &mut dyn std::io::Write,
    mut frame: impl FnMut(&mut dyn std::io::Write, f64) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let interval: f64 = args.number("--interval")?.unwrap_or(2.0);
    if !interval.is_finite() || interval < 0.0 {
        return Err(args.error("--interval wants non-negative seconds"));
    }
    let count = args.number("--count")?.unwrap_or(default_count);
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
pub(super) fn watch(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let dir = Path::new(&args.positional("spool directory")?[0]);
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

/// One `tempest fleet` frame, from either source, in any output mode.
/// A directory is scanned as the query daemon's `/api/v1/fleet` scans it.
fn render_fleet_frame(target: &str, json: bool, prom: bool) -> Result<String, String> {
    let dir = Path::new(target);
    if dir.is_dir() {
        let fleet = FleetState::from_collected_dir(dir, DEFAULT_STALE_AFTER);
        if fleet.is_empty() {
            return Err("no telemetry snapshots found yet".to_string());
        }
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

pub(super) const FLEET: &str = "--json --prom";

/// `tempest fleet`: the multi-node analogue of `tempest watch` — a live
/// table of every node a collector knows about (rates, drops, limit
/// hits, hottest sensor), sourced from the collector's HTTP metrics
/// endpoint (`HOST:PORT`) or offline from its collected spool
/// directories. `--json` / `--prom` print the raw fleet document /
/// Prometheus exposition instead (one shot by default).
pub(super) fn fleet(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let target = &args.positional("collector (HOST:PORT or collected out dir)")?[0];
    let json = args.switch("--json");
    let prom = args.switch("--prom");
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
