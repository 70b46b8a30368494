//! Analysis reports: `report`, `summary`, `export` and `metrics`.

use super::args::Args;
use super::{load_trace, CliError, CommonFlags};
use std::path::Path;
use tempest_core::{report, ClusterProfile, Engine, NodeProfile};
use tempest_probe::trace::Trace;

pub(super) const REPORT: &str = "--format= --recover";

pub(super) fn report(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let paths = args.positional("trace file(s)")?;
    let format = args.value("--format").unwrap_or("text");
    let to_text: fn(&NodeProfile) -> String = match format {
        "text" => report::render_stdout,
        "csv" => tempest_core::export::profile_to_csv,
        "kv" => tempest_core::export::profile_to_kv,
        "md" => tempest_core::export::profile_to_markdown,
        "json" => tempest_core::export::profile_to_json,
        _ => return Err(CliError::usage(format!("unknown format `{format}`"))),
    };
    let common = CommonFlags::parse(args)?;
    let recover = args.switch("--recover");
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
    let render = |profile: &NodeProfile| {
        let mut rendered = to_text(profile);
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
    for result in request.render_on(&engine, cache.as_ref(), paths, format, render) {
        let _ = write!(out, "{}", result.map_err(CliError::run)?);
    }
    common.finish(out);
    Ok(())
}

pub(super) const SUMMARY: &str = "--recover";

pub(super) fn summary(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let paths = args.positional("trace file(s)")?;
    let common = CommonFlags::parse(args)?;
    let recover = args.switch("--recover");
    let request = tempest_core::AnalysisRequest::new()
        .jobs(common.jobs)
        .recover(recover)
        .deadline(common.deadline());
    let mut profiles = Vec::new();
    let mut lost = 0usize;
    for result in request.analyze(paths).into_profiles() {
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
        ClusterProfile::with_expected(profiles, paths.len())
    } else {
        ClusterProfile::new(profiles)
    };
    let _ = writeln!(out, "cluster of {} node(s):", cluster.node_count());
    if lost > 0 {
        let _ = writeln!(
            out,
            "  ({lost} of {} node trace(s) unrecoverable; statistics cover survivors only)",
            paths.len()
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

pub(super) const EXPORT: &str = "--format= --out= --recover";

/// `tempest export`: render a trace in an interchange format that loads
/// in https://ui.perfetto.dev, to `--out` or to stdout. `chrome-trace` is
/// Chrome `trace_event` JSON of one trace (functions as per-thread
/// duration events, sensors as counter tracks, gaps as instant events);
/// `fleet-trace` is the ship→collect view of collected spools.
pub(super) fn export(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let paths = args.positional("trace file")?;
    let common = CommonFlags::parse(args)?;
    let (doc, note) = match args.value("--format").unwrap_or("chrome-trace") {
        "chrome-trace" => {
            let path = &paths[0];
            let trace = if args.switch("--recover") {
                Trace::load_salvage(Path::new(path))
                    .map(|(t, _)| t)
                    .map_err(|e| CliError::run(format!("{path}: {e}")))?
            } else {
                load_trace(path)?
            };
            let note = " — open it at https://ui.perfetto.dev or chrome://tracing";
            (tempest_core::chrome_trace_json(&trace), note.to_string())
        }
        "fleet-trace" => fleet_trace(paths)?,
        format => {
            return Err(CliError::usage(format!(
                "unknown export format `{format}` (chrome-trace|fleet-trace)"
            )))
        }
    };
    match args.value("--out") {
        Some(file) => {
            std::fs::write(file, doc).map_err(|e| CliError::run(format!("{file}: {e}")))?;
            let _ = writeln!(out, "wrote {file}{note}");
        }
        None => {
            let _ = write!(out, "{doc}");
        }
    }
    common.finish(out);
    Ok(())
}

/// The cross-node ship→collect frame-latency view of one or more
/// collected session spool directories, and the note that goes with it
/// when written to a file. Each directory contributes one process whose
/// track holds a duration event per shipped frame, spanning the frame's
/// spool-append origin stamp to its collector receipt stamp (the
/// `FRAME_SHIPPED2` envelope carries both).
fn fleet_trace(paths: &[String]) -> Result<(String, String), CliError> {
    let mut nodes: Vec<(String, Vec<tempest_probe::spool::FrameTrace>)> = Vec::new();
    for path in paths {
        let dir = Path::new(path);
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
    let note = format!(
        " ({traced} frame trace(s) across {} node(s)) — open it at https://ui.perfetto.dev",
        nodes.len()
    );
    Ok((tempest_core::chrome_fleet_trace_json(&nodes), note))
}

pub(super) const METRICS: &str = "--format= --recover --jobs=";

/// `tempest metrics`: run the full analysis pipeline over the given
/// traces purely to exercise it, then print the self-metrics the run
/// produced (stage timings, decode counters, …) in the chosen format.
pub(super) fn metrics(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let paths = args.positional("trace file(s)")?;
    let format = args.value("--format").unwrap_or("human");
    let to_text: fn(&tempest_obs::Snapshot) -> String = match format {
        "human" => tempest_obs::to_human,
        "prom" => tempest_obs::to_prometheus,
        "json" => tempest_obs::to_json,
        _ => {
            return Err(CliError::usage(format!(
                "unknown metrics format `{format}` (human|prom|json)"
            )))
        }
    };
    let request = tempest_core::AnalysisRequest::new()
        .jobs(args.number("--jobs")?.unwrap_or(0))
        .recover(args.switch("--recover"));
    for result in request.analyze(paths).into_profiles() {
        result.map_err(CliError::run)?;
    }
    let _ = write!(out, "{}", to_text(&tempest_obs::global().snapshot()));
    Ok(())
}
