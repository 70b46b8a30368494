//! Triage without full analysis: `doctor` and `spool recover`.

use super::args::Args;
use super::{CliError, CommonFlags};
use std::fmt::Write as _;
use std::path::Path;
use tempest_core::{AnalysisCache, Engine, ParseError};
use tempest_probe::limits::{CancelToken, DecodeLimits};
use tempest_probe::trace::Trace;

pub(super) const DOCTOR: &str = "--fsck";

/// `tempest doctor`: triage trace files without analysing them in full.
/// For each file: try a strict read; if that fails, salvage and report
/// exactly what was lost; then pre-flight the decoded trace the way a
/// strict parse would. Exit code stays 0 — doctor diagnoses, it does not
/// judge.
pub(super) fn doctor(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let paths = args.positional("trace file(s)")?;
    let fsck = args.switch("--fsck");
    let common = CommonFlags::parse(args)?;
    let deadline = common.deadline();
    // Each file's triage is independent; fan it out and print the fully
    // rendered verdicts in input order.
    let engine = Engine::new(common.jobs);
    let verdicts = engine.map(paths.to_vec(), move |path| {
        triage_one(&path, fsck, deadline)
    });
    for rendered in verdicts {
        let _ = write!(out, "{rendered}");
    }
    common.finish(out);
    Ok(())
}

/// Triage one trace file into doctor's rendered verdict block. Spool
/// directories (from the durable sink) are triaged via checksum recovery
/// rather than a strict file read.
fn triage_one(path: &str, fsck: bool, deadline: Option<std::time::Instant>) -> String {
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

pub(super) const SPOOL: &str = "--out=";

/// `tempest spool recover`: rebuild a trace from an on-disk crash spool
/// written by the durable sink. Recovery is checksum-driven: every intact
/// frame prefix is kept, the torn tail (if any) is discarded, and the
/// result can optionally be materialised as a normal `.trace` file.
pub(super) fn spool(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let pos = args.positional("action (recover)")?;
    if pos[0] != "recover" {
        return Err(CliError::usage(format!(
            "unknown spool action `{}` (only `recover`)",
            pos[0]
        )));
    }
    let dir = pos
        .get(1)
        .ok_or_else(|| CliError::usage("spool recover: which spool directory?"))?;
    let dir_path = Path::new(dir);
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
    match args.value("--out") {
        Some(path) => {
            trace
                .save(Path::new(path))
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
