//! The daemons: `collect serve` receives shipped spools, `ship` sends
//! one, and `serve` answers analysis queries over HTTP.

use super::args::Args;
use super::{publish_addr, CliError, CommonFlags};
use std::path::{Path, PathBuf};
use std::time::Duration;

pub(super) const COLLECT: &str = "--out= --addr= --once= --port-file= --fsync \
    --max-frame-bytes= --disk-budget= --shed= --rate-limit= --deadline= \
    --metrics-addr= --metrics-port-file=";

/// `tempest collect serve`: run the network collector daemon. Every
/// shipped session lands under `--out` as a standard spool directory, so
/// `tempest spool recover`, `doctor`, `report --recover` and friends work
/// on the collected copy unchanged. `--once N` accepts exactly N
/// connections then exits (CI smoke tests); `--port-file` atomically
/// publishes the bound address so scripts using `--addr 127.0.0.1:0`
/// never have to guess or sleep.
pub(super) fn collect(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_collect::{Collector, CollectorConfig, ShedPolicy};
    let action = &args.positional("action (serve)")?[0];
    if action != "serve" {
        return Err(CliError::usage(format!(
            "unknown collect action `{action}` (only `serve`)"
        )));
    }
    let out_dir = args
        .value("--out")
        .ok_or_else(|| CliError::usage("collect serve: --out DIR is required"))?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:9797");
    let mut config = CollectorConfig::new(out_dir);
    config.fsync_per_frame = args.switch("--fsync");
    if let Some(max) = args.number::<u64>("--max-frame-bytes")? {
        config.max_frame_bytes = max.min(u32::MAX as u64) as u32;
    }
    config.disk_budget_bytes = args.number("--disk-budget")?;
    config.rate_limit = args.number("--rate-limit")?;
    config.session_deadline = args
        .number("--deadline")?
        .filter(|&secs| secs > 0)
        .map(Duration::from_secs);
    config.shed = match args.value("--shed") {
        None | Some("refuse") => ShedPolicy::Refuse,
        Some("disconnect") => ShedPolicy::Disconnect,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown shed policy `{other}` (refuse|disconnect)"
            )))
        }
    };
    let once: Option<u64> = args.number("--once")?;
    std::fs::create_dir_all(out_dir).map_err(|e| CliError::run(format!("{out_dir}: {e}")))?;

    let collector =
        Collector::bind(addr, config).map_err(|e| CliError::run(format!("{addr}: {e}")))?;
    let handle = collector
        .handle()
        .map_err(|e| CliError::run(format!("collector: {e}")))?;
    let _ = writeln!(out, "collecting on {} into {out_dir}", handle.addr());
    let _ = out.flush();
    if let Some(port_file) = args.value("--port-file") {
        publish_addr(port_file, handle.addr())?;
    }
    // Optional HTTP surface: GET /metrics (Prometheus text) and
    // GET /fleet.json, fed by the same fleet state the wire protocol
    // updates. Lives on its own listener so the collection port never
    // speaks HTTP.
    let metrics_server = match args.value("--metrics-addr") {
        Some(maddr) => {
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let server = tempest_collect::serve_metrics(maddr, handle.fleet(), stop.clone())
                .map_err(|e| CliError::run(format!("{maddr}: {e}")))?;
            let _ = writeln!(
                out,
                "fleet metrics on http://{}/metrics and /fleet.json",
                server.addr()
            );
            let _ = out.flush();
            if let Some(file) = args.value("--metrics-port-file") {
                publish_addr(file, server.addr())?;
            }
            Some((server, stop))
        }
        None => None,
    };
    let served = match once {
        Some(n) => collector.serve_connections(n),
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

pub(super) const SERVE: &str =
    "--addr= --port-file= --once= --once-ready --rate-limit= --rescan-ms=";

/// `tempest serve`: the analysis query daemon. Point it at a collected
/// session directory (or a single spool) and it answers the versioned
/// `/api/v1/*` hot-spot questions over HTTP/1.1 keep-alive, serving
/// repeat questions from the content-hash analysis cache instead of
/// re-analyzing per request. `--once N` exits after N requests (CI
/// smoke); `--once-ready` additionally fails fast when the initial scan
/// finds no sessions, so a script never curls an empty catalog.
pub(super) fn serve(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let dir = &args.positional("collected directory")?[0];
    let common = CommonFlags::parse(args)?;
    let once: Option<u64> = args.number("--once")?;
    let once_ready = args.switch("--once-ready");
    let port_file = args.value("--port-file");
    if once_ready && port_file.is_none() {
        return Err(CliError::usage("--once-ready needs --port-file FILE"));
    }

    let mut config = tempest_collect::QueryConfig {
        dir: PathBuf::from(dir),
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
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
                .unwrap_or_else(|| Path::new(dir).join(".tempest-cache")),
        )
    };
    config.rate_limit = args.number("--rate-limit")?;
    config.rescan_ms = args.number("--rescan-ms")?.unwrap_or(2000);
    config.deadline = common.budget;

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
        publish_addr(port_file, server.addr())?;
    }
    match once {
        Some(n) => {
            while server.served() < n {
                std::thread::sleep(Duration::from_millis(10));
            }
            server.stop();
        }
        None => {
            // Foreground daemon: park until killed. The worker threads
            // own all the work; this thread just keeps the process up.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
    let served = server.served();
    server.join();
    let _ = writeln!(out, "served {served} request(s)");
    common.finish(out);
    Ok(())
}

pub(super) const SHIP: &str = "--to= --session= --follow --retries= --base-ms= --cap-ms= \
    --seed= --no-telemetry";

/// `tempest ship`: stream a spool directory to a collector. Completion
/// means the collector acknowledged the session footer; a run that
/// exhausts its retry budget exits nonzero but leaves the local spool
/// (and the persisted resume cursor) intact, so a later re-run resumes
/// where this one stopped without re-sending anything.
pub(super) fn ship(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_probe::ship::{self, ShipConfig};
    let dir = &args.positional("spool directory")?[0];
    let to = args
        .value("--to")
        .ok_or_else(|| CliError::usage("ship: --to HOST:PORT is required"))?;
    let mut config = ShipConfig::new(dir, to);
    if let Some(session) = args.value("--session") {
        config.session = session.to_string();
    }
    config.follow = args.switch("--follow");
    config.telemetry = !args.switch("--no-telemetry");
    if let Some(retries) = args.number::<u64>("--retries")? {
        config.retry.max_failures = retries.min(u32::MAX as u64) as u32;
    }
    let retry = &mut config.retry;
    retry.base_ms = args.number("--base-ms")?.unwrap_or(retry.base_ms);
    retry.cap_ms = args.number("--cap-ms")?.unwrap_or(retry.cap_ms);
    retry.seed = args.number("--seed")?.unwrap_or(retry.seed);

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
