//! The `tempest` CLI: `USAGE` lists every command and its flags.
//!
//! Each command declares its flags beside its body, and `COMMANDS` hands
//! them to the one flag grammar in `args`, which refuses any flag the
//! command did not declare. The commands sit in modules by what they do:
//! `reports` analyse traces, `triage` diagnoses damaged traces and spools,
//! `live` redraws a spool's or a fleet's status, `daemons` collect, ship
//! and serve, `views` show one trace, and `capture` makes traces.
//!
//! Argument handling is deliberately hand-rolled: the dependency budget
//! (DESIGN.md) has no CLI crate.

mod args;
mod capture;
mod daemons;
mod live;
mod reports;
mod triage;
mod views;

use args::Args;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tempest_core::AnalysisCache;
use tempest_probe::trace::Trace;

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

/// A command's body: the parsed command line in, output to `out`.
type Run = fn(&Args, &mut dyn std::io::Write) -> Result<(), CliError>;

/// Every command, in `USAGE` order, with the flags it declares.
const COMMANDS: &[(&str, &[&str], Run)] = &[
    ("demo", &[capture::DEMO], capture::demo),
    ("record", &[capture::RECORD], capture::record),
    ("report", &[reports::REPORT, COMMON], reports::report),
    ("summary", &[reports::SUMMARY, COMMON], reports::summary),
    ("doctor", &[triage::DOCTOR, COMMON], triage::doctor),
    ("plot", &[views::SENSOR], views::plot),
    ("traits", &[views::SENSOR], views::traits),
    ("callgraph", &[], views::callgraph),
    ("gprof", &[], views::gprof),
    ("dump", &[], views::dump),
    ("sensors", &[], capture::sensors),
    ("spool", &[triage::SPOOL], triage::spool),
    ("export", &[reports::EXPORT, COMMON], reports::export),
    ("metrics", &[reports::METRICS], reports::metrics),
    ("watch", &[live::REFRESH], live::watch),
    ("fleet", &[live::FLEET, live::REFRESH], live::fleet),
    ("collect", &[daemons::COLLECT], daemons::collect),
    ("ship", &[daemons::SHIP], daemons::ship),
    ("serve", &[daemons::SERVE, COMMON], daemons::serve),
];

/// Entry point given argv (without the program name). Writes to stdout;
/// returns an error with exit code otherwise.
pub fn main_with_args(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let verb = args.first().map_or("", String::as_str);
    if matches!(verb, "help" | "--help" | "-h" | "") {
        let _ = write!(out, "{USAGE}");
        return Ok(());
    }
    let (name, flags, run) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == verb)
        .ok_or_else(|| CliError::usage(format!("unknown command `{verb}`\n\n{USAGE}")))?;
    run(&Args::parse(name, flags, &args[1..])?, out)
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    Trace::load(Path::new(path)).map_err(|e| CliError::run(format!("{path}: {e}")))
}

/// Publish a bound address, newline-terminated, to `file` through
/// [`tempest_obs::publish`], so a watching script never reads half of it.
fn publish_addr(file: &str, addr: impl std::fmt::Display) -> Result<(), CliError> {
    tempest_obs::publish(Path::new(file), format!("{addr}\n").as_bytes())
        .map_err(|e| CliError::run(format!("{file}: {e}")))
}

/// The flags every analysis-running command (`report`/`summary`/
/// `doctor`/`export`/`serve`) shares, so they mean the same thing
/// everywhere.
const COMMON: &str = "--jobs= --cache= --no-cache --deadline= --metrics";

/// The [`COMMON`] flags as read from one command line, with
/// `TEMPEST_CACHE` as the implicit cache default.
struct CommonFlags {
    /// Worker count (0 = one per CPU, the default); analysis fan-out or
    /// serve workers. Results merge in input order, so any count renders
    /// byte-identical output.
    jobs: usize,
    /// Wall-clock analysis budget (`--deadline SECS`, 0 = none).
    /// `deadline()` turns it into an absolute cutoff at the point of use.
    budget: Option<Duration>,
    /// Print the self-metrics snapshot after the run.
    metrics: bool,
    /// `--no-cache` was passed — wins over `--cache` and the env var.
    no_cache: bool,
    /// Resolved cache directory (`--cache DIR`, else `TEMPEST_CACHE`),
    /// ignored when `no_cache` is set.
    cache_dir: Option<PathBuf>,
}

impl CommonFlags {
    fn parse(args: &Args) -> Result<CommonFlags, CliError> {
        Ok(CommonFlags {
            jobs: args.number("--jobs")?.unwrap_or(0),
            budget: args
                .number("--deadline")?
                .filter(|&s| s > 0)
                .map(Duration::from_secs),
            metrics: args.switch("--metrics"),
            no_cache: args.switch("--no-cache"),
            cache_dir: args
                .value("--cache")
                .map(str::to_string)
                .or_else(|| {
                    std::env::var("TEMPEST_CACHE")
                        .ok()
                        .filter(|v| !v.is_empty())
                })
                .map(PathBuf::from),
        })
    }

    /// The absolute deadline for an analysis starting now, if any.
    fn deadline(&self) -> Option<Instant> {
        self.budget.map(|budget| Instant::now() + budget)
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
            let snap = tempest_obs::global().snapshot();
            let _ = write!(out, "\nself-metrics:\n{}", tempest_obs::to_human(&snap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::live::render_watch_frame;
    use super::*;
    use tempest_sensors::SensorId;

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

    /// Whether `text` names `flag` as a whole word (`--metrics` is not
    /// named by `--metrics-addr`).
    fn names_flag(text: &str, flag: &str) -> bool {
        text.match_indices(flag).any(|(at, _)| {
            let next = text[at + flag.len()..].chars().next();
            !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    #[test]
    fn every_declared_flag_is_in_usage() {
        let (before, common_text) = USAGE.split_once(" share the common flags").unwrap();
        let sharers = before.split_whitespace().last().unwrap();
        for (name, declared, _) in COMMANDS {
            // The command's own lines: each `tempest NAME` line and the
            // indented lines that continue it.
            let mut own = String::new();
            let mut current = "";
            for line in USAGE.lines() {
                if let Some(rest) = line.strip_prefix("  tempest ") {
                    current = rest.split_whitespace().next().unwrap_or("");
                } else if !line.starts_with("      ") {
                    current = "";
                }
                if current == *name {
                    own.push_str(line);
                    own.push('\n');
                }
            }
            assert!(!own.is_empty(), "USAGE has no `tempest {name}` line");
            let shares = sharers.split('/').any(|s| s == *name);
            assert_eq!(declared.contains(&COMMON), shares, "{name}: common flags");
            for group in *declared {
                let text = if *group == COMMON { common_text } else { &own };
                for (flag, _) in args::flags(&[group]) {
                    assert!(flag.starts_with("--"), "{name} declares `{flag}`");
                    assert!(names_flag(text, flag), "USAGE lacks `{name} {flag}`");
                }
            }
        }
    }

    /// Per command, in `COMMANDS` order: the positionals it needs, the
    /// flags it requires, and the flags it reads as numbers.
    const GRAMMAR_CASES: &[(&str, &[&str], &[&str], &str)] = &[
        ("demo", &["cg"], &["--out", "never-created"], "--np"),
        ("record", &["a"], &[], ""),
        ("report", &["x.trace"], &[], "--jobs --deadline"),
        ("summary", &["x.trace"], &[], "--jobs --deadline"),
        ("doctor", &["x.trace"], &[], "--jobs --deadline"),
        ("plot", &["x.trace"], &[], "--sensor"),
        ("traits", &["x.trace"], &[], "--sensor"),
        ("callgraph", &["x.trace"], &[], ""),
        ("gprof", &["x.trace"], &[], ""),
        ("dump", &["x.trace"], &[], ""),
        ("sensors", &[], &[], ""),
        ("spool", &["recover", "x"], &[], ""),
        ("export", &["x.trace"], &[], "--jobs --deadline"),
        ("metrics", &["x.trace"], &[], "--jobs"),
        ("watch", &["x"], &[], "--interval --count"),
        ("fleet", &["x"], &[], "--interval --count"),
        (
            "collect",
            &["serve"],
            &["--out", "never-created", "--addr", "127.0.0.1:0"],
            "--once --max-frame-bytes --disk-budget --rate-limit --deadline",
        ),
        (
            "ship",
            &["x"],
            &["--to", "127.0.0.1:1"],
            "--retries --base-ms --cap-ms --seed",
        ),
        (
            "serve",
            &["x"],
            &[],
            "--once --rate-limit --rescan-ms --jobs --deadline",
        ),
    ];

    /// Every command refuses, with exit code 2 and the flag named, an
    /// undeclared flag, a value flag without its value, a repeated flag
    /// and a number that does not parse — before doing any work.
    #[test]
    fn every_command_refuses_malformed_flags() {
        let commands = COMMANDS.iter().map(|c| c.0);
        assert!(
            commands.eq(GRAMMAR_CASES.iter().map(|c| c.0)),
            "one case per command"
        );
        let refused = |args: Vec<&'static str>, message: String| {
            // A command that wrongly accepts its flags may run for good
            // (a daemon, a refresh loop): wait for it a bounded time.
            let (done, result) = std::sync::mpsc::channel();
            let argv = args.clone();
            std::thread::spawn(move || done.send(run(&argv).err()));
            let err = result.recv_timeout(std::time::Duration::from_secs(30));
            let err = err.ok().flatten();
            let err = err.unwrap_or_else(|| panic!("{args:?} was accepted"));
            assert_eq!(err.code, 2, "{args:?}: {}", err.message);
            assert!(err.message.contains(&message), "{args:?}: {}", err.message);
        };
        for ((name, declared, _), (_, positional, required, numbers)) in
            COMMANDS.iter().zip(GRAMMAR_CASES)
        {
            let line = |tail: &[&'static str]| [&[*name][..], positional, tail].concat();
            refused(
                line(&["--bogus"]),
                format!("{name}: unknown flag `--bogus`"),
            );
            for (f, takes_value) in args::flags(declared) {
                if takes_value {
                    refused(line(&[f]), format!("{name}: {f} needs a value"));
                    refused(line(&[f, "1", f, "1"]), format!("{name}: {f} given twice"));
                } else {
                    refused(line(&[f, f]), format!("{name}: {f} given twice"));
                }
            }
            for f in numbers.split_whitespace() {
                assert!(args::flags(declared).any(|d| d == (f, true)), "{name} {f}");
                refused(
                    [line(required), vec![f, "x"]].concat(),
                    format!("{name}: {f} `x`: "),
                );
            }
        }
        assert!(!Path::new("never-created").exists());
    }

    /// A misspelt flag, a value flag without its value, a repeated flag
    /// and a flag the command does not have are refused rather than run
    /// with a default, and a misspelt switch does not swallow the path
    /// after it.
    #[test]
    fn misspelt_missing_and_repeated_flags_are_refused() {
        let dir = temp_dir("grammar");
        run(&["demo", "micro-d", "--out", dir.to_str().unwrap()]).unwrap();
        let t = dir.join("micro-d-node0.trace");
        let t = t.to_str().unwrap();
        for (args, flag) in [
            (&["report", t, "--formt", "csv"][..], "--formt"),
            (&["report", t, "--format"], "--format"),
            (&["report", t, "--no-cahce"], "--no-cahce"),
            (&["report", t, "--jobs", "2", "--jobs", "4"], "--jobs"),
            (&["dump", t, "--jobs", "4"], "--jobs"),
            (&["report", "--recovr", t], "--recovr"),
        ] {
            let err = run(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} was accepted"));
            assert_eq!(err.code, 2, "{args:?}");
            assert!(err.message.contains(flag), "{args:?}: {}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
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

    /// Run a command line that must be refused on a helper thread, and
    /// fail after a deadline: a refresh loop that stopped checking its
    /// flags would redraw forever instead of hanging the test binary.
    fn refused_within_deadline(args: &[&str]) -> CliError {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (done, refused) = std::sync::mpsc::channel();
        let command = std::thread::spawn(move || {
            let args: Vec<&str> = owned.iter().map(String::as_str).collect();
            let _ = done.send(run(&args));
        });
        match refused.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(outcome) => {
                command.join().expect("the command line's thread");
                outcome.expect_err("a refused command line")
            }
            Err(_) => panic!("{args:?} still running after 10 s"),
        }
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
                let err = refused_within_deadline(&[verb, dir_s, flag, value]);
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
