//! The `analyze` workload: a seeded cluster of trace files rendered as
//! text reports on an auto-width engine, once without a cache and once
//! against the cache a filling pass stored, repeated for the run's length.
//!
//! Without a cache nearly all the work is decode, the parser walk,
//! timeline, correlate, profile and render. With the cache the content
//! key (a CRC over every input byte) and the lookup dominate. So a change
//! to the analysis kernels and a change to the cache each get one pass
//! that shows it and one that does not.

use crate::count_allocs;
use crate::metrics::Outcome;
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use tempest_core::cache::{AnalysisCache, CacheKey};
use tempest_core::correlate::correlate_with;
use tempest_core::profile::build_profiles;
use tempest_core::{report, AnalysisRequest, Engine, Timeline};
use tempest_probe::Trace;

/// Engine width the CLI uses by default (`--jobs 0`: one per CPU).
const AUTO_JOBS: usize = 0;
const FORMAT: &str = "text";
/// Set-ups before the first pass and between passes: each is tens of
/// microseconds, so take many, spread over the run.
const SETUPS_AT_START: usize = 40;
const SETUPS_PER_ROUND: usize = 8;

/// Render every path through the engine, as `tempest report` does.
fn pass(
    engine: &Engine,
    cache: Option<&AnalysisCache>,
    paths: &[String],
) -> Vec<Result<String, String>> {
    AnalysisRequest::new().render_on(engine, cache, paths, FORMAT, report::render_stdout)
}

pub fn run(work: &Path, seed: u64, seconds: f64, out: &mut Outcome) {
    // ---- inputs (not timed): the cluster as files, and the reference
    // report of every node computed outside the engine.
    let dir = work.join("traces");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let mut paths = Vec::new();
    let mut reference = Vec::new();
    let mut events = 0usize;
    for node in 0..crate::inputs::CLUSTER_NODES {
        let t = &crate::inputs::analyze_node(seed, node);
        let p = dir.join(format!("node{}.trace", t.node.node_id));
        t.save(&p).expect("write trace file");
        paths.push(p.to_string_lossy().into_owned());
        events += t.events.len();
        let expected = AnalysisRequest::new()
            .analyze_trace(t)
            .map(|p| report::render_stdout(&p));
        reference.push(expected.map_err(|e| e.to_string()));
    }
    let cache_dir = work.join("cache");

    // ---- set-up, repeated: the median is reported.
    let mut setups = Vec::new();
    let mut setup = || {
        let t = Instant::now();
        let engine = Engine::new(AUTO_JOBS);
        let cache = AnalysisCache::open(&cache_dir);
        setups.push(t.elapsed().as_secs_f64());
        (engine, cache.expect("open analysis cache"))
    };
    for _ in 0..SETUPS_AT_START {
        black_box(setup());
    }
    let (engine, cache) = setup();

    // Fill the cache once; every later cached pass hits it.
    let fill = out
        .spans
        .time("engine.fill_pass", || pass(&engine, Some(&cache), &paths));
    check_pass(out, "fill pass", &fill, &reference);

    let obs = tempest_obs::global();
    let (hits0, misses0) = (
        obs.counter("cache_hits_total").get(),
        obs.counter("cache_misses_total").get(),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut uncached, mut cached, mut unexplained, mut nodes_seen) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut replays: Vec<NodeReplay> = Vec::new();
    let mut heap = Vec::new();
    let mut round = 0u64;
    while Instant::now() < deadline || uncached.len() < 3 {
        for _ in 0..SETUPS_PER_ROUND {
            black_box(setup());
        }
        out.spans.set_run(round);
        crate::reset_peak_heap();
        let t = Instant::now();
        let plain = out
            .spans
            .time("engine.uncached_pass", || pass(&engine, None, &paths));
        let plain_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let hit = out
            .spans
            .time("engine.cached_pass", || pass(&engine, Some(&cache), &paths));
        let hit_s = t.elapsed().as_secs_f64();
        heap.push(crate::peak_heap_mb());
        uncached.push(plain_s);
        cached.push(hit_s);
        out.attempted += 2 * paths.len() as u64;
        out.failed_ops += plain.iter().chain(&hit).filter(|r| r.is_err()).count() as u64;
        check_pass(out, "uncached pass", &plain, &reference);
        out.check(hit == plain, || {
            format!("round {round}: cached pass differs from the uncached pass")
        });
        nodes_seen += paths.len();
        if out.traced() {
            let nodes: Vec<NodeReplay> = paths
                .iter()
                .map(|p| replay_node(p, &cache, work, out))
                .collect();
            let makespan = schedule(
                &nodes.iter().map(|n| n.pipeline_s()).collect::<Vec<_>>(),
                engine.width(),
            );
            unexplained.push(plain_s - makespan);
            replays.extend(nodes);
        }
        round += 1;
    }
    let (hits, misses) = (
        obs.counter("cache_hits_total").get() - hits0,
        obs.counter("cache_misses_total").get() - misses0,
    );

    let w = "analyze";
    let how = format!("{} nodes, {events} scope events", paths.len());
    out.e2e.setup_s = out.name_median(
        w,
        "setup_s",
        &setups,
        "s",
        "Engine::new + AnalysisCache::open",
    );
    let rates: Vec<f64> = uncached.iter().map(|s| events as f64 / s).collect();
    out.e2e.throughput_per_s = out.name_median(w, "analyze_events_per_s", &rates, "events/s", &how);
    out.e2e.answer_p50_ms = out.name_median(w, "cached_report_s", &cached, "s", &how) * 1e3;
    out.memory(w, &heap, "round of one uncached and one cached pass");

    if out.traced() {
        let n = replays.len().max(1) as f64;
        let per_pass =
            |f: fn(&NodeReplay) -> f64| replays.iter().map(f).sum::<f64>() / round.max(1) as f64;
        let node_times: Vec<f64> = replays.iter().map(NodeReplay::pipeline_s).collect();
        let bytes: f64 = per_pass(|r| r.bytes as f64);
        let samples: f64 = per_pass(|r| r.samples as f64);
        let decode_s = per_pass(|r| r.decode_s);
        let correlate_s = per_pass(|r| r.correlate_s);
        let layers = [
            ("engine.width", engine.width() as f64),
            ("engine.read_s", per_pass(|r| r.read_s)),
            (
                "engine.node_max_s",
                node_times.iter().copied().fold(0.0, f64::max),
            ),
            ("engine.node_median_s", median(&node_times)),
            ("cache.key_s", per_pass(|r| r.key_s)),
            ("cache.lookup_s", per_pass(|r| r.lookup_s)),
            ("cache.store_s", per_pass(|r| r.store_s)),
            ("cache.hits", hits as f64),
            ("cache.misses", misses as f64),
            (
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("trace.decode_s", decode_s),
            ("trace.decode_mb_per_s", bytes / 1e6 / decode_s),
            ("trace.decode_allocs", per_pass(|r| r.decode_allocs as f64)),
            ("parser.validate_s", per_pass(|r| r.validate_s)),
            ("timeline.build_s", per_pass(|r| r.timeline_s)),
            ("timeline.intervals", per_pass(|r| r.intervals as f64)),
            ("timeline.allocs", per_pass(|r| r.timeline_allocs as f64)),
            ("correlate.sweep_s", correlate_s),
            ("correlate.samples_per_s", samples / correlate_s),
            ("correlate.allocs", per_pass(|r| r.correlate_allocs as f64)),
            (
                "correlate.attributed_ratio",
                per_pass(|r| r.attributed as f64) / samples.max(1.0),
            ),
            ("profile.build_s", per_pass(|r| r.profile_s)),
            ("profile.functions", per_pass(|r| r.functions as f64)),
            ("report.render_s", per_pass(|r| r.render_s)),
            ("report.bytes", per_pass(|r| r.report_bytes as f64)),
            ("analyze.unexplained_s", median(&unexplained)),
        ];
        for (name, v) in layers {
            out.layer(name, v);
        }
        out.notes.push(format!(
            "analyze stage figures are per pass over all {} nodes, replayed outside the engine on one thread \
             ({} node replays); analyze.unexplained_s is the uncached pass minus the replayed node times \
             scheduled on {} workers",
            paths.len(),
            n,
            engine.width()
        ));
        out.notes.push(format!("{nodes_seen} node reports checked"));
    }
}

/// Every node's report must match the reference rendered outside the engine.
fn check_pass(
    out: &mut Outcome,
    what: &str,
    got: &[Result<String, String>],
    reference: &[Result<String, String>],
) {
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        out.check(g.is_ok() && g == r, || {
            format!("{what}: node {i} report differs from the reference")
        });
    }
}

/// One node's pipeline stages, each timed from outside.
#[derive(Default)]
struct NodeReplay {
    bytes: usize,
    samples: usize,
    read_s: f64,
    key_s: f64,
    lookup_s: f64,
    store_s: f64,
    decode_s: f64,
    decode_allocs: u64,
    validate_s: f64,
    timeline_s: f64,
    timeline_allocs: u64,
    intervals: usize,
    correlate_s: f64,
    correlate_allocs: u64,
    attributed: usize,
    profile_s: f64,
    functions: usize,
    render_s: f64,
    report_bytes: usize,
}

impl NodeReplay {
    /// The uncached pipeline: read, decode, analyze, render.
    fn pipeline_s(&self) -> f64 {
        self.read_s
            + self.decode_s
            + self.validate_s
            + self.timeline_s
            + self.correlate_s
            + self.profile_s
            + self.render_s
    }
}

/// Replay one node through each layer's public function, spanning every
/// stage. The stages inside `analyze_trace` (timeline, correlate, profile)
/// are re-run on their own; the parser's walk is the remainder.
fn replay_node(path: &str, cache: &AnalysisCache, work: &Path, out: &mut Outcome) -> NodeReplay {
    let mut r = NodeReplay::default();
    let sp = &mut out.spans;
    let node = sp.open("replay.node");
    let timed = |sp: &mut crate::spans::Spans, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        sp.time(name, f);
        t.elapsed().as_secs_f64()
    };
    let mut bytes = Vec::new();
    r.read_s = timed(sp, "engine.read", &mut || {
        bytes = std::fs::read(path).expect("read trace")
    });
    r.bytes = bytes.len();
    let options = AnalysisRequest::new().options();
    let mut key = None;
    r.key_s = timed(sp, "cache.key", &mut || {
        key = Some(CacheKey::new(&bytes, options, FORMAT))
    });
    let key = key.expect("key computed");
    r.lookup_s = timed(sp, "cache.lookup", &mut || {
        black_box(cache.lookup(&key));
    });
    let mut trace: Option<Trace> = None;
    r.decode_s = timed(sp, "trace.decode", &mut || {
        let (n, t) = count_allocs(|| Trace::decode(&bytes).expect("decode trace"));
        r.decode_allocs = n;
        trace = Some(t);
    });
    let trace = trace.expect("decoded");
    r.samples = trace.samples.len();
    let mut profile = None;
    let analyze_s = timed(sp, "parser.analyze_trace", &mut || {
        profile = Some(
            AnalysisRequest::new()
                .shards(1)
                .analyze_trace(&trace)
                .expect("analyze"),
        );
    });
    let mut timeline = None;
    r.timeline_s = timed(sp, "timeline.build", &mut || {
        let (n, t) = count_allocs(|| Timeline::build(&trace.events));
        r.timeline_allocs = n;
        timeline = Some(t);
    });
    let timeline = timeline.expect("built");
    r.intervals = timeline.intervals.len();
    let mut corr = None;
    r.correlate_s = timed(sp, "correlate.sweep", &mut || {
        let (n, c) = count_allocs(|| correlate_with(&timeline, &trace.samples, 1));
        r.correlate_allocs = n;
        corr = Some(c);
    });
    let corr = corr.expect("correlated");
    r.attributed = trace.samples.len() - corr.unattributed;
    let mut built = None;
    r.profile_s = timed(sp, "profile.build", &mut || {
        built = Some(build_profiles(
            trace.node.clone(),
            &trace.functions,
            &timeline,
            &corr,
            &trace.samples,
        ))
    });
    r.functions = built.map_or(0, |p| p.functions.len());
    r.validate_s = (analyze_s - r.timeline_s - r.correlate_s - r.profile_s).max(0.0);
    let profile = profile.expect("analyzed");
    let mut text = String::new();
    r.render_s = timed(sp, "report.render", &mut || {
        text = report::render_stdout(&profile)
    });
    r.report_bytes = text.len();
    let scratch = AnalysisCache::open(&work.join("store-replay")).expect("open scratch cache");
    r.store_s = timed(sp, "cache.store", &mut || {
        scratch.store(&key, &text).expect("store")
    });
    sp.close(node);
    r
}

/// Makespan of `jobs` run in order, each on the least-loaded of `width`
/// workers: what the slowest worker of an engine pass would take.
fn schedule(jobs: &[f64], width: usize) -> f64 {
    let mut workers = vec![0.0f64; width.max(1)];
    for j in jobs {
        let least = workers
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *least += j;
    }
    workers.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    #[test]
    fn schedule_is_bounded_by_the_slowest_job_and_the_mean_load() {
        assert_eq!(super::schedule(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(super::schedule(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        assert_eq!(super::schedule(&[1.0, 2.0], 1), 3.0);
    }
}
