//! Metric names, units and the result of one workload pass.
//!
//! `END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares;
//! a test keeps the two in step.

use crate::spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed on every workload with `--trace 0`. Each
/// is defined per workload in `LAYERS.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("answer_p50_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("probe.pair_ns", "ns"),
    ("probe.events", "count"),
    ("probe.flushes", "count"),
    ("probe.submit_wait_s", "s"),
    ("tempd.rounds", "count"),
    ("tempd.round_us", "us"),
    ("tempd.cpu_fraction", "ratio"),
    ("tempd.missed_reads", "count"),
    ("spool.append_s", "s"),
    ("spool.finish_s", "s"),
    ("spool.fsyncs", "count"),
    ("spool.bytes", "bytes"),
    ("spool.bytes_per_event", "bytes"),
    ("spool.segments", "count"),
    ("spool.events_dropped", "count"),
    ("spool.crc_mb_per_s", "MB/s"),
    ("ship.frames_sent", "count"),
    ("ship.frames_acked", "count"),
    ("ship.acked_ratio", "ratio"),
    ("ship.reconnects", "count"),
    ("ship.frame_rtt_us", "us"),
    ("ship.read_s", "s"),
    ("collect.frames", "count"),
    ("collect.dup_frames", "count"),
    ("collect.quarantined", "count"),
    ("collect.transit_p50_us", "us"),
    ("collect.transit_p99_us", "us"),
    ("spool.recover_s", "s"),
    ("spool.recover_frames", "count"),
    ("spool.frames_deduped", "count"),
    ("spool.torn_frames", "count"),
    ("capture.unexplained_s", "s"),
    ("engine.width", "count"),
    ("engine.read_s", "s"),
    ("engine.node_max_s", "s"),
    ("engine.node_median_s", "s"),
    ("cache.key_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("trace.decode_s", "s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("trace.decode_allocs", "count"),
    ("parser.validate_s", "s"),
    ("timeline.build_s", "s"),
    ("timeline.intervals", "count"),
    ("timeline.allocs", "count"),
    ("correlate.sweep_s", "s"),
    ("correlate.samples_per_s", "1/s"),
    ("correlate.allocs", "count"),
    ("correlate.attributed_ratio", "ratio"),
    ("profile.build_s", "s"),
    ("profile.functions", "count"),
    ("report.render_s", "s"),
    ("report.bytes", "bytes"),
    ("analyze.unexplained_s", "s"),
    ("http.requests", "count"),
    ("http.status_200", "count"),
    ("http.status_304", "count"),
    ("http.errors", "count"),
    ("http.connects", "count"),
    ("http.hotspots_p50_us", "us"),
    ("http.profile_p50_us", "us"),
    ("http.revalidate_p50_us", "us"),
    ("query.hotspots_p50_us", "us"),
    ("query.profile_p50_us", "us"),
    ("query.not_modified", "count"),
    ("query.catalog_scan_s", "s"),
    ("query.first_touch_s", "s"),
    ("cache.serve_hit_ratio", "ratio"),
    ("cache.serve_lookup_us", "us"),
    ("dto.profile_us", "us"),
    ("dto.hotspots_us", "us"),
    ("trace_overhead.setup_s", "s"),
    ("trace_overhead.throughput_per_s", "1/s"),
    ("trace_overhead.answer_p50_ms", "ms"),
    ("trace_overhead.peak_heap_mb", "MB"),
];

/// The end-to-end figures of one pass.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub answer_p50_ms: f64,
    pub peak_heap_mb: f64,
}

impl E2e {
    /// Value of the end-to-end metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "throughput_per_s" => self.throughput_per_s,
            "answer_p50_ms" => self.answer_p50_ms,
            "peak_heap_mb" => self.peak_heap_mb,
            _ => unreachable!("END_TO_END lists only these"),
        }
    }

    /// `(name, self, other)` for every end-to-end metric.
    pub fn pairs(&self, other: &E2e) -> Vec<(&'static str, f64, f64)> {
        END_TO_END
            .iter()
            .map(|(n, _)| (*n, self.get(n), other.get(n)))
            .collect()
    }
}

/// What one workload pass produced.
pub struct Outcome {
    /// Operations attempted (events, frames, node reports or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// Output checks that failed, with what was wrong.
    pub failures: Vec<String>,
    /// The contract's end-to-end figures.
    pub e2e: E2e,
    /// Human-readable lines: every end-to-end figure named in `LAYERS.md`.
    pub named: Vec<String>,
    /// Per-layer figures (traced passes only).
    pub layers: BTreeMap<String, f64>,
    /// Why a per-layer figure is approximate or missing.
    pub notes: Vec<String>,
    /// The benchmark's spans (empty unless traced).
    pub spans: Spans,
}

impl Outcome {
    /// An empty outcome; `traced` turns the span recorder on.
    pub fn new(traced: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed_ops: 0,
            failures: Vec::new(),
            e2e: E2e::default(),
            named: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
            spans: Spans::new(traced, Instant::now(), 0),
        }
    }

    /// Is this the traced pass?
    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.failures.len() as u64
    }

    /// Record an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Print a named end-to-end figure with its unit.
    pub fn name(&mut self, workload: &str, name: &str, value: f64, unit: &str, how: &str) {
        let mode = if self.traced() { "traced" } else { "untraced" };
        self.named.push(format!(
            "metric {workload} {mode} {name} = {value:.6} {unit} ({how})"
        ));
    }

    /// Print the median of `samples` as a named figure, with their
    /// interquartile spread within this run; returns the median.
    pub fn name_median(
        &mut self,
        workload: &str,
        name: &str,
        samples: &[f64],
        unit: &str,
        how: &str,
    ) -> f64 {
        let value = crate::stats::median(samples);
        let spread = crate::stats::relative_spread(samples)
            .map_or("n/a".to_string(), |s| format!("{:.1} %", s * 100.0));
        let how = format!("{how}; median of {}, spread {spread}", samples.len());
        self.name(workload, name, value, unit, &how);
        value
    }

    /// Report the memory figures every workload shares: the median over
    /// iterations of the most heap bytes live at once, and (by name only)
    /// the process's peak resident set, which glibc's per-thread arenas
    /// make too noisy to bound.
    pub fn memory(&mut self, workload: &str, heap_peaks: &[f64], iteration: &str) {
        let how = format!("most heap bytes live at once per {iteration}");
        self.e2e.peak_heap_mb = self.name_median(workload, "peak_heap_mb", heap_peaks, "MB", &how);
        let rss = crate::context::peak_rss_mb();
        self.name(
            workload,
            "peak_rss_mb",
            rss,
            "MB",
            "process high-water mark",
        );
    }

    /// Set a per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }
}

/// What `after` recorded since `before` (a snapshot of the same
/// histogram taken earlier, or `None` if it did not exist yet).
pub fn hist_delta(
    after: &tempest_obs::HistogramSnapshot,
    before: Option<&tempest_obs::HistogramSnapshot>,
) -> tempest_obs::HistogramSnapshot {
    let mut out = after.clone();
    if let Some(b) = before {
        out.count -= b.count;
        out.sum -= b.sum;
        for (bound, n) in &mut out.buckets {
            if let Some((_, m)) = b.buckets.iter().find(|(bb, _)| bb == bound) {
                *n -= m;
            }
        }
        out.buckets.retain(|(_, n)| *n > 0);
    }
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` over `declared`.
pub fn metrics_json(declared: &[(&str, &str)], value: impl Fn(&str) -> f64) -> String {
    let fields: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `{"key": {"k": raw, ...}}` with values already JSON-encoded.
pub fn json_object(key: &str, fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"{key}\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_obs::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn histogram_delta_keeps_only_what_came_after() {
        let h = tempest_obs::HistogramSnapshot {
            name: "x".to_string(),
            count: 4,
            sum: 0,
            buckets: vec![(1023, 2), (2047, 2)],
        };
        let before = tempest_obs::HistogramSnapshot {
            buckets: vec![(1023, 1)],
            count: 1,
            ..h.clone()
        };
        let d = hist_delta(&h, Some(&before));
        assert_eq!(
            (d.count, d.buckets.clone()),
            (3, vec![(1023, 1), (2047, 2)])
        );
    }

    #[test]
    fn metrics_json_never_emits_non_numbers() {
        let json = metrics_json(&[("a", "s"), ("b", "ms")], |n| {
            if n == "a" {
                1.5
            } else {
                f64::NAN
            }
        });
        let doc = Json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.get("a")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            doc.get("b")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
