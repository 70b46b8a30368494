//! Chrome `trace_event` / Perfetto export of a reconstructed trace.
//!
//! Emits the JSON Object Format of the Trace Event specification, which
//! both `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly:
//!
//! - every reconstructed [`Interval`](crate::Interval) becomes a
//!   complete duration event (`"ph": "X"`) on its thread's track;
//! - every temperature sample becomes a counter event (`"ph": "C"`),
//!   one counter track per sensor;
//! - every sensor gap marker becomes an instant event (`"ph": "i"`);
//! - process/thread names are declared with metadata events
//!   (`"ph": "M"`).
//!
//! Timestamps are microseconds with nanosecond resolution kept in the
//! fractional part. Duration events are emitted in timeline order
//! (sorted by start time), so `ts` is monotonically non-decreasing
//! within every thread track — a property the golden-file test and the
//! ci.sh schema check both enforce.

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::parser::FunctionIndex;
use crate::timeline::Timeline;
use tempest_obs::JsonWriter;
use tempest_probe::{Event, EventKind, Trace};

/// Wraps the records in the constant `trace_event` envelope both exports
/// share, one record per line; `other_data` is the `otherData` object.
fn envelope(other_data: &str, records: &[String]) -> String {
    let last_break = if records.is_empty() { "" } else { "\n" };
    format!(
        "{{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {other_data},\n\"traceEvents\": [\n{}{last_break}]}}\n",
        records.join(",\n")
    )
}

/// One compact record: an object whose members `members` writes.
fn record(members: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    members(&mut w);
    w.end_object();
    w.into_string()
}

/// A metadata record naming a process, or one of its threads.
fn name_record(pid: u64, tid: Option<u64>, name: &str) -> String {
    record(|w| {
        w.key("name").str(match tid {
            Some(_) => "thread_name",
            None => "process_name",
        });
        w.key("ph").str("M");
        w.key("pid").int(pid);
        if let Some(tid) = tid {
            w.key("tid").int(tid);
        }
        w.key("args").begin_object();
        w.key("name").str(name);
        w.end_object();
    })
}

/// A complete duration event (`"ph": "X"`), timestamps in microseconds
/// with the nanoseconds kept exactly; `args` writes its `args` members.
fn duration_record(
    name: &str,
    cat: &str,
    start_ns: u64,
    dur_ns: u64,
    pid: u64,
    tid: u64,
    args: impl FnOnce(&mut JsonWriter),
) -> String {
    record(|w| {
        w.key("name").str(name);
        w.key("cat").str(cat);
        w.key("ph").str("X");
        w.key("ts").scaled(start_ns, 3);
        w.key("dur").scaled(dur_ns, 3);
        w.key("pid").int(pid);
        w.key("tid").int(tid);
        w.key("args").begin_object();
        args(w);
        w.end_object();
    })
}

/// Renders `trace` as a Chrome `trace_event` JSON document.
///
/// The reconstructed function timeline is computed internally with
/// [`Timeline::build`]; salvage is not required — a partially decoded
/// trace exports whatever intervals survive.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let timeline = Timeline::build(&trace.events);
    let pid = u64::from(trace.node.node_id);

    // Process + thread naming metadata.
    let process = format!("tempest node {pid} ({})", trace.node.hostname);
    let mut records = vec![name_record(pid, None, &process)];
    let mut tids: BTreeSet<u32> = timeline.intervals.iter().map(|iv| iv.thread.0).collect();
    for event in &trace.events {
        if matches!(event.kind, EventKind::Gap { .. }) {
            tids.insert(event.thread.0);
        }
    }
    for &tid in &tids {
        let name = if tid == Event::TEMPD_THREAD.0 {
            "tempd".to_string()
        } else {
            format!("thread {tid}")
        };
        records.push(name_record(pid, Some(tid.into()), &name));
    }

    // Function intervals as complete duration events. `timeline.intervals`
    // is sorted by (start_ns, depth), so each thread's subsequence has
    // non-decreasing ts. Names resolve through one index of the table, as
    // `Trace::function_name` would resolve them.
    let index = FunctionIndex::new(&trace.functions);
    for iv in &timeline.intervals {
        let name = match index.position(iv.func) {
            Some(at) => Cow::Borrowed(trace.functions[at].name.as_str()),
            None => Cow::Owned(format!("fn#{}", iv.func.0)),
        };
        let args = |w: &mut JsonWriter| {
            w.key("depth").int(iv.depth as u64);
            if iv.truncated {
                w.key("truncated").bool(true);
            }
        };
        let (start, dur, tid) = (iv.start_ns, iv.duration_ns(), iv.thread.0.into());
        records.push(duration_record(
            &name, "function", start, dur, pid, tid, args,
        ));
    }

    // Temperature samples as one counter track per sensor; a non-finite
    // reading has no JSON number and is written as `null`.
    let sensor_label = |id: u16| -> String {
        trace
            .node
            .sensors
            .iter()
            .find(|s| s.id.0 == id)
            .map_or_else(|| format!("sensor#{id}"), |s| s.label.clone())
    };
    for sample in &trace.samples {
        let name = format!("temp {}", sensor_label(sample.sensor.0));
        records.push(record(|w| {
            w.key("name").str(&name);
            w.key("ph").str("C");
            w.key("pid").int(pid);
            w.key("tid").int(0);
            w.key("ts").scaled(sample.timestamp_ns, 3);
            w.key("args").begin_object();
            w.key("celsius").fixed(sample.temperature.celsius(), 3);
            w.end_object();
        }));
    }

    // Sensor gaps (quarantine / failed reads) as instant events.
    for event in &trace.events {
        if let EventKind::Gap { sensor } = event.kind {
            let name = format!("gap {}", sensor_label(sensor.0));
            records.push(record(|w| {
                w.key("name").str(&name);
                w.key("ph").str("i");
                w.key("s").str("t");
                w.key("pid").int(pid);
                w.key("tid").int(event.thread.0.into());
                w.key("ts").scaled(event.timestamp_ns, 3);
            }));
        }
    }

    envelope(r#"{"tool": "tempest"}"#, &records)
}

/// Renders the cross-node frame-latency view as a Chrome `trace_event`
/// document: one process per node, whose single `ship→collect` track
/// holds a complete duration event per shipped frame spanning from its
/// spool-append origin stamp to its collector receipt stamp.
///
/// `nodes` pairs a display name (typically the collected session
/// directory name) with the [`FrameTrace`]s recovered from that
/// session's spool. Timestamps are wall-clock stamps from two machines;
/// they are re-based to the earliest origin across all nodes so the
/// view starts at zero, and frames whose collect stamp precedes their
/// origin stamp (clock skew) are drawn with zero duration rather than
/// dropped.
///
/// [`FrameTrace`]: tempest_probe::spool::FrameTrace
pub fn chrome_fleet_trace_json(
    nodes: &[(String, Vec<tempest_probe::spool::FrameTrace>)],
) -> String {
    let base = nodes
        .iter()
        .flat_map(|(_, traces)| traces.iter().map(|t| t.origin_unix_ns))
        .min()
        .unwrap_or(0);
    let mut records = Vec::new();
    for (pid, (name, traces)) in (0u64..).zip(nodes) {
        records.push(name_record(pid, None, name));
        records.push(name_record(pid, Some(0), "ship→collect"));
        let mut sorted: Vec<_> = traces.iter().collect();
        sorted.sort_by_key(|t| t.origin_unix_ns);
        for t in sorted {
            let transit_ns = t.transit_ns().unwrap_or(0);
            let name = format!("frame seg{} off{}", t.seg, t.off);
            let start = t.origin_unix_ns.saturating_sub(base);
            let args = |w: &mut JsonWriter| {
                w.key("origin_unix_ns").int(t.origin_unix_ns);
                w.key("collect_unix_ns").int(t.collect_unix_ns);
                w.key("transit_ns").int(transit_ns);
            };
            records.push(duration_record(
                &name, "ship", start, transit_ns, pid, 0, args,
            ));
        }
    }
    envelope(
        r#"{"tool": "tempest", "view": "fleet frame latency"}"#,
        &records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_obs::Json;
    use tempest_probe::{TraceGenerator, TraceSpec};

    #[test]
    fn export_is_valid_json_with_expected_shapes() {
        let spec = TraceSpec {
            events: 2_000,
            threads: 3,
            sensors: 2,
            ..TraceSpec::default()
        };
        let trace = TraceGenerator::new(spec).generate(0);
        let doc = chrome_trace_json(&trace);
        let parsed = Json::parse(&doc).expect("export must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let durations = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        let counters = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .count();
        let timeline = Timeline::build(&trace.events);
        assert_eq!(durations, timeline.intervals.len());
        assert_eq!(counters, trace.samples.len());
    }

    #[test]
    fn fleet_track_spans_origin_to_collect() {
        use tempest_probe::spool::FrameTrace;
        let nodes = vec![
            (
                "run-node0".to_string(),
                vec![
                    FrameTrace {
                        seg: 0,
                        off: 40,
                        origin_unix_ns: 1_000_000,
                        collect_unix_ns: 1_250_000,
                    },
                    // Clock skew: collect stamp behind origin.
                    FrameTrace {
                        seg: 0,
                        off: 90,
                        origin_unix_ns: 2_000_000,
                        collect_unix_ns: 1_900_000,
                    },
                ],
            ),
            (
                "run-node1".to_string(),
                vec![FrameTrace {
                    seg: 1,
                    off: 40,
                    origin_unix_ns: 1_500_000,
                    collect_unix_ns: 1_600_000,
                }],
            ),
        ];
        let doc = chrome_fleet_trace_json(&nodes);
        let parsed = Json::parse(&doc).expect("fleet track must be valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 3);
        // Re-based to the earliest origin (1ms): the first frame starts
        // at ts 0 and spans its 250µs transit.
        assert_eq!(spans[0].get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("dur").unwrap().as_f64(), Some(250.0));
        // The skewed frame survives with zero duration.
        assert_eq!(spans[1].get("dur").unwrap().as_f64(), Some(0.0));
        // Two process_name records, one per node.
        let names = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .count();
        assert_eq!(names, 2);
    }

    #[test]
    fn timestamp_keeps_nanosecond_fraction() {
        let ts = |ns| duration_record("f", "function", ns, ns, 0, 0, |_| {});
        assert!(ts(1_234_567).contains(r#""ts":1234.567,"dur":1234.567,"#));
        assert!(ts(999).contains(r#""ts":0.999,"#));
        assert!(ts(1_000).contains(r#""ts":1.000,"#));
    }
}
