//! Snapshot exporters: Prometheus text exposition, JSON (through
//! [`JsonWriter`]), and a human-readable table, plus the human-unit
//! formatting helpers the CLI reuses for things like backpressure drop
//! counters.

use crate::json::JsonWriter;
use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Formats a count with a metric-prefix suffix: `1234` → `"1.2 k"`.
pub fn human_count(n: u64) -> String {
    const UNITS: [(u64, &str); 3] = [(1_000_000_000, "G"), (1_000_000, "M"), (1_000, "k")];
    for (scale, suffix) in UNITS {
        if n >= scale {
            return format!("{:.1} {}", n as f64 / scale as f64, suffix);
        }
    }
    n.to_string()
}

/// Formats a nanosecond quantity with the natural time unit.
pub fn human_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Formats a byte quantity with binary units: `4096` → `"4.0 KiB"`.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [(u64, &str); 3] = [(1 << 30, "GiB"), (1 << 20, "MiB"), (1 << 10, "KiB")];
    for (scale, suffix) in UNITS {
        if n >= scale {
            return format!("{:.1} {}", n as f64 / scale as f64, suffix);
        }
    }
    format!("{n} B")
}

fn sanitize_prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders the snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` headers, cumulative `_bucket{le=...}`
/// series for histograms, `_sum` and `_count` companions.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize_prom_name(name);
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let name = sanitize_prom_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    }
    for h in &snap.histograms {
        let name = sanitize_prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(bound, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
    }
    out
}

/// Renders the snapshot as a pretty JSON document:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}, "spans": [...]}`.
pub fn to_json(snap: &Snapshot) -> String {
    let mut w = JsonWriter::pretty();
    write_snapshot(&mut w, snap);
    w.finish()
}

/// Writes the snapshot object into `w`: the one routine behind
/// [`to_json`] and each node's `metrics` in the fleet document.
pub fn write_snapshot(w: &mut JsonWriter, snap: &Snapshot) {
    w.begin_object();
    w.key("counters").begin_object();
    for (name, value) in &snap.counters {
        w.key(name).int(*value);
    }
    w.end_object();
    w.key("gauges").begin_object();
    for (name, value) in &snap.gauges {
        w.key(name).float(*value);
    }
    w.end_object();
    w.key("histograms").begin_object();
    for h in &snap.histograms {
        w.key(&h.name).begin_object();
        w.key("count").int(h.count);
        w.key("sum").int(h.sum);
        w.key("mean").float(h.mean());
        w.key("p50").int(h.quantile(0.5));
        w.key("p95").int(h.quantile(0.95));
        w.key("p99").int(h.quantile(0.99));
        w.key("buckets").begin_array();
        for &(bound, count) in &h.buckets {
            w.begin_array().int(bound).int(count).end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.key("spans").begin_array();
    for s in &snap.spans {
        w.begin_object();
        w.key("name").str(&s.name);
        w.key("start_ns").int(s.start_ns);
        w.key("dur_ns").int(s.dur_ns);
        w.key("thread").int(s.thread);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Renders the snapshot as an aligned human-readable table. Metric
/// names ending in `_ns` get time units; names ending in `_bytes` get
/// binary byte units; everything else gets metric-prefix counts.
pub fn to_human(snap: &Snapshot) -> String {
    let mut out = String::new();
    if snap.is_empty() {
        out.push_str("(no self-metrics recorded)\n");
        return out;
    }
    let fmt_value = |name: &str, v: u64| -> String {
        if name.ends_with("_ns") {
            human_ns(v)
        } else if name.ends_with("_bytes") || name.contains("_bytes_") {
            human_bytes(v)
        } else {
            human_count(v)
        }
    };
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.gauges.iter().map(|(n, _)| n.len()))
        .chain(snap.histograms.iter().map(|h| h.name.len()))
        .max()
        .unwrap_or(0);
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "  {name:<width$}  {}", fmt_value(name, *value));
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "  {name:<width$}  {value:.3}");
    }
    for h in &snap.histograms {
        let unit = |v: u64| fmt_value(&h.name, v);
        let _ = writeln!(
            out,
            "  {:<width$}  n={}  mean={}  p50={}  p95={}  p99={}",
            h.name,
            human_count(h.count),
            unit(h.mean() as u64),
            unit(h.quantile(0.5)),
            unit(h.quantile(0.95)),
            unit(h.quantile(0.99)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("spool_bytes_total").add(4096);
        reg.counter("probe_events_total").add(1_500_000);
        reg.gauge("tempd_quarantined_sensors").set(2.0);
        let h = reg.histogram("tempd_round_ns");
        h.record(10_000);
        h.record(2_000_000);
        reg.snapshot()
    }

    #[test]
    fn human_units() {
        assert_eq!(human_count(17), "17");
        assert_eq!(human_count(1234), "1.2 k");
        assert_eq!(human_count(2_500_000), "2.5 M");
        assert_eq!(human_ns(500), "500 ns");
        assert_eq!(human_ns(1_500), "1.50 µs");
        assert_eq!(human_ns(2_000_000), "2.00 ms");
        assert_eq!(human_ns(3_000_000_000), "3.00 s");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(4096), "4.0 KiB");
        assert_eq!(human_bytes(5 << 20), "5.0 MiB");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE probe_events_total counter"));
        assert!(text.contains("probe_events_total 1500000"));
        assert!(text.contains("# TYPE tempd_quarantined_sensors gauge"));
        assert!(text.contains("# TYPE tempd_round_ns histogram"));
        assert!(text.contains("tempd_round_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("tempd_round_ns_count 2"));
    }

    #[test]
    fn json_snapshot_parses_back() {
        let doc = to_json(&sample_snapshot());
        let v = Json::parse(&doc).expect("snapshot JSON must parse");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("probe_events_total")
                .unwrap()
                .as_f64(),
            Some(1_500_000.0)
        );
        let hist = v.get("histograms").unwrap().get("tempd_round_ns").unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
        // All three quantile estimates ride along and order sanely.
        let p50 = hist.get("p50").unwrap().as_f64().unwrap();
        let p95 = hist.get("p95").unwrap().as_f64().unwrap();
        let p99 = hist.get("p99").unwrap().as_f64().unwrap();
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
    }

    #[test]
    fn human_table_uses_units() {
        let text = to_human(&sample_snapshot());
        assert!(text.contains("probe_events_total"));
        assert!(text.contains("1.5 M"));
        assert!(text.contains("4.0 KiB"));
        assert!(text.contains("tempd_round_ns"));
        assert!(text.contains("p95="), "{text}");
    }
}
