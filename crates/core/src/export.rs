//! Machine-readable profile exports.
//!
//! Figure 1's caption: "By default, Tempest writes data to the standard
//! output, but data can be dumped to a file in a variety of formats."
//! Two formats here: a flat CSV (one row per function×sensor, trivially
//! loadable into anything) and a line-oriented key/value format that
//! round-trips the numeric content for scripting.

use crate::profile::NodeProfile;
use std::fmt::Write as _;

/// One row per (function, sensor): the seven statistics plus timing.
pub fn profile_to_csv(profile: &NodeProfile) -> String {
    let mut out = String::from(
        "node,function,inclusive_s,exclusive_s,calls,significant,sensor,count,min_f,avg_f,max_f,sdv_f,var_f,med_f,mod_f\n",
    );
    for f in &profile.functions {
        if f.thermal.is_empty() {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{},{},,,,,,,,,",
                profile.node.node_id,
                escape(&f.func.name),
                f.inclusive_secs(),
                f.exclusive_ns as f64 / 1e9,
                f.calls,
                f.significant
            );
        }
        for (sensor, s) in &f.thermal {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{},{},{},{},{:.2},{:.2},{:.2},{:.3},{:.3},{:.2},{:.2}",
                profile.node.node_id,
                escape(&f.func.name),
                f.inclusive_secs(),
                f.exclusive_ns as f64 / 1e9,
                f.calls,
                f.significant,
                sensor,
                s.count,
                s.min,
                s.avg,
                s.max,
                s.sdv,
                s.var,
                s.med,
                s.mode
            );
        }
    }
    out
}

/// Line-oriented `key value` export, one stanza per function — easy to
/// grep/awk, stable field order.
pub fn profile_to_kv(profile: &NodeProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "node {}", profile.node.node_id);
    let _ = writeln!(out, "hostname {}", profile.node.hostname);
    let _ = writeln!(out, "span_s {:.6}", profile.span_ns as f64 / 1e9);
    if let Some(dt) = profile.sample_interval_ns {
        let _ = writeln!(out, "sample_interval_s {:.3}", dt as f64 / 1e9);
    }
    for f in &profile.functions {
        let _ = writeln!(out, "function {}", f.func.name);
        let _ = writeln!(out, "  address {:#x}", f.func.address);
        let _ = writeln!(out, "  inclusive_s {:.6}", f.inclusive_secs());
        let _ = writeln!(out, "  exclusive_s {:.6}", f.exclusive_ns as f64 / 1e9);
        let _ = writeln!(out, "  calls {}", f.calls);
        let _ = writeln!(out, "  significant {}", f.significant);
        for (sensor, s) in &f.thermal {
            let _ = writeln!(
                out,
                "  {} min {:.2} avg {:.2} max {:.2} sdv {:.3} var {:.3} med {:.2} mod {:.2} n {}",
                sensor, s.min, s.avg, s.max, s.sdv, s.var, s.med, s.mode, s.count
            );
        }
    }
    out
}

/// GitHub-flavoured markdown table (one table per function) — the report
/// as it would appear in a lab notebook or issue tracker.
pub fn profile_to_markdown(profile: &NodeProfile) -> String {
    let mut out = format!(
        "## Tempest profile — node {} ({}), {:.3} s\n\n",
        profile.node.node_id,
        profile.node.hostname,
        profile.span_ns as f64 / 1e9
    );
    for f in &profile.functions {
        let _ = writeln!(
            out,
            "### `{}` — {:.6} s inclusive, {} call(s)\n",
            f.func.name,
            f.inclusive_secs(),
            f.calls
        );
        if !f.significant {
            let _ = writeln!(
                out,
                "_below the sampling interval; no thermal statistics_\n"
            );
            continue;
        }
        let _ = writeln!(out, "| sensor | min | avg | max | sdv | var | med | mod |");
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for (sensor, s) in &f.thermal {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
                sensor, s.min, s.avg, s.max, s.sdv, s.var, s.med, s.mode
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// The versioned v1 JSON document, written by [`crate::dto::ProfileDto`]
/// — the same bytes `tempest serve` answers on
/// `/api/v1/sessions/{id}/profile`, so a file export and an API response
/// are byte-identical.
pub fn profile_to_json(profile: &NodeProfile) -> String {
    crate::dto::ProfileDto::from_profile(profile).to_json()
}

fn escape(name: &str) -> String {
    if name.contains(',') || name.contains('"') {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate;
    use crate::profile::build_profiles;
    use crate::timeline::Timeline;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_probe::trace::NodeMeta;
    use tempest_sensors::{SensorId, SensorReading, Temperature};

    fn profile() -> NodeProfile {
        let sec = 1_000_000_000u64;
        let events = vec![
            Event::enter(0, ThreadId(0), FunctionId(0)),
            Event::exit(10 * sec, ThreadId(0), FunctionId(0)),
        ];
        let defs = vec![FunctionDef {
            id: FunctionId(0),
            name: "main,with(comma)".into(),
            address: 0x400000,
            kind: ScopeKind::Function,
        }];
        let tl = Timeline::build(&events);
        let samples: Vec<SensorReading> = (0..40)
            .map(|i| {
                SensorReading::new(
                    SensorId(0),
                    i * 250_000_000,
                    Temperature::from_celsius(40.0),
                )
            })
            .collect();
        let corr = correlate(&tl, &samples);
        build_profiles(NodeMeta::anonymous(), &defs, &tl, &corr, &samples)
    }

    #[test]
    fn csv_has_header_and_quoted_names() {
        let csv = profile_to_csv(&profile());
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("node,function,"));
        let row = lines.next().unwrap();
        assert!(row.contains("\"main,with(comma)\""));
        assert!(row.contains("104.00")); // 40 °C avg
                                         // Header columns == row columns (quotes protect the comma).
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 15);
    }

    #[test]
    fn kv_round_trips_the_numbers() {
        let kv = profile_to_kv(&profile());
        assert!(kv.contains("span_s 10.000000"));
        assert!(kv.contains("inclusive_s 10.000000"));
        assert!(kv.contains("sensor1 min 104.00 avg 104.00"));
        assert!(kv.contains("sample_interval_s 0.250"));
    }

    #[test]
    fn markdown_contains_tables_and_headers() {
        let md = profile_to_markdown(&profile());
        assert!(md.starts_with("## Tempest profile"));
        assert!(md.contains("| sensor | min |"));
        assert!(md.contains("104.00"));
        assert!(md.contains("### `main,with(comma)`"));
    }

    #[test]
    fn json_export_is_the_versioned_dto() {
        let json = profile_to_json(&profile());
        let v = tempest_obs::Json::parse(&json).expect("valid json");
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.0));
        let funcs = v.get("functions").unwrap().as_arr().unwrap();
        assert_eq!(
            funcs[0].get("name").unwrap().as_str(),
            Some("main,with(comma)")
        );
        let sensors = funcs[0].get("sensors").unwrap().as_arr().unwrap();
        assert_eq!(sensors[0].get("avg").unwrap().as_f64(), Some(104.0));
    }

    #[test]
    fn insignificant_functions_emit_a_row_too() {
        // Force insignificance via a huge interval override.
        let p = {
            let mut p = profile();
            for f in &mut p.functions {
                f.significant = false;
                f.thermal.clear();
            }
            p
        };
        let csv = profile_to_csv(&p);
        assert_eq!(csv.lines().count(), 2, "header + one timing-only row");
        assert!(csv.lines().nth(1).unwrap().contains("false"));
    }
}
