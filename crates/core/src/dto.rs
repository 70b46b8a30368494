//! Versioned JSON documents — one schema for every consumer.
//!
//! `tempest report`/`export --format json` and `tempest serve`'s
//! `/api/v1/sessions/*` answers are the same bytes: each document here is
//! a borrowed view whose `to_json()` writes the schema once, straight
//! from the analysed data through [`JsonWriter`] — compact, members in a
//! fixed order, fixed float precision, non-finite floats as `null`.
//! Every document carries [`DTO_VERSION`] under `"v"`. The golden tests
//! below and in `tests/query_api.rs` pin the bytes.

use crate::analysis::HotSpot;
use crate::profile::NodeProfile;
use tempest_obs::JsonWriter;

/// Version stamped into every document under `"v"`. Bump when any field
/// is renamed, removed, or changes meaning; adding fields is compatible.
pub const DTO_VERSION: u32 = 1;

/// One node's complete profile — the document behind
/// `tempest report --format json`, `tempest export --format json`, and
/// `GET /api/v1/sessions/{id}/profile`.
pub struct ProfileDto<'a> {
    profile: &'a NodeProfile,
}

impl<'a> ProfileDto<'a> {
    /// View an analysed profile as the v1 document.
    pub fn from_profile(profile: &'a NodeProfile) -> ProfileDto<'a> {
        ProfileDto { profile }
    }

    /// Serialize to the v1 JSON document; the address is hex text
    /// because JSON numbers lose precision past 2^53.
    pub fn to_json(&self) -> String {
        let p = self.profile;
        let q = &p.quality;
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("v").int(DTO_VERSION.into());
        w.key("node_id").int(p.node.node_id.into());
        w.key("hostname").str(&p.node.hostname);
        w.key("span_s").fixed(p.span_ns as f64 / 1e9, 6);
        w.key("sample_interval_ns");
        match p.sample_interval_ns {
            Some(ns) => w.int(ns),
            None => w.null(),
        };
        w.key("unattributed_samples")
            .int(p.unattributed_samples as u64);
        w.key("quality").begin_object();
        w.key("recovered").bool(q.recovered);
        w.key("events_dropped").int(q.events_dropped() as u64);
        w.key("events_lost_in_salvage")
            .int(q.events_lost_in_salvage);
        w.key("samples_lost_in_salvage")
            .int(q.samples_lost_in_salvage);
        w.key("gap_events").int(q.gap_events as u64);
        w.key("sensor_coverage").fixed(q.sensor_coverage, 3);
        w.key("limited").bool(q.was_limited());
        w.end_object();
        w.key("functions").begin_array();
        for f in &p.functions {
            w.begin_object();
            w.key("name").str(&f.func.name);
            w.key("address").str(&format!("{:#x}", f.func.address));
            w.key("inclusive_s").fixed(f.inclusive_secs(), 6);
            w.key("exclusive_s").fixed(f.exclusive_ns as f64 / 1e9, 6);
            w.key("calls").int(f.calls);
            w.key("significant").bool(f.significant);
            w.key("sensors").begin_array();
            for (sensor, s) in &f.thermal {
                w.begin_object();
                w.key("sensor").str(&sensor.to_string());
                w.key("count").int(s.count as u64);
                w.key("min").fixed(s.min, 2);
                w.key("avg").fixed(s.avg, 2);
                w.key("max").fixed(s.max, 2);
                w.key("sdv").fixed(s.sdv, 3);
                w.key("var").fixed(s.var, 3);
                w.key("med").fixed(s.med, 2);
                w.key("mod").fixed(s.mode, 2);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// The hot-spot ranking document —
/// `GET /api/v1/sessions/{id}/hotspots?top=N&sort=temp|time`.
pub struct HotspotsDto<'a> {
    session: &'a str,
    sort: &'a str,
    top: usize,
    spots: &'a [HotSpot],
}

impl<'a> HotspotsDto<'a> {
    /// View a ranking of `session` (sorted by `sort`: `"temp"` or
    /// `"time"`, `top` deep, best first) as the v1 document.
    pub fn from_hotspots(
        session: &'a str,
        sort: &'a str,
        top: usize,
        spots: &'a [HotSpot],
    ) -> HotspotsDto<'a> {
        HotspotsDto {
            session,
            sort,
            top,
            spots,
        }
    }

    /// Serialize to the v1 JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("v").int(DTO_VERSION.into());
        w.key("session").str(self.session);
        w.key("sort").str(self.sort);
        w.key("top").int(self.top as u64);
        w.key("spots").begin_array();
        for h in self.spots {
            w.begin_object();
            w.key("name").str(&h.name);
            w.key("avg_f").fixed(h.avg_f, 2);
            w.key("inclusive_s").fixed(h.inclusive_secs, 6);
            w.key("score").fixed(h.score, 3);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_obs::Json;

    #[test]
    fn hotspots_dto_parses_and_carries_version() {
        let spots = [HotSpot {
            name: "hot \"fn\"".into(),
            avg_f: 113.0,
            inclusive_secs: 60.0,
            score: 42.5,
        }];
        let dto = HotspotsDto::from_hotspots("demo-node0", "temp", 5, &spots);
        let v = Json::parse(&dto.to_json()).expect("valid json");
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("sort").unwrap().as_str(), Some("temp"));
        let spots = v.get("spots").unwrap().as_arr().unwrap();
        assert_eq!(spots[0].get("name").unwrap().as_str(), Some("hot \"fn\""));
    }

    /// A hand-built profile covering every value kind in the document:
    /// an escaped hostname, no sampling interval, a non-finite
    /// statistic, and an insignificant function without sensors.
    fn small_profile() -> NodeProfile {
        use crate::profile::{DataQuality, FunctionProfile};
        use crate::stats::Summary;
        use std::collections::BTreeMap;
        use tempest_probe::{FunctionDef, FunctionId, NodeMeta, ScopeKind};
        use tempest_sensors::SensorId;

        let summary = Summary {
            count: 3,
            min: 98.6,
            avg: 101.255,
            max: 104.0,
            sdv: f64::NAN,
            var: 2.0 / 3.0,
            med: 101.0,
            mode: 98.6,
        };
        let function =
            |id: u32, name: &str, inclusive_ns, exclusive_ns, calls, thermal| FunctionProfile {
                func: FunctionDef {
                    id: FunctionId(id),
                    name: name.into(),
                    address: 0x40_0000 + u64::from(id) * 0x10,
                    kind: ScopeKind::Function,
                },
                inclusive_ns,
                exclusive_ns,
                calls,
                significant: id == 0,
                thermal,
                thermal_exclusive: BTreeMap::new(),
            };
        let thermal = BTreeMap::from([
            (SensorId(0), summary),
            (
                SensorId(1),
                Summary {
                    count: 1,
                    sdv: 0.0,
                    var: 0.0,
                    ..summary
                },
            ),
        ]);
        NodeProfile {
            node: NodeMeta {
                node_id: 2,
                hostname: "rack \"a\"\\n0\tb".into(),
                sensors: Vec::new(),
            },
            functions: vec![
                function(0, "main", 2_500_000_000, 1_000_000_001, 1, thermal),
                function(1, "tiny \"fn\"", 1_234, 1_234, 7, BTreeMap::new()),
            ],
            span_ns: 2_500_000_001,
            sample_interval_ns: None,
            warnings: Vec::new(),
            unattributed_samples: 4,
            quality: DataQuality {
                recovered: true,
                events_dropped_unknown_func: 2,
                events_dropped_nonmonotonic: 1,
                events_lost_in_salvage: 5,
                samples_lost_in_salvage: 6,
                gap_events: 3,
                sensor_coverage: 0.8125,
                deadline_hit: true,
                ..DataQuality::default()
            },
        }
    }

    #[test]
    fn profile_document_bytes_are_pinned() {
        let doc = ProfileDto::from_profile(&small_profile()).to_json();
        let expected = concat!(
            r#"{"v":1,"node_id":2,"hostname":"rack \"a\"\\n0\tb","span_s":2.500000,"#,
            r#""sample_interval_ns":null,"unattributed_samples":4,"#,
            r#""quality":{"recovered":true,"events_dropped":3,"events_lost_in_salvage":5,"#,
            r#""samples_lost_in_salvage":6,"gap_events":3,"sensor_coverage":0.812,"limited":true},"#,
            r#""functions":[{"name":"main","address":"0x400000","inclusive_s":2.500000,"#,
            r#""exclusive_s":1.000000,"calls":1,"significant":true,"sensors":["#,
            r#"{"sensor":"sensor1","count":3,"min":98.60,"avg":101.25,"max":104.00,"#,
            r#""sdv":null,"var":0.667,"med":101.00,"mod":98.60},"#,
            r#"{"sensor":"sensor2","count":1,"min":98.60,"avg":101.25,"max":104.00,"#,
            r#""sdv":0.000,"var":0.000,"med":101.00,"mod":98.60}]},"#,
            r#"{"name":"tiny \"fn\"","address":"0x400010","inclusive_s":0.000001,"#,
            r#""exclusive_s":0.000001,"calls":7,"significant":false,"sensors":[]}]}"#,
            "\n"
        );
        assert_eq!(doc, expected);
    }

    #[test]
    fn hotspots_document_bytes_are_pinned() {
        let spots = [
            HotSpot {
                name: "hot \"fn\"".into(),
                avg_f: 113.0,
                inclusive_secs: 60.0,
                score: 42.5,
            },
            HotSpot {
                name: "cool".into(),
                avg_f: 98.123456,
                inclusive_secs: 0.000_000_5,
                score: f64::NAN,
            },
        ];
        let doc = HotspotsDto::from_hotspots("run-node0", "temp", 5, &spots).to_json();
        let expected = concat!(
            r#"{"v":1,"session":"run-node0","sort":"temp","top":5,"spots":["#,
            r#"{"name":"hot \"fn\"","avg_f":113.00,"inclusive_s":60.000000,"score":42.500},"#,
            r#"{"name":"cool","avg_f":98.12,"inclusive_s":0.000000,"score":null}]}"#,
            "\n"
        );
        assert_eq!(doc, expected);
        let none = HotspotsDto::from_hotspots("empty-node1", "time", 3, &[]).to_json();
        assert_eq!(
            none,
            "{\"v\":1,\"session\":\"empty-node1\",\"sort\":\"time\",\"top\":3,\"spots\":[]}\n"
        );
    }
}
