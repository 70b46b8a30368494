//! Hostile-input hardening: decoders fed arbitrary and adversarial bytes
//! must fail with typed errors or bounded partial results — never a
//! panic, an over-budget allocation, or a hang — and the damage must
//! surface in `DataQuality` where the analysis pipeline reports it.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use tempest_core::limits::{CancelToken, DecodeLimits};
use tempest_core::{AnalysisOptions, AnalysisRequest};
use tempest_probe::spool::{self, SpoolConfig, SpoolWriter};
use tempest_probe::synth::{TraceGenerator, TraceSpec};
use tempest_probe::trace::{Trace, TraceError};
use tempest_probe::NodeMeta;

fn corpus_trace() -> Trace {
    TraceGenerator::new(TraceSpec {
        events: 2_000,
        duration_ns: 5_000_000_000,
        sample_interval_ns: 100_000_000,
        ..Default::default()
    })
    .generate(0)
}

/// Bytes actually retained by a decoded trace's bulk collections.
fn decoded_bytes(trace: &Trace) -> u64 {
    (trace.events.len() * std::mem::size_of::<tempest_probe::Event>()) as u64
        + (trace.samples.len() * std::mem::size_of::<tempest_sensors::SensorReading>()) as u64
}

/// A mutation plan applied to a valid byte stream: truncation point plus
/// a set of byte overwrites.
fn mutations() -> impl Strategy<Value = (usize, Vec<(usize, u16)>)> {
    (
        0usize..1_000_000,
        prop::collection::vec((0usize..1_000_000, 0u16..256), 0..24),
    )
}

fn apply(bytes: &mut Vec<u8>, truncate_at: usize, writes: &[(usize, u16)]) {
    if !bytes.is_empty() {
        let keep = truncate_at % (bytes.len() + 1);
        bytes.truncate(keep);
    }
    for &(at, value) in writes {
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] = value as u8;
        }
    }
}

proptest! {
    // `read_salvage` (the salvage decoder) on arbitrarily mutated trace
    // bytes: no panic, and nothing it returns exceeds the strict byte
    // budget.
    #[test]
    fn mutated_trace_bytes_never_panic_nor_blow_the_budget(
        (truncate_at, writes) in mutations()
    ) {
        let mut bytes = corpus_trace().to_bytes();
        apply(&mut bytes, truncate_at, &writes);
        let strict = DecodeLimits::strict();

        let mut cursor = std::io::Cursor::new(bytes.clone());
        let _ = Trace::read_salvage(&mut cursor); // default limits: must not panic

        if let Ok((trace, _)) =
            Trace::decode_salvage_with(&bytes, &strict, &CancelToken::default())
        {
            prop_assert!(
                decoded_bytes(&trace) <= strict.budget_bytes.saturating_mul(2),
                "decoded {} bytes against a {} byte budget",
                decoded_bytes(&trace),
                strict.budget_bytes
            );
        }
    }

    // `spool::recover` over a directory whose segment was arbitrarily
    // mutated: an error or a partial trace, never a panic.
    #[test]
    fn mutated_spool_segments_never_panic(
        (truncate_at, writes) in mutations()
    ) {
        let trace = corpus_trace();
        let base = std::env::temp_dir().join(format!(
            "tempest-hostile-{}-{truncate_at}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&base).ok();
        let cfg = SpoolConfig::new(&base);
        let mut w = SpoolWriter::create(&cfg, NodeMeta::anonymous()).unwrap();
        w.append_batch(&trace.events[..500]).unwrap();
        w.finish(&trace.functions, 0, 0).unwrap();

        for (_, path) in spool::list_segment_files(&base).unwrap() {
            let mut bytes = std::fs::read(&path).unwrap();
            apply(&mut bytes, truncate_at, &writes);
            std::fs::write(&path, &bytes).unwrap();
        }
        let _ = spool::recover(&base);
        let _ = spool::recover_with(&base, &DecodeLimits::strict(), &CancelToken::default());
        let _ = spool::fsck_dir(&base, &DecodeLimits::strict());
        std::fs::remove_dir_all(&base).ok();
    }
}

/// A crafted header declaring 2^31 functions is refused with a typed
/// `LimitExceeded` — long before any allocation of that size.
#[test]
fn hostile_declared_count_is_a_typed_limit_error() {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"TMPEST01");
    buf.extend_from_slice(&9u32.to_le_bytes()); // node_id
    buf.extend_from_slice(&1u16.to_le_bytes()); // hostname len
    buf.push(b'h');
    buf.extend_from_slice(&0u16.to_le_bytes()); // sensors
    buf.extend_from_slice(&(1u32 << 31).to_le_bytes()); // functions

    let err = Trace::decode_with(&buf, &DecodeLimits::strict(), &CancelToken::default())
        .expect_err("2^31 declared functions must not decode");
    assert!(matches!(err, TraceError::Limit(_)), "{err:?}");
}

/// A `LimitExceeded` recorded during salvage flows through analysis into
/// `DataQuality`, where `was_limited` and the Display line expose it.
#[test]
fn limit_overrun_surfaces_in_data_quality() {
    let trace = corpus_trace();
    let mut bytes = trace.to_bytes();
    // Give the decode a budget far below the trace's event volume.
    let tiny = DecodeLimits {
        budget_bytes: 4 * 1024,
        ..DecodeLimits::default()
    };
    let (partial, report) =
        Trace::decode_salvage_with(&bytes, &tiny, &CancelToken::default()).unwrap();
    let limit = report.limit.expect("budget overrun recorded");
    assert!(partial.events.len() < trace.events.len());

    let options = AnalysisOptions::recovering();
    let profile = AnalysisRequest::new()
        .with_options(options)
        .analyze_salvaged(&partial, Some(&report))
        .expect("partial analyzes");
    assert!(profile.quality.was_limited());
    assert_eq!(profile.quality.limit, Some(limit));
    let line = profile.quality.to_string();
    assert!(line.contains("stopped by limit"), "{line}");

    // Keep `bytes` mutable use meaningful: the same stream truncated by
    // one byte still salvages under the tiny budget without panicking.
    bytes.pop();
    let _ = Trace::decode_salvage_with(&bytes, &tiny, &CancelToken::default());
}

/// A deadline that expires mid-analysis still renders partial results:
/// the walk stops, the quality line says so, and nothing hangs.
#[test]
fn expired_deadline_still_renders_partial_results() {
    let trace = corpus_trace();
    let options = AnalysisOptions {
        recover: true,
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..Default::default()
    };
    let started = Instant::now();
    let profile = AnalysisRequest::new()
        .with_options(options)
        .analyze_trace(&trace)
        .expect("deadline yields partial profile");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "expired deadline must cut work short"
    );
    assert!(profile.quality.deadline_hit);
    assert!(profile.quality.was_limited());
    assert!(
        profile.quality.to_string().contains("deadline hit"),
        "{}",
        profile.quality
    );
}

/// 200k scope events over a 20k-function table, analysed and exported
/// once with the table in id order and once reversed. Both resolve each
/// event's function through one index of the table, so the reversed
/// table renders byte-identical output in about the same time. With a
/// table scan per event and per interval, the reversed table took 2.5 s
/// against 0.18 s in id order (release, 2-vCPU VM).
#[test]
fn a_table_out_of_id_order_costs_no_scan_per_event() {
    use tempest_core::{chrome_trace_json, report};
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_sensors::{SensorId, SensorReading, Temperature};

    const FUNCS: u32 = 20_000;
    const ROUNDS: u64 = 5;
    let (t0, main) = (ThreadId(0), FunctionId(0));
    // Function k runs k + 1 ns per call, so no two inclusive times tie.
    let mut events = vec![Event::enter(0, t0, main)];
    let mut t = 1;
    for _ in 0..ROUNDS {
        for k in 1..FUNCS {
            events.push(Event::enter(t, t0, FunctionId(k)));
            t += u64::from(k) + 1;
            events.push(Event::exit(t, t0, FunctionId(k)));
            t += 1;
        }
    }
    events.push(Event::exit(t, t0, main));
    let samples = (0..400u64)
        .map(|i| {
            let celsius = 40.0 + (i % 7) as f64;
            SensorReading::new(SensorId(0), i * t / 400, Temperature::from_celsius(celsius))
        })
        .collect();
    let functions: Vec<FunctionDef> = (0..FUNCS)
        .map(|k| FunctionDef {
            id: FunctionId(k),
            name: format!("f{k}"),
            address: 0x40_0000 + u64::from(k) * 16,
            kind: ScopeKind::Function,
        })
        .collect();
    let in_order = Trace {
        node: NodeMeta::anonymous(),
        functions,
        events,
        samples,
    };
    let mut reversed = in_order.clone();
    reversed.functions.reverse();

    let render = |trace: &Trace| {
        let started = Instant::now();
        let profile = AnalysisRequest::new()
            .analyze_trace(trace)
            .expect("analyzes");
        let out = (report::render_stdout(&profile), chrome_trace_json(trace));
        (out, started.elapsed())
    };
    let (want, in_order_took) = render(&in_order);
    let (got, reversed_took) = render(&reversed);
    assert!(
        got.0 == want.0,
        "the report differs with the table reversed"
    );
    assert!(
        got.1 == want.1,
        "the chrome export differs with the table reversed"
    );
    let bound = 2 * in_order_took + Duration::from_millis(250);
    assert!(
        reversed_took < bound,
        "reversed table took {reversed_took:?}, id order {in_order_took:?}"
    );
}
