//! `fuzz_decode` — deterministic structure-aware fuzzer for every
//! untrusted-input surface: trace decode, spool recovery, and the ship
//! wire protocol.
//!
//! ```text
//! fuzz_decode [--seed S] [--iters N] [--metrics-out FILE]
//! ```
//!
//! Each iteration starts from a *valid* byte stream (a synthetic trace,
//! real local and collector-written spool segments, or a ship wire
//! message), applies one seeded mutation — truncation, bit flips,
//! extreme-value stomps on length and count fields — and feeds the
//! result to the strict-limits decoder inside `catch_unwind`. The invariants checked on every single
//! iteration:
//!
//! * **no panic** — hostile bytes produce an error or a bounded partial
//!   result, never a crash;
//! * **no over-budget allocation** — whatever decodes stays inside the
//!   strict [`DecodeLimits`] byte budget;
//! * **no hang** — every iteration completes inside a generous
//!   per-iteration wall-clock bound, and a batch of iterations runs with
//!   an already-expired deadline to prove cancellation cuts work short.
//!
//! The seed accepts decimal, `0x`-prefixed hex, or any other string
//! (hashed deterministically), so `--seed 0xTEMPEST` is a valid — and
//! reproducible — spelling. On failure the process prints the seed and
//! iteration to replay and exits nonzero; `--metrics-out` dumps the obs
//! registry (including `limit_hits_total` and `cancellations_total`) as
//! JSON for CI to validate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tempest_probe::limits::{CancelToken, DecodeLimits};
use tempest_probe::ship::{
    decode_err, decode_hello, encode_err, encode_hello, Hello, SHIP_VERSION,
};
use tempest_probe::spool::{
    self, parse_segment_frames, shipped2_payload, RawFrame, SpoolConfig, SpoolWriter, FRAME_EVENTS,
    FRAME_SHIPPED2,
};
use tempest_probe::synth::{TraceGenerator, TraceSpec};
use tempest_probe::trace::Trace;
use tempest_probe::NodeMeta;

/// Upper bound on one iteration. Orders of magnitude above the honest
/// cost of decoding a few hundred KiB, so a trip means a real hang or an
/// accidental O(declared) loop, not a slow machine.
const ITER_BUDGET: Duration = Duration::from_secs(5);

/// Seed parser: decimal, `0x` hex, or FNV-1a of the raw string — so any
/// spelling is accepted and every spelling is deterministic.
fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Small deterministic generator (xorshift*); no external entropy, so a
/// (seed, iteration) pair replays exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, iter: u64) -> Rng {
        Rng((seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One seeded mutation of a valid byte stream. Structure-aware in the
/// cheap sense: length and count fields live near record boundaries, so
/// stomping aligned windows with extreme values reliably manufactures
/// hostile declared quantities on top of plain truncation and bit rot.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match rng.below(5) {
        // Truncate anywhere, including mid-record and mid-header.
        0 => bytes.truncate(rng.below(bytes.len() + 1)),
        // Flip 1..=8 random bits.
        1 => {
            for _ in 0..1 + rng.below(8) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // Stomp a window with an extreme value: huge counts, zero
        // lengths, sign-bit patterns.
        2 | 3 => {
            let pattern: &[u8] = match rng.below(4) {
                0 => &[0xFF; 8],
                1 => &[0x00; 8],
                2 => &[0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0],
                _ => &[0x00, 0x00, 0x00, 0x80, 0xFF, 0xFF, 0xFF, 0xFF],
            };
            let n = 1 + rng.below(pattern.len());
            // Bias half the stomps into the first 64 bytes, where the
            // header's declared counts live.
            let range = if rng.below(2) == 0 {
                bytes.len().min(64)
            } else {
                bytes.len()
            };
            let at = rng.below(range);
            let end = (at + n).min(bytes.len());
            bytes[at..end].copy_from_slice(&pattern[..end - at]);
        }
        // Duplicate a slice onto another offset (misaligns every record
        // that follows).
        _ => {
            let from = rng.below(bytes.len());
            let len = 1 + rng.below((bytes.len() - from).min(32));
            let chunk: Vec<u8> = bytes[from..from + len].to_vec();
            let to = rng.below(bytes.len());
            let end = (to + len).min(bytes.len());
            bytes[to..end].copy_from_slice(&chunk[..end - to]);
        }
    }
}

/// Byte budget actually consumed by a decoded trace's bulk collections —
/// what the strict limits are supposed to bound.
fn decoded_bytes(trace: &Trace) -> u64 {
    (trace.events.len() * std::mem::size_of::<tempest_probe::Event>()) as u64
        + (trace.samples.len() * std::mem::size_of::<tempest_sensors::SensorReading>()) as u64
}

struct Corpus {
    trace_bytes: Vec<u8>,
    segment_bytes: Vec<Vec<u8>>,
    ship_msgs: Vec<Vec<u8>>,
    scratch_dir: std::path::PathBuf,
}

fn build_corpus() -> Corpus {
    let trace = TraceGenerator::new(TraceSpec {
        events: 4_000,
        duration_ns: 10_000_000_000,
        sample_interval_ns: 50_000_000,
        ..Default::default()
    })
    .generate(0);
    let trace_bytes = trace.to_bytes();

    // A real spool: write one through the production writer, then keep
    // the raw segment bytes as mutation stock.
    let base = std::env::temp_dir().join(format!("tempest-fuzz-{}", std::process::id()));
    let spool_dir = base.join("corpus-spool");
    std::fs::remove_dir_all(&base).ok();
    let cfg = SpoolConfig::new(&spool_dir);
    let mut w = SpoolWriter::create(&cfg, NodeMeta::anonymous()).expect("corpus spool");
    w.append_batch(&trace.events[..trace.events.len().min(2_000)])
        .expect("corpus batch");
    w.finish(&trace.functions, 0, 0).expect("corpus finish");
    let mut segment_bytes: Vec<Vec<u8>> = spool::list_segment_files(&spool_dir)
        .expect("corpus segments")
        .into_iter()
        .map(|(_, p)| std::fs::read(p).expect("corpus segment bytes"))
        .collect();
    assert!(
        !segment_bytes.is_empty(),
        "corpus spool produced no segments"
    );
    // One collector-style segment: the same frames, each wrapped in a
    // FRAME_SHIPPED2 envelope, so mutations also reach the envelope
    // unwrap in recovery and fsck.
    let mut collected = spool::segment_header_bytes(0).to_vec();
    for (seq, seg) in segment_bytes.iter().enumerate() {
        for f in parse_segment_frames(seg).0 {
            let wrapped = shipped2_payload(seq as u64, f.offset, 1, 2, f.kind, f.payload);
            spool::encode_frame_into(&mut collected, FRAME_SHIPPED2, &wrapped);
        }
    }
    segment_bytes.push(collected);

    let hello = encode_hello(&Hello {
        version: SHIP_VERSION,
        node_id: 3,
        session: "fuzz-session".into(),
        hostname: "fuzzbox".into(),
    });
    // A DATA payload as a shipper sends it: receive time zero.
    let shipped = shipped2_payload(
        1,
        64,
        2,
        0,
        FRAME_EVENTS,
        &trace_bytes[..256.min(trace_bytes.len())],
    );
    let err = encode_err(5, "synthetic error payload");
    Corpus {
        trace_bytes,
        segment_bytes,
        ship_msgs: vec![hello, shipped, err],
        scratch_dir: base.join("scratch-spool"),
    }
}

/// One fuzz iteration; returns an error description on any invariant
/// violation.
fn run_iteration(corpus: &Corpus, seed: u64, iter: u64) -> Result<(), String> {
    let mut rng = Rng::new(seed, iter);
    let strict = DecodeLimits::strict();
    let started = Instant::now();

    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        match iter % 4 {
            // Trace decode, strict and salvage, on mutated bytes.
            0 => {
                let mut bytes = corpus.trace_bytes.clone();
                mutate(&mut rng, &mut bytes);
                let _ = Trace::decode_with(&bytes, &strict, &CancelToken::default());
                if let Ok((trace, _)) =
                    Trace::decode_salvage_with(&bytes, &strict, &CancelToken::default())
                {
                    let used = decoded_bytes(&trace);
                    if used > strict.budget_bytes.saturating_mul(2) {
                        return Err(format!(
                            "decoded {used} bytes against a {} byte budget",
                            strict.budget_bytes
                        ));
                    }
                }
                Ok(())
            }
            // Spool recovery over a directory whose segments were mutated.
            1 => {
                std::fs::remove_dir_all(&corpus.scratch_dir).ok();
                std::fs::create_dir_all(&corpus.scratch_dir)
                    .map_err(|e| format!("scratch dir: {e}"))?;
                for (i, seg) in corpus.segment_bytes.iter().enumerate() {
                    let mut bytes = seg.clone();
                    mutate(&mut rng, &mut bytes);
                    let name = spool::segment_file_name(i as u64 + 1, true);
                    std::fs::write(corpus.scratch_dir.join(name), &bytes)
                        .map_err(|e| format!("scratch segment: {e}"))?;
                }
                let _ = spool::recover_with(&corpus.scratch_dir, &strict, &CancelToken::default());
                let _ = spool::fsck_dir(&corpus.scratch_dir, &strict);
                Ok(())
            }
            // Ship wire decoders on mutated messages.
            2 => {
                let mut bytes = corpus.ship_msgs[rng.below(corpus.ship_msgs.len())].clone();
                mutate(&mut rng, &mut bytes);
                let _ = decode_hello(&bytes);
                let _ = decode_err(&bytes);
                let _ = parse_segment_frames(&bytes);
                // The collector's DATA intake: unwrap, then stamp.
                let envelope = RawFrame {
                    offset: 0,
                    kind: FRAME_SHIPPED2,
                    payload: &bytes,
                };
                if spool::unwrap_frame(&envelope).is_some() {
                    spool::stamp_collect_time(&mut bytes, 3);
                }
                Ok(())
            }
            // Cancellation: an already-expired deadline on pristine input
            // must return a bounded partial result, never spin.
            _ => {
                let expired = CancelToken::with_deadline(Duration::ZERO);
                let _ = Trace::decode_salvage_with(&corpus.trace_bytes, &strict, &expired);
                Ok(())
            }
        }
    }));

    match outcome {
        Err(_) => return Err("panicked".into()),
        Ok(Err(e)) => return Err(e),
        Ok(Ok(())) => {}
    }
    let elapsed = started.elapsed();
    if elapsed > ITER_BUDGET {
        return Err(format!("took {elapsed:?} (budget {ITER_BUDGET:?}) — hang"));
    }
    Ok(())
}

/// Deterministic pre-flight: the acceptance-criteria inputs that must
/// trip typed limits (and therefore the obs counters) on every run.
fn guaranteed_limit_hits() -> Result<(), String> {
    // A header declaring 2^31 functions: rejected with LimitExceeded,
    // not an OOM.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"TMPEST01");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&1u16.to_le_bytes());
    buf.push(b'h');
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&(1u32 << 31).to_le_bytes());
    match Trace::decode_with(&buf, &DecodeLimits::strict(), &CancelToken::default()) {
        Err(tempest_probe::trace::TraceError::Limit(_)) => Ok(()),
        other => Err(format!(
            "2^31 declared functions should be a typed limit error, got {other:?}"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = parse_seed("0xTEMPEST");
    let mut iters = 2_000u64;
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next() {
                Some(v) => seed = parse_seed(v),
                None => return usage("--seed wants a value"),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => iters = v,
                None => return usage("--iters wants an integer"),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(v.clone()),
                None => return usage("--metrics-out wants a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Err(e) = guaranteed_limit_hits() {
        eprintln!("fuzz_decode: FAIL (pre-flight): {e}");
        return ExitCode::from(1);
    }

    let corpus = build_corpus();
    let started = Instant::now();
    for iter in 0..iters {
        if let Err(e) = run_iteration(&corpus, seed, iter) {
            eprintln!("fuzz_decode: FAIL at --seed {seed:#x} iteration {iter}: {e}");
            std::fs::remove_dir_all(corpus.scratch_dir.parent().unwrap_or(&corpus.scratch_dir))
                .ok();
            return ExitCode::from(1);
        }
    }
    std::fs::remove_dir_all(corpus.scratch_dir.parent().unwrap_or(&corpus.scratch_dir)).ok();

    let reg = tempest_obs::global();
    let limit_hits = reg.counter("limit_hits_total").get();
    let cancellations = reg.counter("cancellations_total").get();
    println!(
        "fuzz_decode: OK — {iters} iteration(s) with seed {seed:#x} in {:?}; {limit_hits} limit hit(s), {cancellations} cancellation(s)",
        started.elapsed()
    );
    if let Some(path) = metrics_out {
        let json = tempest_obs::to_json(&reg.snapshot());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("fuzz_decode: FAIL: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fuzz_decode: {msg}\nusage: fuzz_decode [--seed S] [--iters N] [--metrics-out FILE]");
    ExitCode::from(2)
}
