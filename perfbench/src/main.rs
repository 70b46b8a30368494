//! `tempest-perfbench`: Tempest's benchmark, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload capture|analyze|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload drives Tempest's public
//! APIs for `--seconds`, checks every output, prints the end-to-end
//! metrics by name and unit and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! workload runs twice, half the time each: once untraced, then with the
//! benchmark's spans on; the JSON then carries the per-layer metrics and
//! the tracing overhead. The exit code is non-zero when a check failed.
//! Why each workload exists and which end-to-end metric each layer should
//! move is recorded in `perfbench/LAYERS.md`.

mod analyze;
mod capture;
mod context;
mod inputs;
mod metrics;
mod serve;
mod spans;
mod stats;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations per thread, and tracks live and peak heap
/// bytes, so traced stages can report allocations and every run its peak
/// heap. It is active in every pass, untraced ones included.
struct CountingAlloc;

/// A counter alone on its cache line (and the adjacent one, which x86
/// prefetches in pairs), so that threads writing one do not evict the
/// other.
#[repr(align(128))]
struct Padded(AtomicU64);

static LIVE_BYTES: Padded = Padded(AtomicU64::new(0));
static PEAK_BYTES: Padded = Padded(AtomicU64::new(0));

thread_local! {
    /// Allocations made by this thread; no other thread writes it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.0.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if live > PEAK_BYTES.0.load(Ordering::Relaxed) {
        PEAK_BYTES.0.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// additions are relaxed counters that publish no other data, and a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES
            .0
            .fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE_BYTES
                .0
                .fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Start a new heap-peak window at the bytes live now.
pub fn reset_peak_heap() {
    PEAK_BYTES
        .0
        .store(LIVE_BYTES.0.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Most heap bytes live at once since the last [`reset_peak_heap`], in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.0.load(Ordering::Relaxed) as f64 / MB
}

/// Bytes in a MB, as the heap figures count them.
pub const MB: f64 = 1024.0 * 1024.0;

/// Fix glibc malloc's mmap and trim thresholds for the whole run.
///
/// By default glibc raises both the first time a thread frees a large
/// mmapped block, and which block that is depends on thread timing. The
/// same seed then ran `spool::recover` in about 93 ms in one process and
/// 117 ms in the next, as its buffers either reused heap memory or were
/// mapped and faulted in afresh. Blocks under 32 MiB now always come from
/// the heap, and the heap keeps up to 256 MiB of freed memory, as in a
/// long-running process whose thresholds have already risen.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // From glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before the run starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 256 << 20);
        }
    }
}

/// Heap allocations `f` made on the calling thread, and its result.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["capture", "analyze", "serve"];
/// Seconds of a pass run only to measure layers the workload skips.
const BORROW_SECONDS: f64 = 1.0;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    Ok(args)
}

/// One measured pass of a workload.
fn run_workload(workload: &str, work: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(traced);
    match workload {
        "capture" => capture::run(work, seed, seconds, &mut out),
        "analyze" => analyze::run(work, seed, seconds, &mut out),
        "serve" => serve::run(work, seed, seconds, &mut out),
        _ => unreachable!("workload validated by main"),
    }
    out
}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown --workload {:?}: want capture, analyze or serve",
                a.workload
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes stays under the checkout it runs from.
    let work: PathBuf =
        Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let pass = |dir: &str, seconds: f64, traced: bool| {
        run_workload(&args.workload, &work.join(dir), args.seed, seconds, traced)
    };
    let mut outcomes = if args.trace {
        vec![
            pass("plain", args.seconds / 2.0, false),
            pass("traced", args.seconds / 2.0, true),
        ]
    } else {
        vec![pass("plain", args.seconds, false)]
    };
    // Layers this workload does not exercise are measured in a short
    // traced pass of the workload that does, so every per-layer figure is
    // a measurement; a line names each borrowed one.
    let mut layers = outcomes.last().expect("at least one pass").layers.clone();
    let missing = |l: &BTreeMap<String, f64>| {
        PER_LAYER
            .iter()
            .any(|(n, _)| !n.starts_with("trace_overhead.") && !l.contains_key(*n))
    };
    let mut borrowed = Vec::new();
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        if !args.trace || !missing(&layers) {
            break;
        }
        let o = run_workload(other, &work.join(other), args.seed, BORROW_SECONDS, true);
        for (name, v) in &o.layers {
            if !layers.contains_key(name) {
                layers.insert(name.clone(), *v);
                borrowed.push(format!(
                    "layer {name}: not exercised by {}, measured in a short traced {other} pass",
                    args.workload
                ));
            }
        }
        outcomes.push(o);
    }
    let spans_file = args.trace.then(|| {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!(
            "spans-{}-seed{}-{}.jsonl",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::create_dir_all(dir);
        let text = outcomes[1].spans.to_jsonl();
        std::fs::write(&path, text).map(|_| path)
    });
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(".bench_work").ok();

    let main_pass = &outcomes[usize::from(args.trace)];
    for o in &outcomes {
        for line in &o.named {
            println!("{line}");
        }
    }
    for failure in outcomes.iter().flat_map(|o| &o.failures) {
        println!("FAILED CHECK: {failure}");
    }
    let mut context = context::describe(&work, &args.workload, args.seed, args.seconds, args.trace);
    context.push(("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())));
    if let Some(Ok(path)) = &spans_file {
        context.push(("spans", format!("\"{}\"", path.display())));
    }
    println!("{}", metrics::json_object("context", &context));

    let metrics_json = if args.trace {
        for (name, traced, untraced) in main_pass.e2e.pairs(&outcomes[0].e2e) {
            layers.insert(format!("trace_overhead.{name}"), traced - untraced);
        }
        for line in &borrowed {
            println!("{line}");
        }
        for note in outcomes.iter().skip(1).flat_map(|o| &o.notes) {
            println!("note: {note}");
        }
        metrics::metrics_json(PER_LAYER, |n| layers.get(n).copied().unwrap_or(0.0))
    } else {
        metrics::metrics_json(END_TO_END, |n| main_pass.e2e.get(n))
    };
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed()).sum();
    let correct = outcomes.iter().all(|o| o.failures.is_empty());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
