//! Machine context recorded with every result, and the process's peak RSS.

use std::path::Path;

/// Peak resident set of this process in MB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the largest-level CPU cache, as the kernel reports it.
fn llc_size() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if let (Some(level), Some(size)) = (read("level"), read("size")) {
            let level: u32 = level.parse().unwrap_or(0);
            if best.as_ref().is_none_or(|(l, _)| level > *l) {
                best = Some((level, size));
            }
        }
    }
    best.map_or("unknown".to_string(), |(l, s)| format!("L{l} {s}"))
}

/// Filesystem type of the mount holding `dir` (longest matching mount point).
fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir).or_else(|_| std::env::current_dir()) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, kind)| kind)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// `(key, JSON value)` pairs describing the run and the machine.
pub fn describe(
    work: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quote = |s: String| format!("\"{}\"", tempest_obs::escape(&s));
    let parent = work.parent().unwrap_or(Path::new("."));
    vec![
        ("workload", quote(workload.to_string())),
        ("seed", seed.to_string()),
        ("default_seed", crate::inputs::DEFAULT_SEED.to_string()),
        ("held_out_seed", crate::inputs::HELD_OUT_SEED.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("nproc", nproc.to_string()),
        ("llc", quote(llc_size())),
        ("work_fs", quote(filesystem_of(parent))),
        ("rustc", quote(rustc_version())),
    ]
}
