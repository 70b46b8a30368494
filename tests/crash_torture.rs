//! Kill-9 crash torture for the durable spool (DESIGN.md "Durability
//! model"). A writer subprocess streams batches to a spool directory
//! with per-batch fsync, acknowledging each batch on stdout only after
//! the fsync returns. This test SIGKILLs it at randomized points —
//! including mid-write and around segment rotations — and asserts that
//! recovery always yields a checksum-clean prefix containing at least
//! every acknowledged batch.
//!
//! Expensive and I/O-heavy, so it only runs when `TEMPEST_TORTURE=1`
//! (ci.sh sets it on every run); the seed is fixed for reproducibility and
//! overridable via `TEMPEST_TORTURE_SEED`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use tempest_probe::spool;

/// xorshift64*: tiny deterministic PRNG, no dependency budget spent.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn torture_enabled() -> bool {
    std::env::var("TEMPEST_TORTURE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn seed() -> u64 {
    std::env::var("TEMPEST_TORTURE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FF_EE00_DEAD_BEEF)
}

fn fresh_dir(iter: u32) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "tempest-crash-torture-{}-{iter}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn kill9_always_leaves_a_recoverable_prefix() {
    if !torture_enabled() {
        eprintln!("crash torture skipped (set TEMPEST_TORTURE=1 to run)");
        return;
    }
    let mut rng = Rng(seed());
    const ITERATIONS: u32 = 8;
    for iter in 0..ITERATIONS {
        let dir = fresh_dir(iter);
        // Vary the kill point (in acked batches) and segment size so
        // kills land in small and large segments, early and late.
        let kill_after = 1 + rng.below(60);
        let segment_bytes = 4096 + rng.below(4) * 4096;
        let mut child = Command::new(env!("CARGO_BIN_EXE_torture_writer"))
            .arg(&dir)
            .arg(segment_bytes.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn torture_writer");

        let mut acked = 0u64;
        {
            let stdout = child.stdout.take().expect("child stdout");
            for line in BufReader::new(stdout).lines() {
                let line = line.expect("read ack");
                let n: u64 = line
                    .strip_prefix("acked ")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("bad ack line: {line:?}"));
                acked = n;
                if acked >= kill_after {
                    break;
                }
            }
        }
        // SIGKILL: no destructors, no flush, no fsync — the worst case.
        child.kill().expect("kill");
        child.wait().expect("wait");

        let (trace, report) = spool::recover(&dir)
            .unwrap_or_else(|e| panic!("iter {iter}: recovery failed after kill: {e}"));
        assert!(
            !report.clean_shutdown,
            "iter {iter}: a SIGKILLed session must not look clean"
        );
        // The durability contract: every acked batch (1 enter + 1 sample
        // + 1 exit, fsynced before the ack) survives.
        assert!(
            report.events_recovered >= acked * 2,
            "iter {iter}: acked {acked} batches but recovered only {} events",
            report.events_recovered
        );
        assert!(
            report.samples_recovered >= acked,
            "iter {iter}: acked {acked} batches but recovered only {} samples",
            report.samples_recovered
        );
        // The salvaged prefix is well-formed: the writer emits batch i at
        // base timestamp i*1ms, so recovered events are time-ordered and
        // every sample carries the finite temperature written for it.
        let mut last_ts = 0;
        for e in &trace.events {
            assert!(
                e.timestamp_ns >= last_ts,
                "iter {iter}: events out of order"
            );
            last_ts = e.timestamp_ns;
        }
        for s in &trace.samples {
            let c = s.temperature.celsius();
            assert!(
                (40.0..90.0).contains(&c),
                "iter {iter}: sample {c} outside the written range"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
