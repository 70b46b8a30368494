//! Content-addressed analysis result cache.
//!
//! A `tempest report` over an unchanged trace re-derives exactly the same
//! bytes every time — the whole pipeline is deterministic by construction
//! (that's what the parallel-determinism tests prove). This module makes
//! the repeat run near-free: rendered per-node reports are persisted in an
//! on-disk directory keyed by the trace file's **content** (CRC-32 over
//! the raw bytes, reusing the spool frame checksum machinery, plus the
//! byte length) and a fingerprint of every output-affecting analysis
//! option. Touching a file without changing it still hits; editing one
//! byte misses; changing `--recover`, the sample interval, or the render
//! format misses. The correlate shard count is deliberately **excluded**
//! from the fingerprint — sharding is proven byte-identical, so cached
//! output is valid for any shard count.
//!
//! The directory is versioned: a marker file records the cache format
//! version, and opening a cache written by a different version discards
//! every entry (counted in `tempest-obs` as invalidations) rather than
//! serving stale bytes. `tempest doctor` audits cache directories for
//! stale or foreign content.

use crate::parser::AnalysisOptions;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk cache format version. Bump when the report format, the
/// analysis semantics, or the key derivation changes.
pub const CACHE_VERSION: u32 = 1;

/// Marker file carrying the cache format version; also how a directory is
/// recognised as a tempest cache.
const VERSION_FILE: &str = "tempest-cache.version";

/// Extension of entry files (rendered report text).
const ENTRY_EXT: &str = "report";

/// Key of one cached result: trace content identity plus an
/// options/format fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    content_crc: u32,
    content_len: u64,
    fingerprint: u64,
}

impl CacheKey {
    /// Derive the key for rendering `bytes` (a raw trace file) under
    /// `options` in `format`.
    pub fn new(bytes: &[u8], options: AnalysisOptions, format: &str) -> CacheKey {
        CacheKey::from_content(
            tempest_probe::spool::crc32(bytes),
            bytes.len() as u64,
            options,
            format,
        )
    }

    /// Derive the key from an already-computed content identity (CRC-32
    /// over the raw bytes plus their length). This is what a long-running
    /// server uses: it hashes each session once at catalog-scan time and
    /// keys every subsequent request without re-reading the bytes.
    pub fn from_content(crc: u32, len: u64, options: AnalysisOptions, format: &str) -> CacheKey {
        let mut fp = Fnv::new();
        fp.write(format.as_bytes());
        fp.write(&[0, options.recover as u8]);
        match options.sample_interval_ns {
            None => fp.write(&[0]),
            Some(ns) => {
                fp.write(&[1]);
                fp.write(&ns.to_le_bytes());
            }
        }
        // options.shards intentionally omitted: output is shard-invariant.
        CacheKey {
            content_crc: crc,
            content_len: len,
            fingerprint: fp.finish(),
        }
    }

    fn file_name(&self) -> String {
        format!(
            "{:08x}-{:016x}-{:016x}.{ENTRY_EXT}",
            self.content_crc, self.content_len, self.fingerprint
        )
    }
}

/// FNV-1a 64-bit, enough to fingerprint a handful of option bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An open, versioned cache directory.
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
}

impl AnalysisCache {
    /// Open (creating if needed) a cache directory. A directory written by
    /// a different cache version is emptied first — every discarded entry
    /// counts as an invalidation — so stale bytes are never served.
    pub fn open(dir: &Path) -> io::Result<AnalysisCache> {
        std::fs::create_dir_all(dir)?;
        let marker = dir.join(VERSION_FILE);
        match std::fs::read_to_string(&marker) {
            Ok(v) if v.trim() == CACHE_VERSION.to_string() => {}
            Ok(_) => {
                // Version bump: drop every entry, then adopt the dir.
                let mut invalidated = 0u64;
                for entry in std::fs::read_dir(dir)? {
                    let entry = entry?;
                    if entry.path().extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                        std::fs::remove_file(entry.path())?;
                        invalidated += 1;
                    }
                }
                tempest_obs::global()
                    .counter("cache_invalidated_total")
                    .add(invalidated);
                std::fs::write(&marker, format!("{CACHE_VERSION}\n"))?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::write(&marker, format!("{CACHE_VERSION}\n"))?;
            }
            Err(e) => return Err(e),
        }
        Ok(AnalysisCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fetch the rendered result for `key`, counting the hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<String> {
        match std::fs::read_to_string(self.dir.join(key.file_name())) {
            Ok(text) => {
                tempest_obs::global().counter("cache_hits_total").inc();
                Some(text)
            }
            Err(_) => {
                tempest_obs::global().counter("cache_misses_total").inc();
                None
            }
        }
    }

    /// Persist a rendered result under `key` with
    /// [`tempest_obs::publish`], so neither a killed process nor workers
    /// storing one key at once ever publish a torn entry.
    pub fn store(&self, key: &CacheKey, rendered: &str) -> io::Result<()> {
        tempest_obs::publish(&self.dir.join(key.file_name()), rendered.as_bytes())?;
        tempest_obs::global().counter("cache_stores_total").inc();
        Ok(())
    }

    /// Is `dir` a tempest cache directory (carries the version marker)?
    pub fn is_cache_dir(dir: &Path) -> bool {
        dir.join(VERSION_FILE).is_file()
    }

    /// Inspect a cache directory without adopting or modifying it — the
    /// read-only view `tempest doctor` reports.
    pub fn audit(dir: &Path) -> io::Result<CacheAudit> {
        let version: Option<u32> = std::fs::read_to_string(dir.join(VERSION_FILE))
            .ok()
            .and_then(|v| v.trim().parse().ok());
        let mut audit = CacheAudit {
            version,
            ..Default::default()
        };
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == VERSION_FILE {
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                audit.entries += 1;
                audit.bytes += entry.metadata()?.len();
                if version != Some(CACHE_VERSION) {
                    audit.stale += 1;
                }
            } else {
                // Torn temp files or anything else that isn't ours.
                audit.foreign += 1;
            }
        }
        Ok(audit)
    }
}

/// What a cache-directory audit found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheAudit {
    /// Version recorded in the marker, if parseable.
    pub version: Option<u32>,
    /// Number of cached entries.
    pub entries: usize,
    /// Total bytes across entries.
    pub bytes: u64,
    /// Entries written by a different cache version (would be discarded
    /// on next open).
    pub stale: usize,
    /// Files in the directory that are not cache entries (torn temps,
    /// unrelated content).
    pub foreign: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tempest-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_hit_after_store() {
        let dir = temp_dir("roundtrip");
        let cache = AnalysisCache::open(&dir).unwrap();
        let key = CacheKey::new(b"trace bytes", AnalysisOptions::default(), "text");
        assert_eq!(cache.lookup(&key), None);
        cache.store(&key, "rendered report\n").unwrap();
        assert_eq!(cache.lookup(&key).as_deref(), Some("rendered report\n"));
        // A second open serves the same entry (persistence).
        let again = AnalysisCache::open(&dir).unwrap();
        assert_eq!(again.lookup(&key).as_deref(), Some("rendered report\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_change_misses() {
        let a = CacheKey::new(b"trace v1", AnalysisOptions::default(), "text");
        let b = CacheKey::new(b"trace v2", AnalysisOptions::default(), "text");
        assert_ne!(a, b);
        // Same length, one byte flipped, still distinct.
        let c = CacheKey::new(b"trace v3", AnalysisOptions::default(), "text");
        assert_ne!(b, c);
    }

    #[test]
    fn options_and_format_change_misses_but_shards_do_not() {
        let bytes = b"same trace";
        let base = CacheKey::new(bytes, AnalysisOptions::default(), "text");
        let recovering = CacheKey::new(bytes, AnalysisOptions::recovering(), "text");
        assert_ne!(base, recovering);
        let forced = CacheKey::new(
            bytes,
            AnalysisOptions {
                sample_interval_ns: Some(1_000_000),
                ..Default::default()
            },
            "text",
        );
        assert_ne!(base, forced);
        let csv = CacheKey::new(bytes, AnalysisOptions::default(), "csv");
        assert_ne!(base, csv);
        // Shard count is output-invariant, so it must share the key.
        let sharded = CacheKey::new(
            bytes,
            AnalysisOptions {
                shards: 8,
                ..Default::default()
            },
            "text",
        );
        assert_eq!(base, sharded);
    }

    #[test]
    fn version_bump_invalidates_entries() {
        let dir = temp_dir("version");
        let cache = AnalysisCache::open(&dir).unwrap();
        let key = CacheKey::new(b"bytes", AnalysisOptions::default(), "text");
        cache.store(&key, "old text").unwrap();
        drop(cache);

        // Simulate a cache written by an older tempest.
        std::fs::write(dir.join(VERSION_FILE), "0\n").unwrap();
        let audit = AnalysisCache::audit(&dir).unwrap();
        assert_eq!(audit.version, Some(0));
        assert_eq!(audit.stale, 1, "entry under a foreign version is stale");

        tempest_obs::global().set_enabled(true);
        let before = tempest_obs::global()
            .counter("cache_invalidated_total")
            .get();
        let reopened = AnalysisCache::open(&dir).unwrap();
        assert_eq!(reopened.lookup(&key), None, "stale entry was discarded");
        let after = tempest_obs::global()
            .counter("cache_invalidated_total")
            .get();
        assert_eq!(after - before, 1);
        // The directory is re-adopted at the current version.
        assert_eq!(
            AnalysisCache::audit(&dir).unwrap().version,
            Some(CACHE_VERSION)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stores racing on one key from several threads (the query
    /// daemon's workers answering one question at once) must each
    /// succeed and never publish a torn entry: a lookup sees nothing or
    /// the whole text.
    #[test]
    fn racing_stores_never_publish_a_torn_entry() {
        let dir = temp_dir("race");
        let cache = AnalysisCache::open(&dir).unwrap();
        let key = CacheKey::new(b"raced", AnalysisOptions::default(), "text");
        let text = "r".repeat(64 * 1024);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        cache.store(&key, &text).expect("store");
                        let got = cache.lookup(&key).expect("stored above");
                        assert_eq!(got.len(), text.len(), "torn entry");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_counts_entries_and_foreign_files() {
        let dir = temp_dir("audit");
        let cache = AnalysisCache::open(&dir).unwrap();
        for (i, text) in ["a", "bb"].iter().enumerate() {
            let key = CacheKey::new(format!("trace{i}").as_bytes(), Default::default(), "text");
            cache.store(&key, text).unwrap();
        }
        std::fs::write(dir.join(".tmp-torn"), "partial").unwrap();
        let audit = AnalysisCache::audit(&dir).unwrap();
        assert_eq!(audit.version, Some(CACHE_VERSION));
        assert_eq!(audit.entries, 2);
        assert_eq!(audit.bytes, 3);
        assert_eq!(audit.stale, 0);
        assert_eq!(audit.foreign, 1);
        assert!(AnalysisCache::is_cache_dir(&dir));
        assert!(!AnalysisCache::is_cache_dir(&dir.join("nope")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store caught between its write and its rename has a temp file
    /// on disk, as a store killed there leaves one behind: the audit
    /// `doctor` runs must count it as foreign, never as a second entry.
    #[test]
    fn audit_never_counts_an_in_flight_temp_as_an_entry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = temp_dir("inflight");
        let cache = AnalysisCache::open(&dir).unwrap();
        let key = CacheKey::new(b"inflight", AnalysisOptions::default(), "text");
        let text = "t".repeat(1 << 20);
        cache.store(&key, &text).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let stored = (0..100).all(|_| cache.store(&key, &text).is_ok());
                done.store(true, Ordering::Relaxed);
                assert!(stored, "store failed");
            });
            while !done.load(Ordering::Relaxed) {
                let audit = AnalysisCache::audit(&dir).expect("audit");
                assert_eq!(audit.entries, 1, "{audit:?}");
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
