//! Two-tier content-addressed result memo.
//!
//! Tier 1 is an in-memory map from [`MemoKey`] to the serialized
//! `RunReport` bytes; tier 2 is an optional on-disk store (one file per
//! key) that survives process restarts, so re-running a campaign after
//! an unrelated edit replays unchanged cells without simulating. A disk
//! hit is promoted into memory on the way out.
//!
//! Disk entries are defensive: every file carries a header line naming
//! the format version and the key it claims to hold, and the report
//! payload must parse back to a `RunReport`. A truncated, garbled, or
//! misnamed file is treated as a plain miss (and the simulation that
//! follows overwrites it) — the memo is a cache, never a source of
//! truth, so corruption can cost time but never correctness. Writes go
//! through a temp file + atomic rename so a crash mid-write leaves
//! either the old entry or none, never a half-written one.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::spec::MemoKey;
use now_sim::RunReport;

/// Magic prefix of every on-disk memo entry. The full header line is
/// `dlb-memo v1 <key hex>\n`, followed by the report JSON.
const DISK_MAGIC: &str = "dlb-memo v1";

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Memory,
    Disk,
}

/// Which memo tiers a server uses.
#[derive(Debug, Clone, Default)]
pub struct MemoConfig {
    /// Keep results in an in-memory map (tier 1).
    pub memory: bool,
    /// Persist results under this directory (tier 2).
    pub disk_dir: Option<PathBuf>,
}

impl MemoConfig {
    /// Memory tier on; disk tier iff `DLB_MEMO_DIR` is set (the
    /// directory is created on first write).
    pub fn from_env() -> Self {
        Self {
            memory: true,
            disk_dir: std::env::var("DLB_MEMO_DIR")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from),
        }
    }

    /// No memoization at all: every request simulates. Benchmarks use
    /// this to time the engine itself through the server path.
    pub fn disabled() -> Self {
        Self {
            memory: false,
            disk_dir: None,
        }
    }

    /// Memory tier only.
    pub fn memory_only() -> Self {
        Self {
            memory: true,
            disk_dir: None,
        }
    }

    /// Memory tier plus a disk store rooted at `dir`.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            memory: true,
            disk_dir: Some(dir.into()),
        }
    }

    /// Whether any tier is enabled.
    pub fn enabled(&self) -> bool {
        self.memory || self.disk_dir.is_some()
    }
}

/// The two-tier store. All methods take `&self`; the memory tier is a
/// mutex-guarded map, the disk tier relies on atomic renames.
#[derive(Debug)]
pub struct MemoStore {
    cfg: MemoConfig,
    memory: Mutex<HashMap<u64, Arc<String>>>,
}

impl MemoStore {
    pub fn new(cfg: MemoConfig) -> Self {
        Self {
            cfg,
            memory: Mutex::new(HashMap::new()),
        }
    }

    pub fn config(&self) -> &MemoConfig {
        &self.cfg
    }

    /// Look up `key` in both tiers. A disk hit is validated (header +
    /// parseable report) and promoted to memory.
    pub fn get(&self, key: MemoKey) -> Option<(Arc<String>, Tier)> {
        if let Some(bytes) = self.peek_memory(key) {
            return Some((bytes, Tier::Memory));
        }
        if let Some(dir) = &self.cfg.disk_dir {
            if let Some(bytes) = read_disk_entry(&entry_path(dir, key), key) {
                let bytes = Arc::new(bytes);
                self.put_memory(key, Arc::clone(&bytes));
                return Some((bytes, Tier::Disk));
            }
        }
        None
    }

    /// Memory-tier-only probe — used for the re-check under the
    /// single-flight lock, which must stay cheap.
    pub fn peek_memory(&self, key: MemoKey) -> Option<Arc<String>> {
        if !self.cfg.memory {
            return None;
        }
        self.memory.lock().unwrap().get(&key.0).cloned()
    }

    /// Store `bytes` in the memory tier (no-op when disabled).
    pub fn put_memory(&self, key: MemoKey, bytes: Arc<String>) {
        if self.cfg.memory {
            self.memory.lock().unwrap().insert(key.0, bytes);
        }
    }

    /// Persist `bytes` in the disk tier (no-op when disabled). The
    /// write is temp-file + rename, so concurrent writers of the same
    /// key (which by construction carry identical bytes) race benignly;
    /// persistence is best-effort and a full or read-only volume only
    /// costs future replays, never correctness.
    pub fn put_disk(&self, key: MemoKey, bytes: &str) {
        if let Some(dir) = &self.cfg.disk_dir {
            if let Err(e) = write_disk_entry(dir, key, bytes) {
                eprintln!("now-serve: memo write for {key} failed: {e}");
            }
        }
    }

    /// Store `bytes` in every enabled tier.
    pub fn put(&self, key: MemoKey, bytes: Arc<String>) {
        self.put_disk(key, &bytes);
        self.put_memory(key, bytes);
    }

    /// Number of entries resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory.lock().unwrap().len()
    }
}

/// `<dir>/<key as 16 hex digits>.memo`
pub fn entry_path(dir: &Path, key: MemoKey) -> PathBuf {
    dir.join(format!("{key}.memo"))
}

/// Read and validate one disk entry. Any defect — missing file, short
/// file, wrong magic, wrong key, unparseable payload — yields `None`.
fn read_disk_entry(path: &Path, key: MemoKey) -> Option<String> {
    let mut raw = fs::read_to_string(path).ok()?;
    let header_end = raw.find('\n')?;
    if raw[..header_end] != format!("{DISK_MAGIC} {key}") {
        return None;
    }
    raw.drain(..=header_end);
    // The payload must read back as a report; a truncated JSON tail or
    // a document of another shape fails here rather than poisoning a
    // consumer downstream.
    let _: RunReport = serde_json::from_str(&raw).ok()?;
    Some(raw)
}

fn write_disk_entry(dir: &Path, key: MemoKey, bytes: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        "{key}.tmp.{:x}",
        std::process::id() as u64 ^ (bytes.len() as u64) << 32
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        writeln!(f, "{DISK_MAGIC} {key}")?;
        f.write_all(bytes.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, entry_path(dir, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("now-serve-memo-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memory_roundtrip() {
        let store = MemoStore::new(MemoConfig::memory_only());
        let key = MemoKey(0xabcd);
        assert!(store.get(key).is_none());
        store.put(key, Arc::new("payload".to_string()));
        let (bytes, tier) = store.get(key).unwrap();
        assert_eq!(&*bytes, "payload");
        assert_eq!(tier, Tier::Memory);
    }

    #[test]
    fn disk_rejects_wrong_key_and_garbage() {
        let dir = tmpdir("reject");
        let key = MemoKey(7);
        // A file that claims a different key.
        fs::create_dir_all(&dir).unwrap();
        fs::write(entry_path(&dir, key), "dlb-memo v1 0000000000000008\n{}").unwrap();
        let store = MemoStore::new(MemoConfig::disk(&dir));
        assert!(store.get(key).is_none(), "mismatched header must miss");
        // Garbage bytes.
        fs::write(entry_path(&dir, key), "\x00\x01binary garbage").unwrap();
        assert!(store.get(key).is_none(), "garbage must miss, not panic");
        // Truncated payload.
        fs::write(
            entry_path(&dir, key),
            format!("{DISK_MAGIC} {key}\n{{\"stra"),
        )
        .unwrap();
        assert!(store.get(key).is_none(), "truncated payload must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_never_stores() {
        let store = MemoStore::new(MemoConfig::disabled());
        let key = MemoKey(1);
        store.put(key, Arc::new("x".into()));
        assert!(store.get(key).is_none());
        assert_eq!(store.memory_len(), 0);
    }
}
