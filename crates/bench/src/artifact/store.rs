//! The on-disk, content-addressed result store.
//!
//! Layout under the store directory (`--store DIR`):
//!
//! ```text
//! DIR/
//!   manifest.jsonl          one ManifestEntry JSON object per line,
//!                           appended as each point completes
//!   points/<key>.json       one StoredPoint blob per executed grid point
//! ```
//!
//! The `key` is the spec's [content key](ScenarioSpec::content_key).  A point
//! counts as *present* only when both a manifest line names its key **and**
//! its blob file exists; everything else re-executes.  That rule makes the
//! store honest about interruption from either side: a process killed
//! between the blob write and the manifest append leaves an orphaned blob
//! (ignored, re-run), a manifest truncated by hand (or a torn final line)
//! drops exactly the truncated points, and deleting one `points/<key>.json`
//! invalidates exactly that point.  Writes go blob first (to a temp file,
//! then renamed into place), manifest line last, so a key listed in the
//! manifest almost always has its blob — and the presence rule covers the
//! window where it does not.

use crate::sweep::ScenarioSpec;
use pbe_netsim::SimResult;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One line of `manifest.jsonl`: the join record between a stored blob and
/// the figure/grid point that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The point's content key (blob file name stem).
    pub key: String,
    /// Registry name of the figure that executed the point.
    pub figure: String,
    /// The scenario label of the point's spec.
    pub label: String,
    /// The scheme label (`spec.scheme.id()`).
    pub scheme: String,
    /// The expanded experiment seed.
    pub seed: u64,
    /// 128-bit FNV-1a over the blob's exact bytes, written at insert time so
    /// `verify` can detect truncated or corrupted blobs.
    pub checksum: String,
}

/// One line of `quarantine.jsonl`: a grid point whose configuration was
/// invalid or whose simulation panicked.
/// Quarantined keys are skipped-and-reported on resume instead of
/// re-poisoning every invocation; deleting the file (or repairing the cause)
/// lifts the quarantine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointFailure {
    /// The point's content key.
    pub key: String,
    /// Registry name of the figure whose grid contains the point.
    pub figure: String,
    /// The scenario label of the point's spec.
    pub label: String,
    /// The scheme label (`spec.scheme.id()`).
    pub scheme: String,
    /// The expanded experiment seed.
    pub seed: u64,
    /// The configuration error, or the rendered panic payload.
    pub message: String,
}

/// One problem `verify` found with a stored point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreIssue {
    /// The affected content key.
    pub key: String,
    /// Registry name of the figure that stored the point.
    pub figure: String,
    /// Human-readable description of the problem.
    pub problem: String,
}

/// One stored grid point: the expanded spec that ran and its full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredPoint {
    /// The point's content key (matches the file name and manifest line).
    pub key: String,
    /// The fully expanded spec (scheme and seed substituted).
    pub spec: ScenarioSpec,
    /// The simulator's result for that spec.
    pub result: SimResult,
}

/// A borrowed [`StoredPoint`]: the same fields in the same order, so it
/// serializes to the same bytes.
struct StoredPointRef<'a> {
    key: &'a str,
    spec: &'a ScenarioSpec,
    result: &'a SimResult,
}

impl Serialize for StoredPointRef<'_> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("key".to_string(), self.key.serialize()),
            ("spec".to_string(), self.spec.serialize()),
            ("result".to_string(), self.result.serialize()),
        ])
    }
}

/// A content-addressed directory of executed grid points.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Every parsed manifest line, in file order (duplicates possible when a
    /// point was invalidated and re-run; the last line wins).
    entries: Vec<ManifestEntry>,
    /// key → index into `entries`, restricted to keys whose blob exists.
    present: BTreeMap<String, usize>,
    /// key → quarantine record (last line per key wins).
    quarantined: BTreeMap<String, PointFailure>,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// Manifest lines that do not parse — the torn final line of an
    /// interrupted run, or a line an older build wrote in another shape — are
    /// skipped, not fatal: their points simply count as absent and
    /// re-execute.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("points"))?;
        let mut entries = Vec::new();
        let mut present = BTreeMap::new();
        let manifest = dir.join("manifest.jsonl");
        if manifest.exists() {
            for line in fs::read_to_string(&manifest)?.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(entry) = serde_json::from_str::<ManifestEntry>(line) else {
                    continue;
                };
                if dir
                    .join("points")
                    .join(format!("{}.json", entry.key))
                    .is_file()
                {
                    present.insert(entry.key.clone(), entries.len());
                } else {
                    // A manifest line without its blob (deleted by hand, or
                    // a kill in the blob-write window): say so and count the
                    // point as absent, so it re-executes instead of silently
                    // holing the report.
                    eprintln!(
                        "artifact store: manifest names {} ({}) but its blob is missing; \
                         the point will re-execute",
                        entry.key, entry.label
                    );
                }
                entries.push(entry);
            }
        }
        let mut quarantined = BTreeMap::new();
        let quarantine = dir.join("quarantine.jsonl");
        if quarantine.exists() {
            for line in fs::read_to_string(&quarantine)?.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(failure) = serde_json::from_str::<PointFailure>(line) else {
                    continue;
                };
                // A key that was stored successfully after it was quarantined
                // is healthy: the blob's presence supersedes the record.
                if !present.contains_key(&failure.key) {
                    quarantined.insert(failure.key.clone(), failure);
                }
            }
        }
        Ok(ResultStore {
            dir,
            entries,
            present,
            quarantined,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.jsonl")
    }

    /// Path of a point's blob file.
    fn point_path(&self, key: &str) -> PathBuf {
        self.dir.join("points").join(format!("{key}.json"))
    }

    /// Number of present points (manifest line **and** blob).
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when the store holds no present points.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Whether a point is present.
    pub fn contains(&self, key: &str) -> bool {
        self.present.contains_key(key)
    }

    /// The manifest entry of a present point.
    pub fn entry(&self, key: &str) -> Option<&ManifestEntry> {
        self.present.get(key).map(|&i| &self.entries[i])
    }

    /// Every manifest entry whose point is present, in manifest order.
    fn present_entries(&self) -> Vec<&ManifestEntry> {
        let mut indices: Vec<usize> = self.present.values().copied().collect();
        indices.sort_unstable();
        indices.into_iter().map(|i| &self.entries[i]).collect()
    }

    /// Load a present point's blob.  Returns `None` for absent keys and for
    /// blobs that no longer parse (both mean: re-execute).
    pub fn get(&self, key: &str) -> Option<StoredPoint> {
        if !self.contains(key) {
            return None;
        }
        let text = fs::read_to_string(self.point_path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Persist one executed point: blob first (temp file + rename), manifest
    /// line last.  The manifest line carries a checksum of the blob's exact
    /// bytes so [`ResultStore::verify`] can detect later corruption.
    pub fn insert(&mut self, figure: &str, point: &StoredPoint) -> io::Result<()> {
        self.insert_parts(figure, &point.key, &point.spec, &point.result)
    }

    /// [`ResultStore::insert`] from borrowed parts: writes the bytes a
    /// [`StoredPoint`] of them serializes to, without copying the spec and
    /// result into one.
    pub fn insert_parts(
        &mut self,
        figure: &str,
        key: &str,
        spec: &ScenarioSpec,
        result: &SimResult,
    ) -> io::Result<()> {
        let point = StoredPointRef { key, spec, result };
        let blob = serde_json::to_string(&point).expect("stored point serializes");
        let entry = ManifestEntry {
            key: key.to_string(),
            figure: figure.to_string(),
            label: spec.label.clone(),
            scheme: spec.scheme.id().to_string(),
            seed: spec.seed,
            checksum: pbe_stats::fnv1a_128_hex(blob.as_bytes()),
        };
        let path = self.point_path(key);
        let tmp = self.dir.join("points").join(format!(".{key}.tmp"));
        fs::write(&tmp, blob)?;
        fs::rename(&tmp, &path)?;
        let line = serde_json::to_string(&entry).expect("manifest entry serializes");
        let mut manifest = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.manifest_path())?;
        writeln!(manifest, "{line}")?;
        self.present.insert(entry.key.clone(), self.entries.len());
        // A successful execution supersedes any quarantine on the key (the
        // file keeps the historical record; the in-memory view moves on).
        self.quarantined.remove(&entry.key);
        self.entries.push(entry);
        Ok(())
    }

    /// Path of the quarantine file.
    fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    /// The quarantine record of a key, if any.
    pub fn quarantine_entry(&self, key: &str) -> Option<&PointFailure> {
        self.quarantined.get(key)
    }

    /// Every quarantined point, in key order.
    pub fn quarantined(&self) -> Vec<&PointFailure> {
        self.quarantined.values().collect()
    }

    /// Persist a point failure: the key is skipped-and-reported by
    /// store-aware executors until the quarantine is lifted (the blob, if
    /// any, stays untouched).
    pub fn quarantine(&mut self, failure: &PointFailure) -> io::Result<()> {
        let line = serde_json::to_string(failure).expect("point failure serializes");
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.quarantine_path())?;
        writeln!(file, "{line}")?;
        self.quarantined
            .insert(failure.key.clone(), failure.clone());
        Ok(())
    }

    /// Check every present point's blob against its manifest checksum.
    ///
    /// Reports, in manifest order: blobs whose bytes no longer match the
    /// checksum recorded at insert time (truncation, corruption), and blobs
    /// whose checksum matches but that do not parse as a [`StoredPoint`] of
    /// this build.  A clean store returns an empty list.
    pub fn verify(&self) -> Vec<StoreIssue> {
        let mut issues = Vec::new();
        for entry in self.present_entries() {
            let path = self.point_path(&entry.key);
            let text = match fs::read_to_string(&path) {
                Ok(text) => text,
                Err(err) => {
                    issues.push(StoreIssue {
                        key: entry.key.clone(),
                        figure: entry.figure.clone(),
                        problem: format!("blob unreadable: {err}"),
                    });
                    continue;
                }
            };
            let actual = pbe_stats::fnv1a_128_hex(text.as_bytes());
            if actual != entry.checksum {
                issues.push(StoreIssue {
                    key: entry.key.clone(),
                    figure: entry.figure.clone(),
                    problem: format!(
                        "checksum mismatch (manifest {}, blob {actual})",
                        entry.checksum
                    ),
                });
                continue;
            }
            if serde_json::from_str::<StoredPoint>(&text).is_err() {
                issues.push(StoreIssue {
                    key: entry.key.clone(),
                    figure: entry.figure.clone(),
                    problem: "blob does not parse as a stored point".to_string(),
                });
            }
        }
        issues
    }

    /// Drop a point: delete its blob so the key counts as absent and
    /// re-executes.  Manifest lines are append-only history and stay.
    pub fn invalidate(&mut self, key: &str) -> io::Result<()> {
        self.present.remove(key);
        let path = self.point_path(key);
        if path.exists() {
            fs::remove_file(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::run_cached;
    use pbe_netsim::SchemeChoice;
    use pbe_stats::time::Duration;
    use serde::Value;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbe_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_point(seed: u64) -> StoredPoint {
        let spec =
            ScenarioSpec::single_flow("store", SchemeChoice::Pbe, Duration::from_millis(200))
                .seed(seed);
        let result = spec.run();
        StoredPoint {
            key: spec.content_key(),
            spec,
            result,
        }
    }

    #[test]
    fn points_round_trip_and_reopen() {
        let dir = temp_store("roundtrip");
        let point = tiny_point(1);
        let mut store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.insert("figX", &point).unwrap();
        assert!(store.contains(&point.key));
        assert_eq!(store.entry(&point.key).unwrap().figure, "figX");

        // A fresh handle sees the same state, and the blob is byte-faithful.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let loaded = reopened.get(&point.key).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded.result).unwrap(),
            serde_json::to_string(&point.result).unwrap()
        );
        assert_eq!(loaded.spec.content_key(), point.key);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_blob_or_manifest_line_means_absent() {
        let dir = temp_store("absent");
        let a = tiny_point(2);
        let b = tiny_point(3);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.insert("figX", &a).unwrap();
            store.insert("figX", &b).unwrap();
        }
        // Deleting a blob invalidates exactly that point.
        fs::remove_file(dir.join("points").join(format!("{}.json", a.key))).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(!store.contains(&a.key));
        assert!(store.contains(&b.key));

        // Truncating the manifest (simulated kill) invalidates the tail even
        // though the blob survives.
        let manifest = fs::read_to_string(dir.join("manifest.jsonl")).unwrap();
        let first_line: String = manifest.lines().next().unwrap().to_string();
        fs::write(dir.join("manifest.jsonl"), format!("{first_line}\n")).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(!store.contains(&b.key));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_corrupted_and_truncated_blobs() {
        let dir = temp_store("verify");
        let a = tiny_point(5);
        let b = tiny_point(6);
        let mut store = ResultStore::open(&dir).unwrap();
        store.insert("figX", &a).unwrap();
        store.insert("figX", &b).unwrap();
        assert!(store.verify().is_empty(), "fresh store verifies clean");

        // Truncate one blob (simulated torn write / disk trouble).
        let path = store.point_path(&a.key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let issues = ResultStore::open(&dir).unwrap().verify();
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].key, a.key);
        assert!(issues[0].problem.contains("checksum mismatch"));

        // Invalidating the bad key makes it absent; the good key verifies.
        let mut store = ResultStore::open(&dir).unwrap();
        store.invalidate(&a.key).unwrap();
        assert!(!store.contains(&a.key));
        assert!(store.contains(&b.key));
        let reopened = ResultStore::open(&dir).unwrap();
        assert!(!reopened.contains(&a.key));
        assert!(reopened.verify().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_an_older_build_wrote_count_as_absent_and_re_execute() {
        let dir = temp_store("older");
        let (a, b) = (tiny_point(7), tiny_point(9));
        let specs = vec![a.spec.clone(), b.spec.clone()];
        let mut store = ResultStore::open(&dir).unwrap();
        let first = run_cached("figX", specs.clone(), Some(&mut store), 1).unwrap();
        assert_eq!(first.executed, 2);

        // `a`: a manifest line without a checksum.  `b`: a blob that lacks
        // one result field, under a manifest line whose checksum matches it.
        let manifest = fs::read_to_string(store.manifest_path()).unwrap();
        let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
        let Value::Object(mut fields) = serde_json::parse(&lines[0]).unwrap() else {
            panic!("a manifest line is an object")
        };
        fields.retain(|(k, _)| k != "checksum");
        lines[0] = serde_json::to_string(&Value::Object(fields)).unwrap();
        let blob = fs::read_to_string(store.point_path(&b.key)).unwrap();
        let old_blob = blob.replace(",\"fault_recovery\":[]", "");
        assert_ne!(old_blob, blob, "the field was removed");
        fs::write(store.point_path(&b.key), &old_blob).unwrap();
        let entry: ManifestEntry = serde_json::from_str(&lines[1]).unwrap();
        lines[1] = serde_json::to_string(&ManifestEntry {
            checksum: pbe_stats::fnv1a_128_hex(old_blob.as_bytes()),
            ..entry
        })
        .unwrap();
        fs::write(store.manifest_path(), lines.join("\n") + "\n").unwrap();

        let mut store = ResultStore::open(&dir).unwrap();
        assert!(
            !store.contains(&a.key),
            "a line without a checksum is absent"
        );
        assert!(
            store.get(&b.key).is_none(),
            "an unreadable blob is not served"
        );
        assert_eq!(store.verify().len(), 1, "verify names the unreadable blob");
        let rerun = run_cached("figX", specs.clone(), Some(&mut store), 1).unwrap();
        assert_eq!((rerun.executed, rerun.cached), (2, 0));
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.verify().is_empty(), "re-executed points verify clean");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_round_trips_across_reopen_and_lifts_on_success() {
        let dir = temp_store("quarantine");
        let a = tiny_point(8);
        let failure = PointFailure {
            key: a.key.clone(),
            figure: "figX".to_string(),
            label: a.spec.label.clone(),
            scheme: a.spec.scheme.id().to_string(),
            seed: a.spec.seed,
            message: "boom".to_string(),
        };
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.quarantine(&failure).unwrap();
            assert_eq!(store.quarantine_entry(&a.key), Some(&failure));
        }
        // A fresh handle sees the quarantine.
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.quarantined(), vec![&failure]);
        // A later successful execution lifts it — in memory and on reopen
        // (the blob's presence supersedes the persisted record).
        store.insert("figX", &a).unwrap();
        assert!(store.quarantine_entry(&a.key).is_none());
        assert!(
            ResultStore::open(&dir)
                .unwrap()
                .quarantine_entry(&a.key)
                .is_none(),
            "a stale quarantine line does not resurrect a healthy point"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_line_is_skipped_not_fatal() {
        let dir = temp_store("torn");
        let a = tiny_point(4);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.insert("figX", &a).unwrap();
        }
        // Simulate a kill mid-append: a half-written JSON line.
        let mut manifest = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("manifest.jsonl"))
            .unwrap();
        write!(manifest, "{{\"key\":\"deadbeef\",\"figu").unwrap();
        drop(manifest);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(&a.key));
        fs::remove_dir_all(&dir).unwrap();
    }
}
