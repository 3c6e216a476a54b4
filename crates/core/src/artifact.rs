//! The artifact sink: one call prints an experiment result and persists
//! its text + CSV forms, plus the on-disk artifact cache the memoized
//! suite uses.
//!
//! Every reproduction binary used to hand-roll the same three steps
//! (print to stdout, write `<name>.txt`, write `<name>.csv`, each with its
//! own warn-and-continue error handling). [`Artifact`] collapses them:
//!
//! ```no_run
//! use hogtame::prelude::*;
//! let mut t = TextTable::new(vec!["bench", "speedup"]);
//! t.row(vec!["MATVEC".into(), "1.42".into()]);
//! Artifact::new("fig07", "Figure 7: normalized execution time").table(&t);
//! ```
//!
//! Artifacts land under [`results_dir`] (`results/`, overridable with
//! `HOGTAME_RESULTS`). Persistence failures warn on stderr and continue —
//! a read-only checkout still prints every table.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::report::TextTable;

/// The directory experiment artifacts are written to: `HOGTAME_RESULTS`
/// if set, else `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("HOGTAME_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Whether the on-disk artifact cache is enabled: `HOGTAME_CACHE` unset,
/// or set to anything but `0`, `off`, or `no`.
pub fn cache_enabled() -> bool {
    match std::env::var("HOGTAME_CACHE") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "off" | "no"),
        Err(_) => true,
    }
}

/// The artifact-cache root, under the results directory.
pub fn cache_dir() -> PathBuf {
    results_dir().join(".cache")
}

/// A named, titled experiment artifact bound to an output directory.
#[derive(Clone, Debug)]
pub struct Artifact {
    name: String,
    title: String,
    dir: PathBuf,
}

impl Artifact {
    /// An artifact that persists under [`results_dir`].
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Artifact {
            name: name.into(),
            title: title.into(),
            dir: results_dir(),
        }
    }

    /// Redirects persistence to an explicit directory (tests).
    #[must_use]
    pub fn in_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }

    /// The artifact name (file stem under the output directory).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Prints the titled table to stdout and persists `<name>.txt` +
    /// `<name>.csv`, warning (not failing) if persistence is impossible.
    pub fn table(&self, table: &TextTable) {
        println!("{}\n", self.title);
        println!("{}", table.render());
        if let Err(e) = self.write_table(table) {
            eprintln!("warning: could not persist {}: {e}", self.name);
        }
    }

    /// Prints titled free-form text to stdout and persists `<name>.txt`,
    /// warning (not failing) if persistence is impossible.
    pub fn text(&self, body: &str) {
        println!("{}\n\n{body}", self.title);
        if let Err(e) = self.write_text(body) {
            eprintln!("warning: could not persist {}: {e}", self.name);
        }
    }

    /// Persists the table as `<dir>/<name>.txt` and `<dir>/<name>.csv`
    /// without printing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_table(&self, table: &TextTable) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let text = format!("{}\n\n{}", self.title, table.render());
        fs::write(self.dir.join(format!("{}.txt", self.name)), text)?;
        fs::write(self.dir.join(format!("{}.csv", self.name)), table.to_csv())?;
        Ok(())
    }

    /// Persists free-form text as `<dir>/<name>.txt` without printing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_text(&self, body: &str) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        fs::write(
            self.dir.join(format!("{}.txt", self.name)),
            format!("{}\n\n{body}", self.title),
        )
    }

    /// Persists `body` verbatim as `<dir>/<name>.<ext>` — machine-readable
    /// exports (Chrome trace JSON, JSONL event streams, Prometheus text)
    /// where a title prefix would corrupt the format. Returns the path
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_raw(&self, ext: &str, body: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.{ext}", self.name));
        fs::write(&path, body)?;
        Ok(path)
    }
}

/// The checksum line for one cached table: `<name> <fingerprint:016x>
/// <byte-length>` over the exact CSV bytes.
fn checksum_line(name: &str, csv: &str) -> String {
    format!(
        "{name} {:016x} {}",
        crate::journal::content_fingerprint("cache-table/v1", csv),
        csv.len()
    )
}

/// Loads a set of named tables from the cache entry `key`, or `None` if
/// any table is missing, unparseable, or fails verification against the
/// entry's `checksums.txt` (all treated as a cache miss — the caller
/// silently recomputes). A half-written, truncated, or hand-edited entry
/// can therefore never poison downstream figures.
pub fn cache_load(cache: &Path, key: u64, names: &[&str]) -> Option<Vec<TextTable>> {
    let entry = cache.join(format!("{key:016x}"));
    let checksums = fs::read_to_string(entry.join("checksums.txt")).ok()?;
    names
        .iter()
        .map(|name| {
            let csv = fs::read_to_string(entry.join(format!("{name}.csv"))).ok()?;
            checksums
                .lines()
                .any(|line| line == checksum_line(name, &csv))
                .then(|| TextTable::from_csv(&csv))?
        })
        .collect()
}

/// Stores named tables (as CSV) plus a human-readable manifest under the
/// cache entry `key`, atomically enough for concurrent writers: the entry
/// is built in a scratch directory and renamed into place last.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn cache_store(
    cache: &Path,
    key: u64,
    manifest: &str,
    tables: &[(&str, &TextTable)],
) -> io::Result<()> {
    let entry = cache.join(format!("{key:016x}"));
    let scratch = cache.join(format!(".tmp-{key:016x}-{}", std::process::id()));
    fs::create_dir_all(&scratch)?;
    let write_all = || -> io::Result<()> {
        let mut checksums = String::new();
        for (name, table) in tables {
            let csv = table.to_csv();
            checksums.push_str(&checksum_line(name, &csv));
            checksums.push('\n');
            fs::write(scratch.join(format!("{name}.csv")), csv)?;
        }
        fs::write(scratch.join("checksums.txt"), checksums)?;
        fs::write(scratch.join("manifest.txt"), manifest)?;
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = fs::remove_dir_all(&scratch);
        return Err(e);
    }
    if entry.exists() {
        // A concurrent run already populated this key with (by
        // construction) identical contents; keep theirs.
        let _ = fs::remove_dir_all(&scratch);
        return Ok(());
    }
    match fs::rename(&scratch, &entry) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_dir_all(&scratch);
            // Lost a rename race to an identical writer: still a success.
            if entry.exists() {
                Ok(())
            } else {
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hogtame-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_table() -> TextTable {
        let mut t = TextTable::new(vec!["k", "v"]);
        t.row(vec!["a,b".into(), "quote \"x\"".into()]);
        t.row(vec!["plain".into(), "1.5".into()]);
        t
    }

    #[test]
    fn results_dir_env_override() {
        // The only test in this crate that sets the variable.
        std::env::set_var("HOGTAME_RESULTS", "/tmp/hogtame-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/hogtame-results-test"));
        std::env::remove_var("HOGTAME_RESULTS");
        assert_eq!(results_dir(), PathBuf::from("results"));
    }

    #[test]
    fn artifact_writes_txt_and_csv() {
        let dir = scratch("table");
        let t = sample_table();
        Artifact::new("x", "Title")
            .in_dir(&dir)
            .write_table(&t)
            .unwrap();
        assert!(dir.join("x.txt").exists());
        let txt = fs::read_to_string(dir.join("x.txt")).unwrap();
        assert!(txt.starts_with("Title\n\n"));
        assert_eq!(fs::read_to_string(dir.join("x.csv")).unwrap(), t.to_csv());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_writes_text() {
        let dir = scratch("text");
        Artifact::new("listing", "Figure 5")
            .in_dir(&dir)
            .write_text("pf(&a[i])")
            .unwrap();
        let txt = fs::read_to_string(dir.join("listing.txt")).unwrap();
        assert_eq!(txt, "Figure 5\n\npf(&a[i])");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_roundtrip_and_miss() {
        let dir = scratch("cache");
        let t = sample_table();
        assert!(cache_load(&dir, 42, &["x"]).is_none(), "cold cache misses");
        cache_store(&dir, 42, "manifest", &[("x", &t)]).unwrap();
        let loaded = cache_load(&dir, 42, &["x"]).expect("hit");
        assert_eq!(loaded[0].to_csv(), t.to_csv());
        assert!(
            cache_load(&dir, 42, &["x", "y"]).is_none(),
            "partial = miss"
        );
        assert!(cache_load(&dir, 43, &["x"]).is_none(), "other key misses");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A corrupted, truncated, or tampered entry is a silent miss — the
    /// suite recomputes instead of rendering garbage.
    #[test]
    fn corrupted_cache_entries_are_silent_misses() {
        let t = sample_table();
        let entry_csv = |dir: &Path| dir.join(format!("{:016x}", 9u64)).join("x.csv");

        // Tampered payload: the CSV no longer matches its checksum.
        let dir = scratch("tamper");
        cache_store(&dir, 9, "m", &[("x", &t)]).unwrap();
        assert!(cache_load(&dir, 9, &["x"]).is_some(), "sanity: clean hit");
        fs::write(entry_csv(&dir), "k,v\nevil,1.5\n").unwrap();
        assert!(cache_load(&dir, 9, &["x"]).is_none(), "tampered = miss");
        let _ = fs::remove_dir_all(&dir);

        // Truncated payload: the stored length no longer matches.
        let dir = scratch("truncate");
        cache_store(&dir, 9, "m", &[("x", &t)]).unwrap();
        let full = fs::read_to_string(entry_csv(&dir)).unwrap();
        fs::write(entry_csv(&dir), &full[..full.len() - 3]).unwrap();
        assert!(cache_load(&dir, 9, &["x"]).is_none(), "truncated = miss");
        let _ = fs::remove_dir_all(&dir);

        // Missing or mangled checksums file: nothing can be verified.
        let dir = scratch("nosums");
        cache_store(&dir, 9, "m", &[("x", &t)]).unwrap();
        let sums = dir.join(format!("{:016x}", 9u64)).join("checksums.txt");
        fs::write(&sums, "x 0000000000000bad 3\n").unwrap();
        assert!(cache_load(&dir, 9, &["x"]).is_none(), "bad sums = miss");
        fs::remove_file(&sums).unwrap();
        assert!(cache_load(&dir, 9, &["x"]).is_none(), "no sums = miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_store_is_idempotent() {
        let dir = scratch("idem");
        let t = sample_table();
        cache_store(&dir, 7, "m", &[("x", &t)]).unwrap();
        cache_store(&dir, 7, "m", &[("x", &t)]).unwrap();
        assert!(cache_load(&dir, 7, &["x"]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
