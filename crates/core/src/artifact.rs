//! The artifact sink: one call prints an experiment result and persists
//! its text + CSV forms.
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
//! a read-only checkout still prints every table. Artifacts are outputs
//! only: nothing reads them back. Reuse of simulated runs across
//! processes goes through the completion journal ([`crate::journal`]),
//! keyed by request.

use std::fs;
use std::io;
use std::path::PathBuf;

use crate::report::TextTable;

/// The directory experiment artifacts are written to: `HOGTAME_RESULTS`
/// if set, else `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("HOGTAME_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
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
}
