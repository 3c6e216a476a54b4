//! Computes the build digest that names completion-journal records: an
//! FNV-1a hash, in sorted path order, of every source file under the
//! `src/` of each crate `hogtame` links (itself included) plus the
//! workspace's `Cargo.lock`. A journal written by one build therefore
//! misses in any build whose simulator sources differ.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose sources decide a run's outcome.
const CRATES: [&str; 7] = [
    "compiler",
    "core",
    "disk",
    "runtime",
    "sim-core",
    "vm",
    "workloads",
];

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("crates/ directory");
    let mut files = Vec::new();
    for name in CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect(&src, &mut files);
    }
    let lock = crates.parent().expect("workspace root").join("Cargo.lock");
    if lock.is_file() {
        println!("cargo:rerun-if-changed={}", lock.display());
        files.push(lock);
    }
    files.sort();
    let mut h = Fnv1a::new();
    for path in &files {
        let rel = path.strip_prefix(crates).unwrap_or(path);
        h.write(rel.to_string_lossy().as_bytes());
        h.write(&[0]);
        h.write(&fs::read(path).expect("readable source file"));
        h.write(&[0]);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(
        out.join("build_digest.rs"),
        format!("const BUILD_DIGEST: u64 = {:#018x};\n", h.0),
    )
    .expect("writable OUT_DIR");
}

/// Every file under `dir`, recursively.
fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, files);
        } else {
            files.push(path);
        }
    }
}

/// 64-bit FNV-1a (the same function as `sim_core::fingerprint::Fnv1a`,
/// which a build script cannot link).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
