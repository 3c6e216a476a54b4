//! End-to-end tests for the `hogtame` CLI's `run`, `trace`, `stats` and
//! `fleet` subcommands: exit codes on missing or malformed input, validity
//! of the exported JSON artifacts, and byte-stable output across runs.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn hogtame(args: &[&str], results: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hogtame"))
        .args(args)
        .env("HOGTAME_RESULTS", results)
        .output()
        .expect("hogtame binary spawns")
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hogtame-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A minimal JSON syntax checker (the workspace builds offline, with no
/// serde): accepts exactly the RFC 8259 grammar, rejects trailing garbage.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let i = value(b, ws(b, 0))?;
        match ws(b, i) {
            j if j == b.len() => Ok(()),
            j => Err(format!("trailing garbage at byte {j}")),
        }
    }

    fn ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        match b.get(i) {
            Some(b'{') => composite(b, i, b'}', true),
            Some(b'[') => composite(b, i, b']', false),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(format!("expected a value at byte {i}")),
        }
    }

    fn composite(b: &[u8], i: usize, close: u8, keyed: bool) -> Result<usize, String> {
        let mut i = ws(b, i + 1);
        if b.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            if keyed {
                i = ws(b, string(b, ws(b, i))?);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                i += 1;
            }
            i = ws(b, value(b, ws(b, i))?);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(c) if *c == close => return Ok(i + 1),
                _ => return Err(format!("expected ',' or close at byte {i}")),
            }
        }
    }

    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}"));
        }
        let mut i = i + 1;
        while let Some(&c) = b.get(i) {
            match c {
                b'"' => return Ok(i + 1),
                b'\\' => match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                    Some(b'u')
                        if b.len() > i + 5 && b[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) =>
                    {
                        i += 6;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                },
                0x00..=0x1F => return Err(format!("raw control char at byte {i}")),
                _ => i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn literal(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
        if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
            Ok(i + lit.len())
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }

    fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
        let start = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        let digits = |b: &[u8], mut i: usize| {
            let s = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            (i, i > s)
        };
        let (j, ok) = digits(b, i);
        if !ok {
            return Err(format!("bad number at byte {start}"));
        }
        i = j;
        if b.get(i) == Some(&b'.') {
            let (j, ok) = digits(b, i + 1);
            if !ok {
                return Err(format!("bad fraction at byte {i}"));
            }
            i = j;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let (j, ok) = digits(b, i);
            if !ok {
                return Err(format!("bad exponent at byte {i}"));
            }
            i = j;
        }
        Ok(i)
    }
}

#[test]
fn missing_and_malformed_input_exits_2() {
    let dir = scratch("badargs");
    let cases: &[&[&str]] = &[
        &[],                                  // no subcommand
        &["frobnicate"],                      // unknown subcommand
        &["trace"],                           // missing benchmark
        &["stats"],                           // missing benchmark
        &["trace", "MATVEC", "--sleep"],      // flag missing its value
        &["stats", "MATVEC", "--sleep", "x"], // unparseable value
        &["trace", "MATVEC", "--bogus"],      // unknown flag
        &["run"],                             // missing benchmark
        &["run", "MATVEC", "--trace"],        // removed flag
    ];
    for args in cases {
        let out = hogtame(args, &dir);
        assert_eq!(
            out.status.code(),
            Some(2),
            "hogtame {args:?} must exit 2, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "hogtame {args:?} stderr: {err}");
    }

    // Unknown benchmarks and versions get targeted messages, same code.
    let out = hogtame(&["trace", "NOSUCH"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
    let out = hogtame(&["stats", "MATVEC", "Z"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown version"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_prints_report_and_occupancy_chart() {
    let dir = scratch("run");
    let out = hogtame(&["run", "MATVEC", "R", "--sleep", "1", "--timeline"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("MATVEC-R:"), "report header: {stdout}");
    assert!(stdout.contains("interactive:"), "co-run report: {stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("free") && l.contains(" |")),
        "occupancy chart: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trace_exports_valid_json_artifacts() {
    let dir = scratch("trace");
    let out = hogtame(&["trace", "MATVEC", "R"], &dir);
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let chrome = fs::read_to_string(dir.join("trace_matvec_r.trace.json"))
        .expect("Chrome trace artifact written");
    json::validate(&chrome).expect("Chrome trace must be valid JSON");

    let jsonl =
        fs::read_to_string(dir.join("trace_matvec_r.jsonl")).expect("JSONL artifact written");
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "event stream must not be empty");
    for (n, line) in lines.iter().enumerate() {
        json::validate(line).unwrap_or_else(|e| panic!("jsonl line {}: {e}", n + 1));
        assert!(
            line.starts_with('{'),
            "each JSONL line is one object: {line}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stats_output_is_stable_across_runs() {
    let (da, db) = (scratch("stats-a"), scratch("stats-b"));
    let a = hogtame(&["stats", "MATVEC", "R"], &da);
    let b = hogtame(&["stats", "MATVEC", "R"], &db);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "stats must be byte-stable run to run (deterministic simulation)"
    );
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(
        stdout.contains("hint-outcome attribution"),
        "stats prints the outcome table: {stdout}"
    );

    // The Prometheus export is persisted and identical too.
    let prom_a = fs::read(da.join("stats_matvec_r.prom")).expect(".prom artifact");
    let prom_b = fs::read(db.join("stats_matvec_r.prom")).expect(".prom artifact");
    assert_eq!(prom_a, prom_b);
    assert!(
        String::from_utf8_lossy(&prom_a).contains("# TYPE"),
        "Prometheus exposition format"
    );
    let _ = fs::remove_dir_all(&da);
    let _ = fs::remove_dir_all(&db);
}

#[test]
fn fleet_renders_tails_and_overload_record() {
    let dir = scratch("fleet");
    // `--calm` drops the storm: the run exercises the whole fleet path
    // (arrivals, pressure sampling, per-tenant tails) in seconds.
    let out = hogtame(&["fleet", "--calm"], &dir);
    assert!(
        out.status.success(),
        "fleet failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "(all)",
        "fairness (Jain over per-tenant means):",
        "tenants shed:",
        "brownout transitions:",
        "time at level:",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
    }
    let prom = fs::read_to_string(dir.join("fleet_calm.prom")).expect(".prom artifact");
    assert!(prom.contains("# TYPE"), "Prometheus exposition format");
    assert!(
        fs::read_to_string(dir.join("fleet_calm.txt"))
            .expect(".txt artifact")
            .contains("tenant"),
        "tail table persisted"
    );

    // Bad flags exit 2 with usage, like every other subcommand.
    let bad = hogtame(&["fleet", "--bogus"], &dir);
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("usage:"));
    let _ = fs::remove_dir_all(&dir);
}

// The JSON checker itself is load-bearing for the assertions above; pin
// its judgement on both sides.
#[test]
fn json_validator_accepts_and_rejects() {
    for ok in [
        "{}",
        "[]",
        r#"{"a": [1, -2.5e3, true, null, "x\né"]}"#,
        "  [ {\"k\":\"v\"} , 0 ]  ",
    ] {
        json::validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
    }
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "\"unterminated",
        "01x",
        "[1] trailing",
        "{\"a\":\u{1}\"ctl\"}",
    ] {
        assert!(json::validate(bad).is_err(), "{bad:?} must be rejected");
    }
}
