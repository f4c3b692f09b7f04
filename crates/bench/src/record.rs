//! Machine-readable benchmark records.
//!
//! Every experiment that makes a performance claim can emit a
//! [`BenchReport`] — a commit-stamped JSON document written to the
//! current directory (`BENCH_<experiment>.json`; the committed ones
//! live at the repository root) — so the performance
//! trajectory of the codebase is a sequence of diffable artifacts
//! rather than prose in tables. The serializer is hand-rolled: the
//! build environment is offline, so no serde.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::Command;

/// A JSON value (the subset benchmark reports need).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl Json {
    /// Serializes with 2-space indentation (stable, diffable output).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n:.6}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    Json::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// One measured configuration: a named row of `config` knobs and
/// `metrics` results.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// What was measured (e.g. `"queue_microbench"`).
    pub name: String,
    /// The knobs that produced it (mesh size, threads, queue kind...).
    pub config: Vec<(String, Json)>,
    /// The measured numbers (throughput, latency percentiles...).
    pub metrics: Vec<(String, Json)>,
}

impl BenchRecord {
    /// An empty record named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchRecord {
            name: name.into(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a configuration knob.
    pub fn config(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.config.push((key.into(), value.into()));
        self
    }

    /// Adds a measured metric.
    pub fn metric(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.metrics.push((key.into(), value.into()));
        self
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("config".into(), Json::Obj(self.config.clone())),
            ("metrics".into(), Json::Obj(self.metrics.clone())),
        ])
    }
}

/// A commit-stamped collection of [`BenchRecord`]s for one experiment.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Experiment id (e.g. `"E14"`).
    pub experiment: String,
    /// One-line description of what the numbers claim.
    pub title: String,
    /// `git rev-parse HEAD` at measurement time (or `"unknown"`).
    pub commit: String,
    /// `"quick"` or `"full"` harness mode.
    pub mode: String,
    /// The measured rows.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report stamped with the current commit.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>, quick: bool) -> Self {
        BenchReport {
            experiment: experiment.into(),
            title: title.into(),
            commit: git_commit(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// The report as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(|r| r.to_json()).collect()),
            ),
        ])
        .to_string_pretty()
    }

    /// Writes `BENCH_<experiment lowercased>.json` into `dir`,
    /// returning the path written.
    pub fn write_to(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.experiment.to_lowercase()));
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }
}

/// The current directory's git commit hash, or `"unknown"` outside
/// git.
///
/// Resolved against the process's working directory — the same place
/// `run_experiments` writes its reports — so a report written into a
/// checkout is stamped with that checkout's commit, whichever tree the
/// binary was built from.
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_serialization_round_trips_shapes() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Num(2.5)),
            ("c".into(), Json::Str("x\"y\n".into())),
            ("d".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("e".into(), Json::Obj(vec![])),
            ("nan".into(), Json::Num(f64::NAN)),
        ]);
        let s = j.to_string_pretty();
        assert!(s.contains("\"a\": 1"), "{s}");
        assert!(s.contains("\"b\": 2.5"), "{s}");
        assert!(s.contains("\\\"y\\n"), "{s}");
        assert!(s.contains("true"), "{s}");
        assert!(s.contains("\"e\": {}"), "{s}");
        assert!(s.contains("\"nan\": null"), "{s}");
    }

    #[test]
    fn report_carries_commit_and_records() {
        let mut report = BenchReport::new("E99", "test report", true);
        report.push(
            BenchRecord::new("row")
                .config("threads", 4u32)
                .metric("throughput", 123.456_f64),
        );
        let s = report.to_json_string();
        assert!(s.contains("\"experiment\": \"E99\""));
        assert!(s.contains("\"mode\": \"quick\""));
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("\"throughput\": 123.456"));
        assert!(!report.commit.is_empty());
    }

    #[test]
    fn write_to_lands_in_the_given_directory() {
        let dir = std::env::temp_dir().join(format!("spinn-bench-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let report = BenchReport::new("E99", "output location", true);
        let path = report.write_to(&dir).expect("report written");
        assert_eq!(path, dir.join("BENCH_e99.json"));
        let written = std::fs::read_to_string(&path).expect("report readable");
        std::fs::remove_dir_all(&dir).expect("scratch dir removed");
        assert_eq!(written, report.to_json_string());
    }
}
