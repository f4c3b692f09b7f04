//! What a run reports: metrics, runner-side spans, host facts, and the
//! files they are written to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A check outside the per-op counts failed (say, the reference
    /// pass disagreed with the recorded fingerprint).
    pub checks_failed: bool,
    /// Metric values by name (units live in the metric tables).
    pub values: BTreeMap<&'static str, f64>,
    /// Requested and post-clamp worker threads of the workload's runs.
    pub threads: (u32, usize),
    /// `(label, spike count, fingerprint)` for comparing commits on
    /// held-out seeds.
    pub fingerprints: Vec<(String, u64, u64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// One timed public call, recorded from the runner's side.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when enabled, keeps one [`Span`] per call in
/// memory. All spans of a run share `trace_id`.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    pub trace_id: String,
    pub spans: Vec<Span>,
}

/// A running span: hand it back to [`Spans::end`].
#[derive(Debug)]
pub struct Open {
    /// Index into [`Spans::spans`], when spans are kept.
    index: Option<usize>,
    start: Instant,
}

impl Open {
    /// The span id, usable as a parent before the span ends (`None`
    /// when spans are not kept).
    pub fn id(&self) -> Option<u32> {
        self.index
            .map(|i| u32::try_from(i).expect("span count fits u32"))
    }
}

impl Spans {
    pub fn new(enabled: bool, trace_id: String) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                id: u32::try_from(self.spans.len()).expect("span count fits u32"),
                parent,
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent);
        let out = f();
        (out, self.end(open))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(&self.trace_id),
                s.id,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values have no JSON form and become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `(name, value, unit)`.
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The host and build facts every result carries.
#[derive(Debug)]
pub struct HostFacts {
    pub commit: String,
    pub host_cores: usize,
}

impl HostFacts {
    /// `commit` from the argument, else from `.git` under the working
    /// directory, else `"unknown"`.
    pub fn gather(commit: Option<String>, cwd: &Path) -> HostFacts {
        HostFacts {
            commit: commit
                .or_else(|| git_head(cwd))
                .unwrap_or_else(|| "unknown".to_string()),
            host_cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

/// Resolves `.git/HEAD` under `dir` without running git (which would
/// search parent directories).
fn git_head(dir: &Path) -> Option<String> {
    let git = dir.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Where result and span files go: `--out` if given, else
/// `perfbench_results` under the working directory.
pub fn out_dir(arg: Option<&Path>, cwd: &Path) -> PathBuf {
    arg.map_or_else(|| cwd.join("perfbench_results"), Path::to_path_buf)
}

/// Everything written for one run, beside the printed result.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub host: &'a HostFacts,
    pub outcome: &'a Outcome,
    pub correct: bool,
    /// The reported metrics as `(name, value, unit)`.
    pub metrics: &'a [(&'static str, f64, &'static str)],
    /// Reported metrics this workload does not exercise (printed as 0).
    pub not_exercised: &'a [&'static str],
}

impl RunRecord<'_> {
    /// The result file's JSON.
    pub fn to_json(&self) -> String {
        let o = self.outcome;
        let (requested, effective) = o.threads;
        let fps: Vec<String> = o
            .fingerprints
            .iter()
            .map(|(label, spikes, fp)| {
                format!(
                    "{{\"label\": {}, \"spikes\": {spikes}, \"fingerprint\": \"{fp:016x}\"}}",
                    json_str(label)
                )
            })
            .collect();
        let skipped: Vec<String> = self.not_exercised.iter().map(|n| json_str(n)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \"host_cores\": {}, \
             \"threads_requested\": {requested}, \"threads_effective\": {effective}, \
             \"parallel_collapsed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"fingerprints\": [{}], \"not_exercised\": [{}], \"metrics\": {}}}\n",
            json_str(self.workload),
            self.seed,
            self.trace,
            json_str(&self.host.commit),
            self.host.host_cores,
            requested > 1 && effective <= 1,
            self.correct,
            o.attempted,
            o.failed,
            fps.join(", "),
            skipped.join(", "),
            metrics_json(self.metrics)
        )
    }

    /// Writes the result file, and the span file when spans were
    /// recorded, into `dir`; returns the paths written.
    pub fn write(&self, dir: &Path, spans: &Spans) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-{}",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        let result = dir.join(format!("{stem}.json"));
        std::fs::write(&result, self.to_json())?;
        let mut written = vec![result];
        if !spans.spans.is_empty() {
            let path = dir.join(format!("{stem}-spans.jsonl"));
            std::fs::write(&path, spans.to_jsonl())?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut spans = Spans::new(true, "t".into());
        let root = spans.begin("root", None);
        let ((), _) = spans.time("child", root.id(), || ());
        let secs = spans.end(root);
        assert!(secs >= 0.0);
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.spans[0].end_ns >= spans.spans[1].end_ns);
        let jsonl = spans.to_jsonl();
        assert!(jsonl.contains("\"name\":\"child\",") && jsonl.contains("\"parent_id\":0,"));
    }

    #[test]
    fn disabled_spans_still_time() {
        let mut spans = Spans::new(false, "t".into());
        let (x, secs) = spans.time("work", None, || 7);
        assert_eq!(x, 7);
        assert!(secs >= 0.0);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn out_dir_follows_argument_or_working_directory() {
        let cwd = Path::new("some/checkout");
        assert_eq!(out_dir(None, cwd), cwd.join("perfbench_results"));
        let explicit = Path::new("elsewhere/results");
        assert_eq!(out_dir(Some(explicit), cwd), explicit);
    }
}
