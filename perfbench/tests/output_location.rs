//! The runner writes its result and span files where it is told: to
//! `--out`, else under the working directory — never beside its own
//! sources.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Runs a short traced `serve_mixed` in `cwd` and returns its stdout.
fn run_in(cwd: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(cwd)
        .args([
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            "1",
        ])
        .args(extra)
        .output()
        .expect("runner starts");
    assert!(
        out.status.success(),
        "runner failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn result_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn results_follow_the_working_directory_and_the_out_argument() {
    let manifest_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("perfbench_results");
    let before = result_files(&manifest_results);

    let cwd = fresh_temp_dir("cwd");
    let stdout = run_in(&cwd, &[]);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert_eq!(
        result_files(&cwd.join("perfbench_results")),
        [
            "serve_mixed-seed7-traced-spans.jsonl",
            "serve_mixed-seed7-traced.json"
        ]
    );

    let explicit = fresh_temp_dir("out").join("nested");
    let cwd2 = fresh_temp_dir("cwd2");
    run_in(&cwd2, &["--out", explicit.to_str().expect("utf-8 path")]);
    assert_eq!(
        result_files(&explicit),
        [
            "serve_mixed-seed7-traced-spans.jsonl",
            "serve_mixed-seed7-traced.json"
        ]
    );
    assert!(
        result_files(&cwd2).is_empty(),
        "nothing lands in the working directory"
    );
    let spans = std::fs::read_to_string(explicit.join("serve_mixed-seed7-traced-spans.jsonl"))
        .expect("span file");
    assert!(spans.contains("\"name\":\"spinnaker::RunSession::checkpoint\""));

    assert_eq!(
        result_files(&manifest_results),
        before,
        "nothing lands beside the sources"
    );
    for dir in [
        cwd,
        cwd2,
        explicit.parent().expect("has parent").to_path_buf(),
    ] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
