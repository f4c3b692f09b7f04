//! The repository benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics and writes a span file. The last stdout line is the result
//! object; result and span files go to `--out` (default
//! `perfbench_results` under the working directory).

mod nets;
mod report;
mod serve;
mod sim;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{metrics_json, HostFacts, Outcome, RunRecord, Spans};

/// The seed whose spike fingerprints are recorded in the runner.
pub const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["dense_100k", "ring_64x64", "serve_mixed"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_s_per_bio_s", "s/s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("p50_latency_ms", "ms"),
    ("p99_latency_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 45] = [
    ("map.place_s", "s"),
    ("map.route_s", "s"),
    ("map.minimize_s", "s"),
    ("map.load_s", "s"),
    ("core.build_unattributed_s", "s"),
    ("sim.events", "count"),
    ("sim.queue_pop_s", "s"),
    ("sim.queue_pop_ns", "ns"),
    ("sim.queue_peak", "count"),
    ("neuron.ticks", "count"),
    ("neuron.tick_s", "s"),
    ("neuron.ns_per_neuron", "ns"),
    ("neuron.synaptic_events", "count"),
    ("neuron.row_walk_s", "s"),
    ("neuron.ns_per_synaptic_event", "ns"),
    ("neuron.dma_bytes", "B"),
    ("noc.packets_mc", "count"),
    ("noc.router_lookup_s", "s"),
    ("noc.packets_dropped", "count"),
    ("noc.emergency_hops", "count"),
    ("noc.delivery_ratio", "ratio"),
    ("par.windows", "count"),
    ("par.windows_per_bio_ms", "1/ms"),
    ("par.barrier_wait_s", "s"),
    ("par.barrier_share", "ratio"),
    ("par.exchanged", "count"),
    ("par.shard_skew", "ratio"),
    ("par.effective_threads", "count"),
    ("machine.resident_mb", "MiB"),
    ("machine.bytes_per_synapse", "B"),
    ("machine.lazy_rows_materialized", "count"),
    ("run.events_per_spike", "ratio"),
    ("run.unattributed_share", "ratio"),
    ("obs.overhead", "ratio"),
    ("session.checkpoint_ms", "ms"),
    ("session.snapshot_bytes", "B"),
    ("session.restore_ms", "ms"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.rehydrates", "count"),
    ("serve.batches", "count"),
    ("serve.coalesced_jobs", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.warm_service_p50_ms", "ms"),
    ("serve.miss_service_p50_ms", "ms"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut commit) =
        (None, DEFAULT_SEED, 10.0_f64, false, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--commit" => commit = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        commit,
    })
}

fn run(args: &Args, spans: &mut Spans) -> Outcome {
    if args.workload == "serve_mixed" {
        let fleet = serve::fleet(args.seed);
        if args.trace {
            serve::trace(&fleet, args.seconds, spans)
        } else {
            serve::measure(&fleet, args.seconds)
        }
    } else {
        let w = sim::workload(&args.workload, args.seed).expect("workload name was checked");
        if args.trace {
            sim::trace(&w, args.seconds, spans)
        } else {
            sim::measure(&w, args.seconds)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = HostFacts::gather(args.commit.clone(), &cwd);
    let unix_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let trace_id = format!(
        "{}-seed{}-{}-{unix_ns}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let mut spans = Spans::new(args.trace, trace_id);

    let outcome = run(&args, &mut spans);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut not_exercised = Vec::new();
    let metrics: Vec<(&'static str, f64, &'static str)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or_else(|| {
                not_exercised.push(name);
                0.0
            });
            (name, value, unit)
        })
        .collect();
    let correct = outcome.failed == 0 && !outcome.checks_failed;
    let record = RunRecord {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        host: &host,
        outcome: &outcome,
        correct,
        metrics: &metrics,
        not_exercised: &not_exercised,
    };

    let (requested, effective) = outcome.threads;
    println!(
        "workload {} seed {} commit {} host_cores {} threads requested {requested} effective {effective}{}",
        args.workload,
        args.seed,
        host.commit,
        host.host_cores,
        if requested > 1 && effective <= 1 {
            " (PARALLEL RUN COLLAPSED TO SERIAL: not a parallel number)"
        } else {
            ""
        }
    );
    for (label, spikes, fp) in &outcome.fingerprints {
        println!("fingerprint {label}: {spikes} spikes, {fp:016x}");
    }
    for &(name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let dir = report::out_dir(args.out.as_deref(), &cwd);
    match record.write(&dir, &spans) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("perfbench: cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
