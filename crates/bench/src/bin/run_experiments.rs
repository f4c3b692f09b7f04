//! Prints every experiment's table (E1-E21, A1-A2). `SPINN_FULL=1` for
//! the full-size versions quoted in the README.
//!
//! Experiments with machine-readable benchmark emitters (E14, E15,
//! E16, E17, E18, E19, E20, E21) also write their commit-stamped
//! `BENCH_*.json` artifact to the current directory (run from the
//! repository root to refresh the committed artifacts).
//!
//! Usage: `run_experiments [NAME...]` — with arguments, only the named
//! experiments run (e.g. `run_experiments E14` regenerates just the
//! benchmark artifact).

use std::path::Path;

use spinn_bench::experiments as e;
use spinn_bench::experiments::{
    e14_event_core as e14, e15_memory_model as e15, e16_sessions as e16, e17_telemetry as e17,
    e18_collected_win as e18, e19_resilience as e19, e20_scaling as e20, e21_serving as e21,
};
use spinn_bench::record::BenchReport;

/// One experiment: its name and table generator.
type Experiment = (&'static str, fn(bool) -> String);

/// One experiment with a benchmark artifact: its name, measurement and
/// table formatter.
type Reported = (
    &'static str,
    fn(bool) -> BenchReport,
    fn(&BenchReport) -> String,
);

fn main() {
    let quick = !spinn_bench::full_mode();
    let mode = if quick { "quick" } else { "full" };
    let filter: Vec<String> = std::env::args().skip(1).map(|a| a.to_uppercase()).collect();
    let wanted = |name: &str| filter.is_empty() || filter.iter().any(|f| f == name);
    println!("SpiNNaker reproduction — experiment suite ({mode} mode)\n");
    let runs: [Experiment; 15] = [
        ("E1", e::e01_glitch_deadlock::run),
        ("E2", e::e02_link_protocols::run),
        ("E3", e::e03_emergency_routing::run),
        ("E4", e::e04_realtime_latency::run),
        ("E5", e::e05_flood_fill::run),
        ("E6", e::e06_boot::run),
        ("E7", e::e07_cost_energy::run),
        ("E8", e::e08_multicast_vs_broadcast::run),
        ("E9", e::e09_scaling::run),
        ("E10", e::e10_placement::run),
        ("E11", e::e11_retina::run),
        ("E12", e::e12_parallel_execution::run),
        ("E13", e::e13_table_minimization::run),
        ("A1", e::a01_router_waits::run),
        ("A2", e::a02_default_route_elision::run),
    ];
    for (name, f) in runs {
        if !wanted(name) {
            continue;
        }
        println!("==================================================================");
        println!("{}", f(quick));
    }
    // Experiments with machine-readable emitters print their table and
    // write the JSON artifact from the same measurement.
    let reports: [Reported; 8] = [
        ("E14", e14::report, e14::format_report),
        ("E15", e15::report, e15::format_report),
        ("E16", e16::report, e16::format_report),
        ("E17", e17::report, e17::format_report),
        ("E18", e18::report, e18::format_report),
        ("E19", e19::report, e19::format_report),
        ("E20", e20::report, e20::format_report),
        ("E21", e21::report, e21::format_report),
    ];
    for (name, measure, format) in reports {
        if !wanted(name) {
            continue;
        }
        println!("==================================================================");
        let report = measure(quick);
        println!("{}", format(&report));
        match report.write_to(Path::new(".")) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write the {name} report: {err}"),
        }
    }

    // A typo'd filter (e.g. `run_experiments E17`) must not masquerade
    // as a successful run that silently produced nothing.
    let known: Vec<&str> = runs
        .iter()
        .map(|(n, _)| *n)
        .chain(reports.iter().map(|(n, _, _)| *n))
        .collect();
    let unknown: Vec<&String> = filter
        .iter()
        .filter(|f| !known.contains(&f.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment name(s): {unknown:?} (known: {known:?})");
        std::process::exit(2);
    }
}
