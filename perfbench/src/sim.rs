//! The simulation workloads. One op is one user job: build the
//! workload's network onto its machine (`Simulation::build`), run it
//! for a fixed span of biological time, and check its spike stream.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use spinn_bench::experiments::e20_scaling::peak_rss_bytes;
use spinnaker::map::loader::{BuildOptions, LazyMode, LoadedApp};
use spinnaker::map::place::Placement;
use spinnaker::map::route::RoutingPlan;
use spinnaker::obs::{Counter, Phase};
use spinnaker::prelude::*;
use spinnaker::Completed;

use crate::nets;
use crate::report::{median, quantile, Outcome, Spans};
use crate::DEFAULT_SEED;

const MIB: f64 = 1024.0 * 1024.0;

/// A simulation workload, generated from a seed.
pub struct SimWorkload {
    net: NetworkGraph,
    /// The measured configuration (telemetry off).
    cfg: SimConfig,
    /// A configuration across a seam the repository guarantees
    /// bit-exact (queue kind or thread count): the oracle for seeds
    /// without a recorded fingerprint.
    reference: SimConfig,
    bio_ms: u32,
    /// `(spikes, fingerprint)` recorded for the default seed.
    recorded: Option<(u64, u64)>,
}

/// The simulation workload `name` for `seed`, if there is one.
pub fn workload(name: &str, seed: u64) -> Option<SimWorkload> {
    let (net, cfg, bio_ms, default_seed_result) = match name {
        "dense_100k" => (
            nets::prob_net(seed, 20, 5_000, 0.02),
            SimConfig::new(8, 8)
                .with_neurons_per_core(256)
                .with_threads(1),
            30,
            (33_808, 0x9e5b_7c87_044a_d29f),
        ),
        "ring_64x64" => {
            let mut cfg = SimConfig::new(64, 64)
                .with_neurons_per_core(8)
                .with_threads(2);
            cfg.machine.cores_per_chip = 17;
            (
                nets::chip_ring_net(seed, 4096),
                cfg,
                40,
                (768, 0x793a_2431_6954_8ea5),
            )
        }
        _ => return None,
    };
    // The serial workload checks against the other queue kind, the
    // parallel ones against the serial engine.
    let reference = if cfg.threads > 1 {
        cfg.clone().with_threads(1)
    } else {
        cfg.clone().with_queue(QueueKind::Heap)
    };
    Some(SimWorkload {
        net,
        cfg,
        reference,
        bio_ms,
        recorded: (seed == DEFAULT_SEED).then_some(default_seed_result),
    })
}

/// One finished op.
struct Op {
    build_s: f64,
    run_s: f64,
    spikes: u64,
    fingerprint: u64,
    effective_threads: usize,
    lazy_rows_before: u64,
    done: Completed,
}

/// Builds `net` under `cfg`, timing the call. A build error or a
/// panic is an `Err`.
fn build(
    net: &NetworkGraph,
    cfg: SimConfig,
    spans: &mut Spans,
    parent: Option<u32>,
) -> Result<(Simulation, f64), String> {
    let (built, build_s) = spans.time("spinnaker::Simulation::build", parent, || {
        catch_unwind(AssertUnwindSafe(|| Simulation::build(net, cfg)))
    });
    match built {
        Ok(Ok(sim)) => Ok((sim, build_s)),
        Ok(Err(e)) => Err(format!("build failed: {e}")),
        Err(_) => Err("build panicked".to_string()),
    }
}

/// Builds and runs `net` under `cfg`, timing both calls. A build
/// error or a panic is an `Err`.
fn op(
    net: &NetworkGraph,
    cfg: SimConfig,
    bio_ms: u32,
    spans: &mut Spans,
    parent: Option<u32>,
) -> Result<Op, String> {
    let threads = cfg.threads as usize;
    let (sim, build_s) = build(net, cfg, spans, parent)?;
    let effective_threads = sim.machine().effective_threads(threads);
    let lazy_rows_before = sim.machine().total_lazy_rows();
    let (done, run_s) = spans.time("spinnaker::Simulation::run", parent, || {
        catch_unwind(AssertUnwindSafe(|| sim.run(bio_ms)))
    });
    let done = done.map_err(|_| "run panicked".to_string())?;
    let spikes = done.spikes();
    Ok(Op {
        build_s,
        run_s,
        spikes: spikes.len() as u64,
        fingerprint: nets::spike_fingerprint(&spikes),
        effective_threads,
        lazy_rows_before,
        done,
    })
}

/// Runs the reference pass and counts each op result that differs
/// from the expected `(spikes, fingerprint)`: the recorded one for the
/// default seed (which the reference must match too), else the
/// reference seam's.
fn check(w: &SimWorkload, results: &[(u64, u64)], out: &mut Outcome) {
    let mut spans = Spans::new(false, String::new());
    let expected = match op(&w.net, w.reference.clone(), w.bio_ms, &mut spans, None) {
        Ok(r) => {
            let reference = (r.spikes, r.fingerprint);
            out.fingerprints
                .push(("reference".into(), r.spikes, r.fingerprint));
            if w.recorded.is_some_and(|rec| rec != reference) {
                eprintln!(
                    "reference pass {reference:?} differs from the recorded {:?}",
                    w.recorded
                );
                out.checks_failed = true;
            }
            Some(w.recorded.unwrap_or(reference))
        }
        Err(e) => {
            eprintln!("reference pass: {e}");
            out.checks_failed = true;
            None
        }
    };
    if let Some(&(spikes, fp)) = results.first() {
        out.fingerprints.push(("op".into(), spikes, fp));
    }
    out.failed += results.iter().filter(|&&r| Some(r) != expected).count() as u64;
}

/// The untraced run: ops back to back for `seconds`, then the
/// reference pass.
pub fn measure(w: &SimWorkload, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: (w.cfg.threads, 0),
        ..Outcome::default()
    };
    let mut spans = Spans::new(false, String::new());
    let (mut build_s, mut run_s, mut latency_s, mut results) = (vec![], vec![], vec![], vec![]);
    // One untimed op first: the process's first op pays for page
    // faults and thread start-up, which would otherwise set p99. Its
    // spikes are checked like any other op's.
    out.attempted += 1;
    match op(&w.net, w.cfg.clone(), w.bio_ms, &mut spans, None) {
        Ok(o) => {
            eprintln!("warm-up op: build {:.4} s, run {:.4} s", o.build_s, o.run_s);
            results.push((o.spikes, o.fingerprint));
        }
        Err(e) => {
            eprintln!("warm-up op: {e}");
            out.failed += 1;
        }
    }
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while out.attempted == 1 || t0.elapsed() < budget {
        out.attempted += 1;
        match op(&w.net, w.cfg.clone(), w.bio_ms, &mut spans, None) {
            Ok(o) => {
                eprintln!(
                    "op {}: build {:.4} s, run {:.4} s",
                    out.attempted, o.build_s, o.run_s
                );
                build_s.push(o.build_s);
                run_s.push(o.run_s);
                latency_s.push(o.build_s + o.run_s);
                results.push((o.spikes, o.fingerprint));
                out.threads.1 = o.effective_threads;
            }
            Err(e) => {
                eprintln!("op {}: {e}", out.attempted);
                out.failed += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_bytes() as f64 / MIB;
    check(w, &results, &mut out);

    let timed = latency_s.len() as f64;
    out.set("setup_s", median(&build_s));
    out.set(
        "host_s_per_bio_s",
        median(&run_s) / (f64::from(w.bio_ms) / 1e3),
    );
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("jobs_per_s", timed / wall_s);
    out.set("p50_latency_ms", median(&latency_s) * 1e3);
    out.set("p99_latency_ms", quantile(&latency_s, 0.99) * 1e3);
    out
}

/// The traced run: for `seconds`, pairs of an untraced op and a traced
/// one (map stages timed from outside, then the build and run with
/// full telemetry). Per-layer values are medians over traced ops.
pub fn trace(w: &SimWorkload, seconds: f64, spans: &mut Spans) -> Outcome {
    let mut out = Outcome {
        threads: (w.cfg.threads, 0),
        ..Outcome::default()
    };
    let traced_cfg = w.cfg.clone().with_observability(ObsMode::CountersAndTrace);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut untraced_run_s, mut traced_run_s, mut results) = (vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while out.attempted == 0 || t0.elapsed() < budget {
        out.attempted += 2;
        let root = spans.begin("op_pair", None);
        let parent = root.id();
        match op(&w.net, w.cfg.clone(), w.bio_ms, spans, parent) {
            Ok(o) => {
                untraced_run_s.push(o.run_s);
                results.push((o.spikes, o.fingerprint));
            }
            Err(e) => {
                eprintln!("untraced op: {e}");
                out.failed += 1;
            }
        }
        let stages = map_stages(&w.net, &traced_cfg, spans, parent);
        match op(&w.net, traced_cfg.clone(), w.bio_ms, spans, parent) {
            Ok(o) => {
                traced_run_s.push(o.run_s);
                results.push((o.spikes, o.fingerprint));
                out.threads.1 = o.effective_threads;
                layer_samples(&mut samples, &o, stages, w.bio_ms);
            }
            Err(e) => {
                eprintln!("traced op: {e}");
                out.failed += 1;
            }
        }
        spans.end(root);
    }
    check(w, &results, &mut out);
    for (name, xs) in samples {
        out.set(name, median(&xs));
    }
    out.set(
        "obs.overhead",
        median(&traced_run_s) / median(&untraced_run_s) - 1.0,
    );
    out
}

/// Times the build's map stages from outside, exactly as
/// `Simulation::build` calls them: `[place, route, minimize, load]`
/// seconds.
fn map_stages(
    net: &NetworkGraph,
    cfg: &SimConfig,
    spans: &mut Spans,
    parent: Option<u32>,
) -> [f64; 4] {
    let m = &cfg.machine;
    let (placement, place_s) = spans.time("spinn_map::Placement::compute", parent, || {
        Placement::compute(
            net,
            m.width,
            m.height,
            m.cores_per_chip,
            cfg.neurons_per_core,
            cfg.placer,
        )
        .expect("the workload fits its machine")
    });
    let (plan, route_s) = spans.time("spinn_map::RoutingPlan::build", parent, || {
        RoutingPlan::build(net, &placement, m.width, m.height)
    });
    let (minimized, minimize_s) = spans.time("spinn_map::RoutingPlan::minimized", parent, || {
        plan.minimized()
    });
    let opts = BuildOptions {
        threads: cfg.threads as usize,
        lazy: LazyMode::Auto,
    };
    let (app, load_s) = spans.time("spinn_map::LoadedApp::build_with", parent, || {
        LoadedApp::build_with(net, &placement, opts)
    });
    black_box((minimized, app));
    [place_s, route_s, minimize_s, load_s]
}

/// Per-layer values of one traced op.
fn layer_samples(
    samples: &mut BTreeMap<&'static str, Vec<f64>>,
    o: &Op,
    stages: [f64; 4],
    bio_ms: u32,
) {
    let machine = &o.done.machine;
    let t = machine.telemetry();
    let count = |c| t.total(c) as f64;
    let phase_s = |p| t.phase_total(p).sum_ns as f64 * 1e-9;
    let [place_s, route_s, minimize_s, load_s] = stages;
    let events = count(Counter::Events);
    let mc = count(Counter::PacketsMc);
    let dropped = count(Counter::PacketsDropped);
    let pops = t.phase_total(Phase::QueuePop);
    let windows = machine.par_stats().map_or(0, |s| s.windows) as f64;
    let phase_total_s: f64 = Phase::ALL.iter().map(|&p| phase_s(p)).sum();
    let resident = machine.total_resident_bytes() as f64;
    let nan_to_zero = |x: f64| if x.is_finite() { x } else { 0.0 };
    let values = [
        ("map.place_s", place_s),
        ("map.route_s", route_s),
        ("map.minimize_s", minimize_s),
        ("map.load_s", load_s),
        (
            "core.build_unattributed_s",
            o.build_s - (place_s + route_s + minimize_s + load_s),
        ),
        ("sim.events", events),
        ("sim.queue_pop_s", phase_s(Phase::QueuePop)),
        (
            "sim.queue_pop_ns",
            pops.sum_ns as f64 / pops.count.max(1) as f64,
        ),
        ("sim.queue_peak", count(Counter::QueuePeak)),
        ("neuron.ticks", count(Counter::NeuronsTicked)),
        ("neuron.tick_s", phase_s(Phase::NeuronTick)),
        ("neuron.ns_per_neuron", nan_to_zero(t.ns_per_neuron())),
        ("neuron.synaptic_events", count(Counter::SynapticEvents)),
        ("neuron.row_walk_s", phase_s(Phase::RowWalk)),
        (
            "neuron.ns_per_synaptic_event",
            nan_to_zero(t.ns_per_synaptic_event()),
        ),
        ("neuron.dma_bytes", count(Counter::DmaBytes)),
        ("noc.packets_mc", mc),
        ("noc.router_lookup_s", phase_s(Phase::RouterLookup)),
        ("noc.packets_dropped", dropped),
        ("noc.emergency_hops", count(Counter::EmergencyHops)),
        (
            "noc.delivery_ratio",
            if mc > 0.0 { 1.0 - dropped / mc } else { 1.0 },
        ),
        ("par.windows", windows),
        ("par.windows_per_bio_ms", windows / f64::from(bio_ms)),
        ("par.barrier_wait_s", phase_s(Phase::BarrierWait)),
        ("par.barrier_share", nan_to_zero(t.barrier_wait_share())),
        (
            "par.exchanged",
            machine.par_stats().map_or(0, |s| s.exchanged) as f64,
        ),
        ("par.shard_skew", nan_to_zero(t.shard_skew())),
        ("par.effective_threads", o.effective_threads as f64),
        ("machine.resident_mb", resident / MIB),
        (
            "machine.bytes_per_synapse",
            resident / machine.total_synapses().max(1) as f64,
        ),
        (
            "machine.lazy_rows_materialized",
            o.lazy_rows_before.saturating_sub(machine.total_lazy_rows()) as f64,
        ),
        ("run.events_per_spike", events / (o.spikes.max(1) as f64)),
        (
            "run.unattributed_share",
            1.0 - phase_total_s / (o.run_s * o.effective_threads as f64),
        ),
    ];
    for (name, v) in values {
        samples.entry(name).or_default().push(v);
    }
}
