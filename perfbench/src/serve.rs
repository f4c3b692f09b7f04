//! `serve_mixed`: `spinn-serve` under a closed loop of two clients,
//! each keeping one job outstanding. One op is one job.
//!
//! A run is a sequence of rounds. Each round sets up a fresh server
//! (one `setup_s` sample) and serves the closed loop for its share of
//! the run, so set-up samples are spread over the whole run like the
//! jobs are.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use spinn_bench::experiments::e20_scaling::peak_rss_bytes;
use spinn_serve::{
    AdmitError, JobResult, JobSpec, ModelId, ServeConfig, Server, Stimulus, TenantId, TenantQuota,
};
use spinnaker::prelude::*;
use spinnaker::RunSession;

use crate::nets::{self, mix};
use crate::report::{median, quantile, Outcome, Spans};
use crate::DEFAULT_SEED;

const MODELS: u32 = 4;
const CLIENTS: usize = 2;
const RUN_MS: u32 = 5;
/// Closed-loop seconds per round.
const ROUND_SECONDS: f64 = 1.0;
/// Resident budget as a share of the fleet's resident footprint. The
/// models hold about 21%, 23%, 26% and 30% of it, so every pair fits
/// and no triple does: two models stay warm, and a share this far from
/// any pair or triple sum keeps the mix of warm hits and rehydrates
/// the same on every seed.
const BUDGET_SHARE: f64 = 0.6;
/// Jobs of the first round's closed loop whose fingerprints are
/// recorded for the default seed.
const RECORDED_JOBS: usize = 64;
/// FNV-1a over the first `RECORDED_JOBS` closed-loop job fingerprints
/// of the default seed's first round.
const RECORDED_DIGEST: u64 = 0x54c1_70a8_d978_585f;

/// The fleet and the seeded job stream.
pub struct Fleet {
    nets: Vec<NetworkGraph>,
    cfg: SimConfig,
    seed: u64,
}

pub fn fleet(seed: u64) -> Fleet {
    Fleet {
        nets: (0..MODELS)
            .map(|m| nets::serving_net(mix(seed, u64::from(m)), 8, 800 + 64 * m, 0.02))
            .collect(),
        cfg: SimConfig::new(4, 4).with_neurons_per_core(256),
        seed,
    }
}

impl Fleet {
    /// The stimulus of the warm-up job that makes model `m` resident.
    fn cold_stimulus(&self, m: usize) -> Stimulus {
        Stimulus {
            pop: PopulationId::from_index(0),
            rate_hz: 100.0,
            seed: mix(self.seed, 0xC01D ^ m as u64),
        }
    }

    /// Client `c`'s `k`-th job: which model it targets and its stimulus
    /// are a pure function of `(seed, c, k)`.
    fn client_job(&self, tenant: TenantId, models: &[ModelId], c: usize, k: u64) -> JobSpec {
        let draw = mix(self.seed, ((c as u64 + 1) << 40) ^ k);
        JobSpec {
            tenant,
            model: models[(draw % models.len() as u64) as usize],
            run_ms: RUN_MS,
            stimulus: vec![Stimulus {
                pop: PopulationId::from_index(0),
                rate_hz: 100.0 + 25.0 * (k % 4) as f64,
                seed: mix(draw, 0x571),
            }],
        }
    }

    /// A server with the fleet registered and one cold job per model
    /// served. Returns the server, its tenants and models, the cold
    /// jobs' specs and results.
    fn warm_server(
        &self,
        cfg: ServeConfig,
        spans: &mut Spans,
        parent: Option<u32>,
    ) -> Result<Warm, String> {
        let (mut server, _) = spans.time("spinn_serve::Server::new", parent, || Server::new(cfg));
        let tenants: Vec<TenantId> = (0..CLIENTS)
            .map(|c| server.register_tenant(&format!("client{c}"), TenantQuota::unlimited()))
            .collect();
        let models: Vec<ModelId> = self
            .nets
            .iter()
            .map(|n| server.register_model(n.clone(), self.cfg.clone()))
            .collect();
        let mut log = Vec::new();
        for (m, &model) in models.iter().enumerate() {
            let spec = JobSpec {
                tenant: tenants[0],
                model,
                run_ms: RUN_MS,
                stimulus: vec![self.cold_stimulus(m)],
            };
            log.push(spec.clone());
            server
                .submit(spec)
                .map_err(|e| format!("cold job refused: {e}"))?;
        }
        let (results, _) = spans.time("spinn_serve::Server::drain", parent, || server.drain());
        let results = results.map_err(|e| format!("cold jobs failed: {e}"))?;
        Ok(Warm {
            server,
            tenants,
            models,
            log,
            results,
        })
    }
}

struct Warm {
    server: Server,
    tenants: Vec<TenantId>,
    models: Vec<ModelId>,
    /// Every admitted spec, in submission order.
    log: Vec<JobSpec>,
    results: Vec<JobResult>,
}

fn serve_cfg(budget: u64, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        queue_cap,
        resident_budget_bytes: budget,
        max_batch: 8,
        threads: 1,
    }
}

/// What one round's control pass needs.
struct Round {
    /// Every spec the round's server admitted, in submission order.
    log: Vec<JobSpec>,
    /// The round's cold set-up jobs.
    cold: Vec<JobResult>,
    /// The round's closed-loop jobs within [`Served::results`].
    jobs: std::ops::Range<usize>,
}

/// What the closed loops saw.
#[derive(Default)]
struct Served {
    setup_s: Vec<f64>,
    results: Vec<JobResult>,
    rounds: Vec<Round>,
    failed: u64,
    loop_wall_s: f64,
    /// Evictions, rehydrates, batches and coalesced jobs during the
    /// closed loops (cold set-up jobs excluded).
    evictions: u64,
    rehydrates: u64,
    batches: u64,
    coalesced_jobs: u64,
}

/// Two clients, each submitting its next job once the previous one
/// returns, until `seconds` have passed; then the outstanding jobs
/// finish. `next[c]` is client `c`'s next job index.
fn closed_loop(
    f: &Fleet,
    w: &mut Warm,
    seconds: f64,
    next: &mut [u64; CLIENTS],
    served: &mut Served,
    spans: &mut Spans,
    parent: Option<u32>,
) {
    let mut outstanding = [None; CLIENTS];
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    loop {
        let open = t0.elapsed() < budget;
        for c in 0..CLIENTS {
            if !open || outstanding[c].is_some() {
                continue;
            }
            let spec = f.client_job(w.tenants[c], &w.models, c, next[c]);
            let (admitted, _) = spans.time("spinn_serve::Server::submit", parent, || {
                w.server.submit(spec.clone())
            });
            match admitted {
                Ok(id) => {
                    w.log.push(spec);
                    outstanding[c] = Some(id);
                    next[c] += 1;
                }
                Err(AdmitError::QueueFull { .. }) => {} // retried next time round
                Err(e) => {
                    eprintln!("admission refused: {e}");
                    served.failed += 1;
                    next[c] += 1;
                }
            }
        }
        if outstanding.iter().all(Option::is_none) {
            if open {
                continue;
            }
            break;
        }
        let (polled, _) = spans.time("spinn_serve::Server::poll", parent, || w.server.poll());
        match polled {
            Ok(results) => {
                for r in results {
                    for slot in &mut outstanding {
                        if *slot == Some(r.job) {
                            *slot = None;
                        }
                    }
                    served.results.push(r);
                }
            }
            Err(e) => {
                eprintln!("poll failed: {e}");
                served.failed += outstanding.iter().flatten().count() as u64;
                break;
            }
        }
    }
    served.loop_wall_s += t0.elapsed().as_secs_f64();
}

/// Replays every spec a round's server admitted through an unbudgeted
/// server and counts the round's jobs whose spikes differ from it. For
/// the default seed's first round, also checks the recorded digest.
fn check_round(
    f: &Fleet,
    round: &Round,
    results: &[JobResult],
    first_round: bool,
    out: &mut Outcome,
) {
    let control = (|| {
        let mut server = Server::new(serve_cfg(u64::MAX, round.log.len()));
        for c in 0..CLIENTS {
            server.register_tenant(&format!("client{c}"), TenantQuota::unlimited());
        }
        for n in &f.nets {
            server.register_model(n.clone(), f.cfg.clone());
        }
        for spec in &round.log {
            server
                .submit(spec.clone())
                .map_err(|e| format!("control refused a job: {e}"))?;
        }
        server
            .drain()
            .map_err(|e| format!("control pass failed: {e}"))
    })();
    let control: BTreeMap<u64, u64> = match control {
        Ok(results) => results
            .iter()
            .map(|r| (r.job.sequence(), nets::spike_fingerprint(&r.spikes)))
            .collect(),
        Err(e) => {
            eprintln!("{e}");
            out.checks_failed = true;
            BTreeMap::new()
        }
    };
    let fingerprint = |r: &JobResult| {
        (
            r.job.sequence(),
            r.spikes.len() as u64,
            nets::spike_fingerprint(&r.spikes),
        )
    };
    let mut measured: Vec<(u64, u64, u64)> = results.iter().map(fingerprint).collect();
    measured.sort_unstable();
    out.failed += measured
        .iter()
        .filter(|&&(seq, _, fp)| control.get(&seq) != Some(&fp))
        .count() as u64;
    if round
        .cold
        .iter()
        .map(fingerprint)
        .any(|(seq, _, fp)| control.get(&seq) != Some(&fp))
    {
        eprintln!("a cold job differs from the control pass");
        out.checks_failed = true;
    }
    if first_round && measured.len() >= RECORDED_JOBS {
        let head = &measured[..RECORDED_JOBS];
        let d = nets::fnv1a(head.iter().map(|&(_, _, fp)| fp));
        out.fingerprints.push((
            format!("first_{RECORDED_JOBS}_jobs"),
            head.iter().map(|&(_, n, _)| n).sum(),
            d,
        ));
        if f.seed == DEFAULT_SEED && d != RECORDED_DIGEST {
            eprintln!("job digest {d:016x} differs from the recorded {RECORDED_DIGEST:016x}");
            out.checks_failed = true;
        }
    }
}

/// The resident budget: `BUDGET_SHARE` of the fleet's footprint once
/// every model is warm, measured on an unbudgeted server.
fn budget(f: &Fleet) -> Result<u64, String> {
    let mut spans = Spans::new(false, String::new());
    let warm = f.warm_server(serve_cfg(u64::MAX, 8), &mut spans, None)?;
    Ok((warm.server.resident_bytes() as f64 * BUDGET_SHARE) as u64)
}

/// Serves `seconds` of closed loop in rounds, each on a freshly set-up
/// server.
fn serve_rounds(f: &Fleet, seconds: f64, spans: &mut Spans, parent: Option<u32>) -> Served {
    let mut served = Served::default();
    let budget = match budget(f) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            served.failed += 1;
            return served;
        }
    };
    let rounds = (seconds / ROUND_SECONDS).round().max(1.0);
    let mut next = [0u64; CLIENTS];
    for _ in 0..rounds as usize {
        let round_span = spans.begin("round", parent);
        let setup = spans.begin("setup", round_span.id());
        let warm = f.warm_server(serve_cfg(budget, 8), spans, setup.id());
        served.setup_s.push(spans.end(setup));
        let mut warm = match warm {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{e}");
                served.failed += 1;
                spans.end(round_span);
                continue;
            }
        };
        let (stats0, pool0) = (warm.server.stats(), warm.server.pool_stats());
        let first = served.results.len();
        closed_loop(
            f,
            &mut warm,
            seconds / rounds,
            &mut next,
            &mut served,
            spans,
            round_span.id(),
        );
        let (stats, pool) = (warm.server.stats(), warm.server.pool_stats());
        served.evictions += pool.evictions - pool0.evictions;
        served.rehydrates += pool.rehydrates - pool0.rehydrates;
        served.batches += stats.batches - stats0.batches;
        served.coalesced_jobs += stats.coalesced_jobs - stats0.coalesced_jobs;
        spans.end(round_span);
        served.rounds.push(Round {
            log: warm.log,
            cold: warm.results,
            jobs: first..served.results.len(),
        });
    }
    served
}

/// Serves the rounds, then checks every round against its control
/// pass. Returns the outcome with the jobs counted, what was served, and
/// the peak resident memory before the control passes ran.
fn serve_checked(
    f: &Fleet,
    seconds: f64,
    spans: &mut Spans,
    parent: Option<u32>,
) -> (Outcome, Served, f64) {
    let served = serve_rounds(f, seconds, spans, parent);
    let peak_rss_mb = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    let mut out = Outcome {
        attempted: (served.results.len() as u64 + served.failed).max(1),
        failed: served.failed,
        threads: (1, 1),
        ..Outcome::default()
    };
    for (i, round) in served.rounds.iter().enumerate() {
        check_round(
            f,
            round,
            &served.results[round.jobs.clone()],
            i == 0,
            &mut out,
        );
    }
    (out, served, peak_rss_mb)
}

/// The untraced run.
pub fn measure(f: &Fleet, seconds: f64) -> Outcome {
    let (mut out, served, peak_rss_mb) =
        serve_checked(f, seconds, &mut Spans::new(false, String::new()), None);
    let latency: Vec<f64> = served.results.iter().map(JobResult::latency_ms).collect();
    let jobs = served.results.len() as f64;
    out.set("setup_s", median(&served.setup_s));
    out.set(
        "host_s_per_bio_s",
        served.loop_wall_s / (jobs * f64::from(RUN_MS) / 1e3),
    );
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("jobs_per_s", jobs / served.loop_wall_s);
    out.set("p50_latency_ms", median(&latency));
    out.set("p99_latency_ms", quantile(&latency, 0.99));
    out
}

/// The traced run: the same rounds with a span per public call, then
/// checkpoint and restore timed on each fleet model.
pub fn trace(f: &Fleet, seconds: f64, spans: &mut Spans) -> Outcome {
    let root = spans.begin("serve_mixed", None);
    let parent = root.id();
    let (mut out, served, _) = serve_checked(f, seconds, spans, parent);

    let results = &served.results;
    let warm_hits = results.iter().filter(|r| r.warm_hit).count() as f64;
    let service = |warm: bool| -> Vec<f64> {
        results
            .iter()
            .filter(|r| r.warm_hit == warm)
            .map(|r| r.service_ms)
            .collect()
    };
    let queue_wait: Vec<f64> = results.iter().map(|r| r.queue_wait_ms).collect();
    out.set(
        "serve.warm_hit_ratio",
        warm_hits / (results.len().max(1) as f64),
    );
    out.set("serve.evictions", served.evictions as f64);
    out.set("serve.rehydrates", served.rehydrates as f64);
    out.set("serve.batches", served.batches as f64);
    out.set("serve.coalesced_jobs", served.coalesced_jobs as f64);
    out.set("serve.queue_wait_p50_ms", median(&queue_wait));
    out.set("serve.warm_service_p50_ms", median(&service(true)));
    out.set("serve.miss_service_p50_ms", median(&service(false)));

    let (mut checkpoint_ms, mut restore_ms, mut bytes) = (vec![], vec![], vec![]);
    for (m, net) in f.nets.iter().enumerate() {
        let probe = spans.begin("session_probe", parent);
        match session_probe(f, m, net, spans, probe.id()) {
            Ok((c, r, b)) => {
                checkpoint_ms.push(c * 1e3);
                restore_ms.push(r * 1e3);
                bytes.push(b);
            }
            Err(e) => {
                eprintln!("session probe {m}: {e}");
                out.checks_failed = true;
            }
        }
        spans.end(probe);
    }
    out.set("session.checkpoint_ms", median(&checkpoint_ms));
    out.set("session.restore_ms", median(&restore_ms));
    out.set("session.snapshot_bytes", median(&bytes));
    spans.end(root);
    out
}

/// Builds model `m` as a session, serves its cold job, then times
/// `RunSession::checkpoint` and `RunSession::restore` and checks that
/// the restored session continues bit-exactly. Returns `(checkpoint
/// seconds, restore seconds, snapshot bytes)`.
fn session_probe(
    f: &Fleet,
    m: usize,
    net: &NetworkGraph,
    spans: &mut Spans,
    parent: Option<u32>,
) -> Result<(f64, f64, f64), String> {
    let mut session = Simulation::build(net, f.cfg.clone())
        .map_err(|e| format!("build failed: {e}"))?
        .into_session();
    let stimulus = f.cold_stimulus(m);
    let serve = |s: &mut RunSession| {
        s.clear_stimulus_sources();
        s.add_poisson(stimulus.pop, stimulus.rate_hz, stimulus.seed);
        s.run_for(RUN_MS);
        nets::spike_fingerprint(&s.take_spikes())
    };
    serve(&mut session);
    let (snapshot, checkpoint_s) = spans.time("spinnaker::RunSession::checkpoint", parent, || {
        session.checkpoint()
    });
    let (restored, restore_s) = spans.time("spinnaker::RunSession::restore", parent, || {
        RunSession::restore(net, f.cfg.clone(), &snapshot)
    });
    let mut restored = restored.map_err(|e| format!("restore failed: {e}"))?;
    if serve(&mut session) != serve(&mut restored) {
        return Err("restored session diverged".to_string());
    }
    Ok((checkpoint_s, restore_s, snapshot.len() as f64))
}
