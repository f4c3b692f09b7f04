//! Shard-ownership conformance: a parallel segment is cut into one
//! shard per requested thread, and the worker pool (at most one worker
//! per host core) owns those shards statically — several per worker
//! when forced shards outnumber the cores. Neither the shard count nor
//! the shard-to-worker mapping may show in results. Every test here
//! pins that invariant three ways: against the committed golden
//! traces, across a mid-run checkpoint/restore that changes the thread
//! count and queue kind on resume, and on randomized nets against the
//! serial engine. A final group covers the compressed lazy synaptic
//! arena riding the same snapshots.

use proptest::prelude::*;

use spinnaker::machine::machine::SpikeRecord;
use spinnaker::prelude::*;

const RUN_MS: u32 = 200;

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

// ---------------------------------------------------------------------
// The synfire golden scenario (identical to tests/golden_traces.rs).

fn synfire_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..8u32)
        .map(|i| {
            net.population(
                &format!("s{i}"),
                128,
                kind(),
                if i == 0 { 9.0 } else { 0.0 },
            )
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        let dst = pops[(i + 1) % pops.len()];
        net.project(
            src,
            dst,
            Connector::FixedFanOut(12),
            Synapses::constant(600, 2),
            i as u64,
        );
    }
    net
}

fn synfire_cfg(queue: QueueKind, threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: 0x60_1D })
        .with_queue(queue)
        .with_threads(threads)
}

fn golden(name: &str) -> Vec<SpikeRecord> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let time_ms: u32 = it.next().expect("time").parse().expect("time_ms");
            let key_str = it.next().expect("key");
            let key = u32::from_str_radix(key_str.trim_start_matches("0x"), 16).expect("key");
            SpikeRecord { time_ms, key }
        })
        .collect()
}

/// Sharded execution replays the committed golden trace exactly, for
/// every queue kind and forced shard count — including shard counts
/// well above the host's cores, where each worker owns several shards.
#[test]
fn golden_synfire_bit_identical_across_forced_shards() {
    let net = synfire_net();
    let golden = golden("synfire");
    for queue in [QueueKind::Heap, QueueKind::Calendar] {
        for threads in [1u32, 4, 16] {
            let done = Simulation::build(&net, synfire_cfg(queue, threads))
                .expect("synfire fits a 4x4 machine")
                .run(RUN_MS);
            assert_eq!(
                done.machine.spikes(),
                golden.as_slice(),
                "synfire diverges from golden ({queue} queue, {threads} thread(s))"
            );
        }
    }
}

/// A checkpoint taken under one chunking of the mesh into shards
/// restores onto a machine with a *different* thread count (so a
/// different shard cut) and queue kind and still finishes on the
/// golden trace. Splits are deliberately not multiples of the 5 ms
/// rebalance epoch, so the cut lands mid-stride between repartitions.
#[test]
fn checkpoint_restore_swaps_chunking_bit_exactly() {
    let net = synfire_net();
    let golden = golden("synfire");
    for (split, queue_a, threads_a, queue_b, threads_b) in [
        (73u32, QueueKind::Calendar, 4u32, QueueKind::Heap, 16u32),
        (111, QueueKind::Heap, 16, QueueKind::Calendar, 4),
        (37, QueueKind::Calendar, 4, QueueKind::Calendar, 1),
    ] {
        let mut session = Simulation::build(&net, synfire_cfg(queue_a, threads_a))
            .expect("synfire fits a 4x4 machine")
            .into_session();
        session.run_for(split);
        let snap = session.checkpoint();
        drop(session);
        let mut resumed = RunSession::restore(&net, synfire_cfg(queue_b, threads_b), &snap)
            .expect("snapshot restores onto a fresh build");
        assert_eq!(resumed.elapsed_ms(), split);
        resumed.run_for(RUN_MS - split);
        assert_eq!(
            resumed.machine().spikes(),
            golden.as_slice(),
            "split at {split} ms ({queue_a}/{threads_a}T -> {queue_b}/{threads_b}T) \
             diverges from golden"
        );
    }
}

// ---------------------------------------------------------------------
// Compressed lazy arena: snapshots must carry a half-materialized
// matrix (some rows touched by DMA, most still generator recipes)
// without disturbing results or forcing materialization.

/// A ring of constant-weight all-to-all projections: analytic for the
/// row generator, so the loader keeps every row as a compressed recipe
/// and only spike-touched rows materialize during the run.
fn lazy_ring_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..6u32)
        .map(|i| {
            net.population(
                &format!("r{i}"),
                96,
                kind(),
                if i == 0 { 10.0 } else { 0.0 },
            )
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        let dst = pops[(i + 1) % pops.len()];
        net.project(
            src,
            dst,
            Connector::AllToAll { allow_self: false },
            Synapses::constant(24, 1 + (i % 3) as u8),
            0x1A2 ^ i as u64,
        );
    }
    net
}

fn lazy_cfg(queue: QueueKind, threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(32)
        .with_queue(queue)
        .with_threads(threads)
}

/// Checkpoint a lazily loaded machine mid-run — after spikes have
/// materialized some rows but long before all of them — and restore
/// onto a fresh (fully lazy) build. The resumed run must finish on the
/// uninterrupted run's exact spike stream, and the restore must not
/// have force-materialized the arena to get there.
#[test]
fn lazy_arena_snapshot_roundtrip_mid_materialization() {
    let net = lazy_ring_net();
    let whole = Simulation::build(&net, lazy_cfg(QueueKind::Calendar, 1))
        .expect("ring fits a 4x4 machine")
        .run(RUN_MS);
    let reference = whole.machine.spikes().to_vec();
    assert!(reference.len() > 50, "workload must actually spike");
    let total_rows = {
        // All rows start lazy: constant all-to-all is analytic.
        let sim = Simulation::build(&net, lazy_cfg(QueueKind::Calendar, 1)).expect("fits");
        let lazy = sim.machine().total_lazy_rows();
        assert!(lazy > 0, "the ring net must load as a lazy arena");
        lazy
    };

    for (split, threads_b) in [(41u32, 4u32), (97, 16)] {
        let mut session = Simulation::build(&net, lazy_cfg(QueueKind::Calendar, 4))
            .expect("ring fits a 4x4 machine")
            .into_session();
        session.run_for(split);
        let lazy_at_cut = session.machine().total_lazy_rows();
        assert!(
            lazy_at_cut < total_rows,
            "spikes must have materialized some rows by {split} ms"
        );
        assert!(
            lazy_at_cut > 0,
            "the idle tail of the ring must still be compressed at {split} ms"
        );
        let snap = session.checkpoint();
        drop(session);
        let mut resumed = RunSession::restore(&net, lazy_cfg(QueueKind::Heap, threads_b), &snap)
            .expect("snapshot restores onto a fresh lazy build");
        assert!(
            resumed.machine().total_lazy_rows() > 0,
            "restore must revive recipes, not force-materialize the arena"
        );
        resumed.run_for(RUN_MS - split);
        assert_eq!(
            resumed.machine().spikes(),
            reference.as_slice(),
            "lazy-arena split at {split} ms diverges from the uninterrupted run"
        );
    }
}

// ---------------------------------------------------------------------
// Randomized equivalence: sharding is invisible on arbitrary nets.

fn arb_chain_net() -> impl Strategy<Value = NetworkGraph> {
    (2u32..5, 48u32..128, 4u32..10, 0u64..1000).prop_map(|(pops, size, fan, seed)| {
        let mut net = NetworkGraph::new();
        let ids: Vec<_> = (0..pops)
            .map(|i| {
                net.population(
                    &format!("p{i}"),
                    size,
                    kind(),
                    if i == 0 { 9.5 } else { 0.0 },
                )
            })
            .collect();
        for (i, w) in ids.windows(2).enumerate() {
            net.project(
                w[0],
                w[1],
                Connector::FixedFanOut(fan),
                Synapses::constant(550, 1 + (i % 4) as u8),
                seed ^ i as u64,
            );
        }
        net
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random chain nets and random (queue, threads), the run
    /// chunked into forced shards is bit-identical to the serial
    /// engine's spike stream.
    #[test]
    fn chunked_execution_matches_serial(
        net in arb_chain_net(),
        threads in 2u32..9,
        calendar in any::<bool>(),
    ) {
        let queue = if calendar { QueueKind::Calendar } else { QueueKind::Heap };
        let serial_cfg = SimConfig::new(4, 4)
            .with_neurons_per_core(64)
            .with_queue(queue);
        let serial = Simulation::build(&net, serial_cfg).expect("fits").run(80);
        let sharded_cfg = SimConfig::new(4, 4)
            .with_neurons_per_core(64)
            .with_queue(queue)
            .with_force_shards(true)
            .with_threads(threads);
        let sharded = Simulation::build(&net, sharded_cfg).expect("fits").run(80);
        prop_assert_eq!(
            sharded.machine.spikes(),
            serial.machine.spikes(),
            "threads {} diverged",
            threads
        );
    }
}
