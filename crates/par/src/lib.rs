//! # spinn-par — sharded, barrier-synchronized parallel execution
//!
//! SpiNNaker runs a million cores in real time without a global clock:
//! each core integrates its neurons on a local 1 ms timer, and the only
//! inter-processor coupling is spike packets that the fabric delivers
//! "in significantly under 1 ms, whatever the distance" (§3.1 of the
//! paper). Events are therefore *locally* ordered — a chip never needs
//! to know what a distant chip is doing right now, only which spikes
//! will reach it and when.
//!
//! This crate exploits exactly that property to parallelize the
//! discrete-event simulation of the machine itself:
//!
//! 1. The simulated chips are partitioned into **shards**, one
//!    [`spinn_sim::Engine`] per shard, each owned by one worker thread
//!    for the whole run (a worker owns several shards when the run has
//!    more shards than host cores).
//! 2. All shards advance in lockstep **conservative windows**. At each
//!    barrier the workers agree on the global minimum pending timestamp
//!    `m`; every shard may then safely simulate all events in
//!    `[m, m + lookahead)`, where the *lookahead* is the minimum
//!    cross-shard latency — for the machine, the minimum inter-chip
//!    link delay (shortest-packet serialization + wire propagation +
//!    router pipeline). No event handled inside the window can produce
//!    a cross-shard event landing inside the same window, so no shard
//!    ever receives an event in its own past.
//! 3. Cross-shard events produced inside a window are collected in each
//!    shard's outbox ([`ShardModel::drain_outbox`]) and **exchanged at
//!    the window barrier** with their exact timestamps, sorted into a
//!    canonical `(time, source shard, source sequence)` order before
//!    queue insertion so that delivery never depends on thread
//!    scheduling.
//! 4. Same-instant ordering is **content-derived**, not insertion-
//!    derived: models implement [`spinn_sim::Model::tie_rank`] so that
//!    two events scheduled for the same nanosecond are handled in an
//!    order determined by *what they are*. This is what makes the
//!    sharded run equal the serial run even under congestion — a remote
//!    arrival inserted at a barrier and a local event staged mid-window
//!    still sort identically in both executions.
//!
//! The result is an *event-exact* replay of the serial simulation:
//! every event fires at the same timestamp on every thread count, and
//! the recorded spike streams are bit-identical. This mirrors the
//! machine's own semantics at a different timescale: SpiNNaker's 1 ms
//! timestep is the coarse window within which spike *arrival order
//! does not matter* (ring-buffer deposits commute); the simulator's
//! window is the fine-grained analogue within which *cross-shard events
//! cannot exist at all*. Between two timer ticks the event population
//! is sparse and clustered, so the window loop jumps across the empty
//! stretches of each millisecond and barriers only where traffic is —
//! which is what makes the barrier protocol cheap enough to win
//! wall-clock time (see experiment E12 in `spinn-bench`).
//!
//! Determinism is preserved per shard: models that need randomness
//! should key their PRNG stream by shard id (e.g.
//! [`shard_stream`]), so a run is a pure function of `(seed, shard
//! count)` — and, for models meeting the exchange contract, of `seed`
//! alone.
//!
//! Memory moves with the shards, not across them: when the neural
//! machine partitions its chips, each application core's synaptic
//! matrix (the master-population-table + contiguous-arena state of
//! `spinn_neuron::synmatrix`) is handed to its owning shard wholesale
//! and handed back at merge — sharding never copies or splits an
//! arena.
//!
//! # Example
//!
//! See [`ParEngine`] for a two-shard token-passing example, and
//! `spinn_machine::machine::NeuralMachine::run_parallel` for the
//! full-machine integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{ParEngine, ParStats, RemoteEvent, ShardModel, ShardParts};

use spinn_sim::Xoshiro256;

/// A deterministic per-shard PRNG stream: shard `i` of a run seeded
/// with `seed` always sees the same sequence, regardless of thread
/// scheduling or shard count.
pub fn shard_stream(seed: u64, shard: usize) -> Xoshiro256 {
    // Distinct golden-ratio offsets decorrelate the per-shard streams.
    Xoshiro256::seed_from_u64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_streams_are_deterministic_and_distinct() {
        let mut a0 = shard_stream(7, 0);
        let mut a0b = shard_stream(7, 0);
        let mut a1 = shard_stream(7, 1);
        let x = a0.next_u64();
        assert_eq!(x, a0b.next_u64());
        assert_ne!(x, a1.next_u64());
    }
}
