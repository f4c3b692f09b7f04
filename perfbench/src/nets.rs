//! Seeded workload inputs. Every projection seed, placer seed and
//! job-stream seed is derived from the run's `--seed`, so the program
//! under test receives only generated `NetworkGraph`s and `JobSpec`s.

use spinnaker::prelude::*;

/// Derives an independent 64-bit seed from the run seed and a tag
/// (SplitMix64 finalizer over the pair).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn izhikevich() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// A chain of `pops` populations of `size` neurons joined by
/// `FixedProbability(p)` projections, the first tonically driven (the
/// E15/E18 100k-neuron net when called with 20 x 5,000 at 0.02).
pub fn prob_net(seed: u64, pops: u32, size: u32, p: f64) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let ids: Vec<_> = (0..pops)
        .map(|i| {
            net.population(
                &format!("p{i}"),
                size,
                izhikevich(),
                if i == 0 { 9.0 } else { 0.0 },
            )
        })
        .collect();
    for (i, w) in ids.windows(2).enumerate() {
        net.project(
            w[0],
            w[1],
            Connector::FixedProbability(p),
            Synapses::constant(450, 1 + (i % 4) as u8),
            mix(seed, i as u64),
        );
    }
    net
}

/// One 128-neuron population per chip, chained into a ring of
/// constant `AllToAll` projections (the E20 chip ring). The seed picks
/// which population is tonically driven; the other chips sit idle
/// until the wave reaches them.
pub fn chip_ring_net(seed: u64, chips: u32) -> NetworkGraph {
    let driven = mix(seed, u64::from(chips)) % u64::from(chips);
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..chips)
        .map(|i| {
            let bias = if u64::from(i) == driven { 9.0 } else { 0.0 };
            net.population(&format!("c{i}"), 128, izhikevich(), bias)
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::AllToAll { allow_self: false },
            Synapses::constant(40, 1),
            mix(seed, i as u64),
        );
    }
    net
}

/// The E16 serving chain: no tonic drive and sub-critical weights, so
/// a job's activity is whatever its Poisson stimulus injects.
pub fn serving_net(seed: u64, pops: u32, size: u32, p: f64) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let ids: Vec<_> = (0..pops)
        .map(|i| net.population(&format!("p{i}"), size, izhikevich(), 0.0))
        .collect();
    for (i, w) in ids.windows(2).enumerate() {
        net.project(
            w[0],
            w[1],
            Connector::FixedProbability(p),
            Synapses::constant(520, 1 + (i % 4) as u8),
            mix(seed, i as u64),
        );
    }
    net
}

/// FNV-1a over a sequence of 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a spike stream: `(time, population, neuron)` words.
pub fn spike_fingerprint(spikes: &[PopSpike]) -> u64 {
    fnv1a(spikes.iter().flat_map(|s| {
        [
            u64::from(s.time_ms),
            s.pop.index() as u64,
            u64::from(s.neuron),
        ]
    }))
}
