//! The experiments, one module per entry in DESIGN.md's index.

use std::fmt::Write as _;

/// E1 — glitch-induced deadlock: conventional vs transition-sensing
/// phase converters (Fig. 6, §5.1).
pub mod e01_glitch_deadlock {
    use super::*;
    use spinn_link::glitch::{deadlock_study, DeadlockStudy, GlitchTrialConfig};

    /// Runs the paired Monte-Carlo study across glitch rates.
    pub fn study(trials: u64) -> Vec<DeadlockStudy> {
        let cfg = GlitchTrialConfig::default();
        let rates = [1e5, 3e5, 1e6, 3e6, 1e7];
        // Parallel Monte Carlo: one thread per rate.
        let mut results: Vec<Option<DeadlockStudy>> = vec![None; rates.len()];
        std::thread::scope(|scope| {
            for (slot, &rate) in results.iter_mut().zip(&rates) {
                let cfg = &cfg;
                scope.spawn(move || {
                    *slot = Some(deadlock_study(cfg, rate, trials, 0xE1));
                });
            }
        });
        results.into_iter().map(|r| r.expect("filled")).collect()
    }

    /// The E1 table.
    pub fn run(quick: bool) -> String {
        let trials = if quick { 150 } else { 2000 };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E1: glitch-induced deadlock, conventional vs transition-sensing (Fig. 6)"
        );
        let _ = writeln!(out, "   {trials} paired trials x 200 symbols per rate\n");
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>12} {:>10} {:>12} {:>12}",
            "glitch rate", "conv dead", "t-s dead", "factor", "conv corr", "t-s corr"
        );
        for s in study(trials) {
            let factor = if s.transition_sensing_deadlocks == 0 {
                format!(">{:.0}", s.improvement_factor())
            } else {
                format!("{:.0}", s.improvement_factor())
            };
            let _ = writeln!(
                out,
                "{:>10.0e}Hz {:>8}/{:<4} {:>8}/{:<4} {:>9}x {:>12.2} {:>12.2}",
                s.glitch_rate_hz,
                s.conventional_deadlocks,
                s.trials,
                s.transition_sensing_deadlocks,
                s.trials,
                factor,
                s.conventional_corruption,
                s.transition_sensing_corruption,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: transition sensing 'reduced the occurrence of deadlocks in our\nglitch simulations by a factor 1,000' and 'will keep passing data (albeit\nwith errors)' — the t-s column keeps capturing (corrupt) symbols with\n(near-)zero deadlocks while the conventional converter deadlocks freely."
        );
        out
    }
}

/// E2 — link protocols: 2-of-7 NRZ vs 3-of-6 RTZ (§5.1).
pub mod e02_link_protocols {
    use super::*;
    use spinn_link::throughput::{measure_nrz, measure_rtz};

    /// The E2 table.
    pub fn run(quick: bool) -> String {
        let n = if quick { 300 } else { 2000 };
        let mut out = String::new();
        let _ = writeln!(out, "E2: inter-chip link protocols (§5.1)");
        let _ = writeln!(out, "   {n} symbols per measurement\n");
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
            "wire (ps)",
            "NRZ Mbit/s",
            "RTZ Mbit/s",
            "ratio",
            "NRZ tr/sym",
            "RTZ tr/sym",
            "pJ ratio"
        );
        for wire in [500u64, 1_000, 2_000, 5_000, 10_000] {
            let nrz = measure_nrz(wire, n);
            let rtz = measure_rtz(wire, n);
            let _ = writeln!(
                out,
                "{:>10} {:>12.1} {:>12.1} {:>7.2}x {:>10.1} {:>10.1} {:>7.2}x",
                wire,
                nrz.mbit_per_s,
                rtz.mbit_per_s,
                nrz.msymbols_per_s / rtz.msymbols_per_s,
                nrz.transitions_per_symbol,
                rtz.transitions_per_symbol,
                rtz.pj_per_symbol / nrz.pj_per_symbol,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: off-chip 'the 2-of-7 NRZ code delivers twice the performance for\nless than half the energy per 4-bit symbol' (3 vs 8 transitions: exact)."
        );
        out
    }
}

/// E3 — emergency routing around a failed link (Fig. 8, §5.3).
pub mod e03_emergency_routing {
    use super::*;
    use spinn_noc::direction::Direction;
    use spinn_noc::fabric::{FabricConfig, FabricEvent, FabricSim};
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::packet::Packet;
    use spinn_noc::table::{McTableEntry, RouteSet};
    use spinn_sim::{Engine, SimTime};

    /// One scenario's measurements.
    pub struct Row {
        /// Scenario label.
        pub label: &'static str,
        /// Fraction of injected packets delivered.
        pub delivered_pct: f64,
        /// Mean end-to-end latency, ns.
        pub mean_latency_ns: f64,
        /// Emergency reroutes performed.
        pub reroutes: u64,
        /// Packets dropped.
        pub dropped: u64,
    }

    /// Streams `n` packets down a 6-hop path, with optional mid-path
    /// link failure and emergency routing on/off.
    pub fn scenario(
        label: &'static str,
        n: u64,
        interval_ns: u64,
        fail: bool,
        emergency: bool,
    ) -> Row {
        let mut cfg = FabricConfig::new(8, 8);
        cfg.router.emergency_enabled = emergency;
        cfg.router.wait1_ns = 2_000;
        cfg.router.wait2_ns = 10_000;
        let mut sim = FabricSim::new(cfg);
        let key = 0xE3;
        sim.fabric
            .router_mut(NodeCoord::new(0, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(6, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        if fail {
            sim.fabric.fail_link(NodeCoord::new(3, 0), Direction::East);
        }
        for i in 0..n {
            sim.queue_injection(
                i * interval_ns,
                NodeCoord::new(0, 0),
                Packet::multicast(key),
            );
        }
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(n * interval_ns + 50_000_000));
        let sim = engine.into_model();
        let stats = sim.fabric.total_stats();
        Row {
            label,
            delivered_pct: 100.0 * sim.delivered() as f64 / n as f64,
            mean_latency_ns: sim.latency().mean(),
            reroutes: stats.emergency_reroutes,
            dropped: stats.dropped,
        }
    }

    /// The E3 table.
    pub fn run(quick: bool) -> String {
        let n = if quick { 300 } else { 3000 };
        let mut out = String::new();
        let _ = writeln!(out, "E3: emergency routing around a failed link (Fig. 8)");
        let _ = writeln!(
            out,
            "   {n} packets, 6-hop east path, link (3,0)->E killed\n"
        );
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>10} {:>9}",
            "scenario", "delivered", "mean ns", "reroutes", "dropped"
        );
        for row in [
            scenario("healthy link", n, 500, false, true),
            scenario("failed link + emergency", n, 500, true, true),
            scenario("failed link, no emergency", n, 500, true, false),
            scenario("failed + emergency, heavy load", n, 180, true, true),
        ] {
            let _ = writeln!(
                out,
                "{:<34} {:>9.1}% {:>12.0} {:>10} {:>9}",
                row.label, row.delivered_pct, row.mean_latency_ns, row.reroutes, row.dropped
            );
        }
        let _ = writeln!(
            out,
            "\npaper: packets are redirected 'around the two other sides of one of the\nmesh triangles'; without the mechanism the router 'gives up and drops the\npacket'. The detour costs ~one extra hop of latency."
        );
        out
    }
}

/// E4 — real-time spike delivery: latency vs distance (Fig. 7, §3.1).
pub mod e04_realtime_latency {
    use super::*;
    use spinn_machine::config::MachineConfig;
    use spinn_machine::machine::NeuralMachine;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::model::AnyNeuron;
    use spinn_neuron::synapse::{SynapticRow, SynapticWord};
    use spinn_noc::direction::Direction;
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::table::{McTableEntry, RouteSet};

    fn neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// Latency percentiles for spikes crossing `hops` chips east
    /// (`hops == 0`: target on a second core of the same chip).
    pub fn at_distance(hops: u32, ms: u32) -> (u64, u64, u64) {
        let mut m = NeuralMachine::new(MachineConfig::new(16, 16));
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(hops, 0);
        let dst_core = if hops == 0 { 2 } else { 1 };
        m.load_core(src, 1, neurons(60), vec![11.0; 60], 0x4000)
            .unwrap();
        m.load_core(dst, dst_core, neurons(60), vec![0.0; 60], 0x8000)
            .unwrap();
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x4000,
                mask: 0xFFFF_C000,
                route: if hops == 0 {
                    RouteSet::EMPTY.with_core(dst_core as usize)
                } else {
                    RouteSet::EMPTY.with_link(Direction::East)
                },
            })
            .unwrap();
        if hops > 0 {
            m.router_mut(dst)
                .table
                .insert(McTableEntry {
                    key: 0x4000,
                    mask: 0xFFFF_C000,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
        }
        for i in 0..60u32 {
            let row: SynapticRow = (0..60)
                .map(|t| SynapticWord::new(80, 1, t as u16))
                .collect();
            m.set_row(dst, dst_core, 0x4000 + i, row);
        }
        let m = m.run(ms);
        let h = m.spike_latency();
        (h.percentile(50.0), h.percentile(99.0), h.max())
    }

    /// The E4 table.
    pub fn run(quick: bool) -> String {
        let ms = if quick { 100 } else { 400 };
        let mut out = String::new();
        let _ = writeln!(out, "E4: spike delivery latency vs distance (§3.1, Fig. 7)");
        let _ = writeln!(
            out,
            "   16x16 torus, 60-neuron source population, {ms} ms runs\n"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10} {:>16}",
            "hops", "p50 ns", "p99 ns", "max ns", "% of 1 ms budget"
        );
        for hops in [0u32, 1, 2, 4, 8] {
            let (p50, p99, max) = at_distance(hops, ms);
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>10} {:>15.2}%",
                hops,
                p50,
                p99,
                max,
                100.0 * max as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'the communications fabric is designed to deliver mc packets in\nsignificantly under 1 ms, whatever the distance from source to destination'\n— the worst case above uses ~a thousandth of the millisecond budget, so\nsystem-wide synchrony emerges from the 1 ms timers alone."
        );
        out
    }
}

/// E5 — flood-fill loading time (§5.2, \[15\]).
pub mod e05_flood_fill {
    use super::*;
    use spinn_machine::flood::{FloodConfig, FloodSim};

    /// The E5 table.
    pub fn run(quick: bool) -> String {
        let blocks = if quick { 32 } else { 128 };
        let mut out = String::new();
        let _ = writeln!(out, "E5: flood-fill application loading (§5.2)");
        let _ = writeln!(
            out,
            "   {blocks} blocks streamed from the host into (0,0)\n"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>4} {:>12} {:>14} {:>12}",
            "machine", "k", "load (us)", "vs 4x4", "nn packets"
        );
        let mut base = None;
        for (w, k) in [
            (4u32, 1u8),
            (8, 1),
            (12, 1),
            (16, 1),
            (24, 1),
            (8, 2),
            (8, 3),
        ] {
            let mut cfg = FloodConfig::new(w, w);
            cfg.blocks = blocks;
            cfg.redundancy_k = k;
            let o = FloodSim::run(cfg);
            let t = o.load_complete_ns.expect("load completes") as f64 / 1e3;
            if base.is_none() && k == 1 {
                base = Some(t);
            }
            let _ = writeln!(
                out,
                "{:>6}x{:<2} {:>4} {:>12.1} {:>13.2}x {:>12}",
                w,
                w,
                k,
                t,
                t / base.unwrap(),
                o.nn_packets
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'load times almost independent of the size of the machine, with\ntrade-offs between load time and the degree of fault-tolerance ... the\nnumber of times a node receives each component'. 36x the chips costs only\npercent-level extra time; k=3 costs a little more than k=1."
        );
        out
    }
}

/// E6 — boot, monitor election and rescue (§5.2).
pub mod e06_boot {
    use super::*;
    use spinn_machine::boot::{BootConfig, BootSim};

    /// The E6 table.
    pub fn run(_quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E6: boot — self-test, monitor election, coordinates (§5.2)"
        );
        let _ = writeln!(
            out,
            "\n{:>9} {:>7} {:>9} {:>8} {:>6} {:>12} {:>12}",
            "machine", "faults", "monitors", "rescued", "dead", "coords us", "reports us"
        );
        for (w, fault) in [
            (4u32, 0.0f64),
            (8, 0.0),
            (16, 0.0),
            (24, 0.0),
            (8, 0.2),
            (8, 0.4),
            (8, 0.6),
        ] {
            let mut cfg = BootConfig::new(w, w);
            cfg.core_fault_prob = fault;
            cfg.seed = 0xE6;
            let o = BootSim::run(cfg);
            assert!(!o.election_violated);
            let _ = writeln!(
                out,
                "{:>6}x{:<2} {:>6.0}% {:>9} {:>8} {:>6} {:>12.1} {:>12.1}",
                w,
                w,
                fault * 100.0,
                o.monitors_first_round,
                o.rescued,
                o.dead_chips,
                o.coords_complete_ns.map_or(f64::NAN, |t| t as f64 / 1e3),
                o.reports_complete_ns.map_or(f64::NAN, |t| t as f64 / 1e3),
            );
        }
        let _ = writeln!(
            out,
            "\npaper: the read-sensitive register ensures 'one and only one processor is\nchosen as Monitor' (never violated above); coordinates propagate from (0,0)\nin O(diameter); failed neighbours are rescued over nn packets."
        );
        out
    }
}

/// E7 — cost-effectiveness: MIPS/mm², MIPS/W, ownership cost (§2, §3.3).
pub mod e07_cost_energy {
    use super::*;
    use spinn_machine::energy::{
        energy_cost_crossover_years, CostEffectiveness, ProcessorClass, DESKTOP_CLASS,
        SPINNAKER_NODE_CLASS,
    };
    use spinnaker::prelude::*;

    /// The E7 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "E7: cost-effectiveness metrics (§2, §3.3)\n");
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>8} {:>11} {:>10} {:>10}",
            "class", "MIPS", "W", "MIPS/mm2", "MIPS/W", "MIPS/$"
        );
        for p in [DESKTOP_CLASS, SPINNAKER_NODE_CLASS] {
            let ce = CostEffectiveness::of(&p);
            let _ = writeln!(
                out,
                "{:<28} {:>10.0} {:>8.1} {:>11.1} {:>10.0} {:>10.0}",
                p.name, p.mips, p.watts, ce.mips_per_mm2, ce.mips_per_watt, ce.mips_per_usd
            );
        }
        let d = CostEffectiveness::of(&DESKTOP_CLASS);
        let s = CostEffectiveness::of(&SPINNAKER_NODE_CLASS);
        let _ = writeln!(
            out,
            "\nratios (node/desktop): MIPS/mm2 {:.1}x, MIPS/W {:.0}x, MIPS/$ {:.0}x",
            s.mips_per_mm2 / d.mips_per_mm2,
            s.mips_per_watt / d.mips_per_watt,
            s.mips_per_usd / d.mips_per_usd
        );
        let pc = ProcessorClass {
            name: "PC",
            mips: 10_000.0,
            watts: 300.0,
            die_mm2: 400.0,
            cost_usd: 1000.0,
        };
        let _ = writeln!(
            out,
            "PC purchase-vs-energy crossover at $1/W/year: {:.1} years",
            energy_cost_crossover_years(&pc, 1.0)
        );

        // Measured: a live machine under neural load.
        let ms = if quick { 100 } else { 300 };
        let mut net = NetworkGraph::new();
        let a = net.population(
            "a",
            1200,
            NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
            9.0,
        );
        let b = net.population(
            "b",
            1200,
            NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
            0.0,
        );
        net.project(
            a,
            b,
            Connector::FixedFanOut(30),
            Synapses::constant(300, 2),
            7,
        );
        let done = Simulation::build(&net, SimConfig::new(4, 4))
            .unwrap()
            .run(ms);
        let meter = done.machine.meter();
        let cfg = done.machine.config();
        let dur = done.machine.duration_ns();
        let _ = writeln!(
            out,
            "\nmeasured on a simulated 4x4 machine under load ({} ms, {} spikes):",
            ms,
            done.machine.spikes().len()
        );
        let _ = writeln!(
            out,
            "  mean power {:.2} W, sustained {:.0} MIPS, {:.0} MIPS/W (vs desktop {:.0})",
            meter.mean_watts(&cfg.energy, dur),
            meter.mips(dur),
            meter.mips_per_watt(&cfg.energy, dur),
            d.mips_per_watt
        );
        let _ = writeln!(
            out,
            "\npaper: 'on energy-efficiency the embedded processors win by an order of\nmagnitude'; 'the energy cost of a PC equals the purchase cost after a\nlittle more than three years'."
        );
        out
    }
}

/// E8 — multicast vs broadcast communication loading (§4).
pub mod e08_multicast_vs_broadcast {
    use super::*;
    use spinn_map::route::tree_cost;
    use spinn_noc::mesh::{NodeCoord, Torus};
    use spinn_sim::Xoshiro256;

    /// The E8 table.
    pub fn run(_quick: bool) -> String {
        let torus = Torus::new(16, 16);
        let mut rng = Xoshiro256::seed_from_u64(0xE8);
        let mut out = String::new();
        let _ = writeln!(out, "E8: multicast vs broadcast communication loading (§4)");
        let _ = writeln!(
            out,
            "   16x16 torus, random destination chip sets, 50 trials each\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>11} {:>10} {:>11} {:>13} {:>13}",
            "dests", "multicast", "unicast", "broadcast", "vs unicast", "vs broadcast"
        );
        for k in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let mut mc = 0u64;
            let mut uc = 0u64;
            let mut bc = 0u64;
            for _ in 0..50 {
                let mut dests = Vec::new();
                while dests.len() < k {
                    let d = NodeCoord::new(
                        rng.gen_range_usize(16) as u32,
                        rng.gen_range_usize(16) as u32,
                    );
                    if d != NodeCoord::new(0, 0) && !dests.contains(&d) {
                        dests.push(d);
                    }
                }
                let c = tree_cost(&torus, NodeCoord::new(0, 0), dests);
                mc += c.multicast_edges;
                uc += c.unicast_edges;
                bc += c.broadcast_edges;
            }
            let _ = writeln!(
                out,
                "{:>8} {:>11.1} {:>10.1} {:>11.1} {:>12.2}x {:>12.2}x",
                k,
                mc as f64 / 50.0,
                uc as f64 / 50.0,
                bc as f64 / 50.0,
                uc as f64 / mc as f64,
                bc as f64 / mc as f64,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: AER 'has been used principally in bus-based broadcast\ncommunication ... but here we employ a packet-switched multicast mechanism\nto reduce total communication loading'. The tree always beats per-target\nunicast and beats broadcast until the destination set approaches the whole\nmachine."
        );
        out
    }
}

/// E9 — scaling towards the million-core machine (§1, §6).
pub mod e09_scaling {
    use super::*;
    use spinn_machine::config::MachineConfig;
    use spinnaker::prelude::*;

    /// One weak-scaling measurement row.
    pub struct Row {
        /// Mesh edge (machine is `w x w`).
        pub w: u32,
        /// Neurons simulated.
        pub neurons: u64,
        /// Synaptic events per biological second.
        pub syn_events_per_s: f64,
        /// Sustained MIPS.
        pub mips: f64,
        /// Real-time violations.
        pub violations: u64,
    }

    /// Runs the weak-scaling sweep: one independent driver->target
    /// population pair per chip, so per-core neuron count AND packet
    /// fan-in stay constant as the machine grows.
    pub fn sweep(sizes: &[u32], ms: u32) -> Vec<Row> {
        sizes
            .iter()
            .map(|&w| {
                let chips = w * w;
                let mut net = NetworkGraph::new();
                for c in 0..chips {
                    let a = net.population(
                        &format!("a{c}"),
                        8 * 128,
                        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                        8.6 + 0.1 * (c % 8) as f32,
                    );
                    let b = net.population(
                        &format!("b{c}"),
                        8 * 128,
                        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                        0.0,
                    );
                    net.project(
                        a,
                        b,
                        Connector::FixedFanOut(20),
                        Synapses::constant(250, 2),
                        c as u64,
                    );
                }
                let cfg = SimConfig::new(w, w).with_neurons_per_core(128);
                let done = Simulation::build(&net, cfg).unwrap().run(ms);
                let spikes = done.machine.spikes().len() as f64;
                Row {
                    w,
                    neurons: chips as u64 * 16 * 128,
                    syn_events_per_s: spikes * 20.0 / (ms as f64 / 1e3),
                    mips: done.machine.meter().mips(done.machine.duration_ns()),
                    violations: done.machine.realtime_violations(),
                }
            })
            .collect()
    }

    /// The E9 table.
    pub fn run(quick: bool) -> String {
        let (sizes, ms): (&[u32], u32) = if quick {
            (&[2, 3, 4], 80)
        } else {
            (&[2, 4, 6, 8], 200)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E9: weak scaling towards the million-core machine (§1, §6)"
        );
        let _ = writeln!(
            out,
            "   128 neurons/core, 16 cores/chip used, {ms} ms runs\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>14} {:>12} {:>11}",
            "machine", "neurons", "syn events/s", "MIPS", "violations"
        );
        for r in sweep(sizes, ms) {
            let _ = writeln!(
                out,
                "{:>5}x{:<2} {:>10} {:>14.2e} {:>12.0} {:>11}",
                r.w, r.w, r.neurons, r.syn_events_per_s, r.mips, r.violations
            );
        }
        let full = MachineConfig::million_core();
        let cores = full.chips() as f64 * full.cores_per_chip as f64;
        let _ = writeln!(
            out,
            "\nextrapolation to the full machine (256x256 chips, {:.2}M cores):",
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "  {:.0} teraIPS peak ({} MIPS x {:.2}M cores) — paper: 'around 200 teraIPS'",
            cores * full.cpu_mhz as f64 / 1e6,
            full.cpu_mhz,
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "  ~1000 neurons/core x {:.2}M cores ≈ 10^9 neurons — paper: 'a billion\n  spiking neurons in biological real time' (1% of the human brain)",
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "\nreal time holds at every measured size (0 violations), and per-core load,\nnot machine size, determines headroom — the architecture's scaling claim."
        );
        out
    }
}

/// E10 — virtualized topology: placement ablation (§3.2).
pub mod e10_placement {
    use super::*;
    use spinnaker::prelude::*;

    /// Builds a 2-D grid-of-populations network (locally connected).
    pub fn grid_net(side: u32, pop: u32) -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(net.population(
                    &format!("p{x}_{y}"),
                    pop,
                    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                    if x == 0 && y == 0 { 10.0 } else { 0.0 },
                ));
            }
        }
        // 4-neighbour local projections, as in a cortical sheet.
        for y in 0..side {
            for x in 0..side {
                let src = ids[(y * side + x) as usize];
                for (dx, dy) in [(1i64, 0i64), (0, 1)] {
                    let nx = (x as i64 + dx).rem_euclid(side as i64) as u32;
                    let ny = (y as i64 + dy).rem_euclid(side as i64) as u32;
                    let dst = ids[(ny * side + nx) as usize];
                    net.project(
                        src,
                        dst,
                        Connector::FixedProbability(0.3),
                        Synapses::constant(400, 2),
                        (y * side + x) as u64,
                    );
                }
            }
        }
        net
    }

    /// The E10 table.
    pub fn run(quick: bool) -> String {
        let ms = if quick { 80 } else { 200 };
        let net = grid_net(6, 64);
        let mut out = String::new();
        let _ = writeln!(out, "E10: virtualized topology — placement ablation (§3.2)");
        let _ = writeln!(
            out,
            "   6x6 grid of 64-neuron populations, local projections, 8x8 machine\n"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>11} {:>10} {:>9} {:>12} {:>10} {:>9}",
            "placer", "tree edges", "mean path", "entries", "packet hops", "spikes", "raster="
        );
        let mut reference: Option<Vec<spinnaker::PopSpike>> = None;
        for (label, placer) in [
            ("locality", Placer::Locality),
            ("round-robin", Placer::RoundRobin),
            ("random", Placer::Random { seed: 77 }),
        ] {
            let cfg = SimConfig::new(8, 8)
                .with_neurons_per_core(64)
                .with_placer(placer);
            let sim = Simulation::build(&net, cfg).unwrap();
            let rs = sim.route_stats().clone();
            let done = sim.run(ms);
            let mut spikes = done.spikes();
            spikes.sort_by_key(|s| (s.time_ms, s.pop.index(), s.neuron));
            let same = match &reference {
                None => {
                    reference = Some(spikes.clone());
                    true
                }
                Some(r) => *r == spikes,
            };
            let _ = writeln!(
                out,
                "{:<14} {:>11} {:>10.2} {:>9} {:>12} {:>10} {:>9}",
                label,
                rs.total_edges,
                rs.mean_path_len(),
                rs.total_entries,
                done.machine.meter().packet_hops,
                spikes.len(),
                same
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'In principle any neuron can be mapped onto any processor' — the\nspike raster is bit-identical under every placement (virtualized\ntopology); locality merely reduces routing cost ('minimize routing\ncosts, but it is not necessary to do so')."
        );
        out
    }
}

/// E11 — retina, rank-order codes and graceful degradation (§5.4).
pub mod e11_retina {
    use super::*;
    use spinn_neuron::coding::rank_order_similarity;
    use spinn_neuron::retina::{Image, RetinaLayer};
    use spinn_sim::Xoshiro256;

    /// The E11 table.
    pub fn run(quick: bool) -> String {
        let trials = if quick { 3 } else { 10 };
        let stimulus = Image::gaussian_blob(32, 32, 13.0, 19.0, 4.0);
        let scales: &[(f64, usize)] = &[(1.2, 4), (2.4, 8)];
        let healthy = RetinaLayer::new(32, 32, scales);
        let code0 = healthy.encode(&stimulus, 24);
        let recon0 = healthy.reconstruct(&code0, 0.9);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E11: retina, rank-order coding, graceful degradation (§5.4)"
        );
        let _ = writeln!(
            out,
            "   {} DoG ganglion cells at 2 overlapping scales, {trials} damage seeds\n",
            healthy.len()
        );
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>14}",
            "killed", "code sim", "recon corr", "recon (1scale)"
        );
        for frac in [0.0, 0.05, 0.10, 0.20, 0.30, 0.50] {
            let mut sim_sum = 0.0;
            let mut corr_sum = 0.0;
            let mut sparse_sum = 0.0;
            for t in 0..trials {
                let mut rng = Xoshiro256::seed_from_u64(0xE11 + t);
                let mut r = RetinaLayer::new(32, 32, scales);
                r.kill_fraction(frac, &mut rng);
                let code = r.encode(&stimulus, 24);
                sim_sum += rank_order_similarity(&code0, &code, r.len(), 0.9);
                corr_sum += recon0.correlation(&r.reconstruct(&code, 0.9));
                // Ablation: a single sparse scale (no overlap) damaged
                // the same way.
                let mut rng = Xoshiro256::seed_from_u64(0xE11 + t);
                let mut sparse = RetinaLayer::new(32, 32, &[(2.4, 8)]);
                sparse.kill_fraction(frac, &mut rng);
                let s0 = RetinaLayer::new(32, 32, &[(2.4, 8)]);
                let ref_recon = s0.reconstruct(&s0.encode(&stimulus, 24), 0.9);
                sparse_sum +=
                    ref_recon.correlation(&sparse.reconstruct(&sparse.encode(&stimulus, 24), 0.9));
            }
            let _ = writeln!(
                out,
                "{:>7.0}% {:>12.3} {:>12.3} {:>14.3}",
                frac * 100.0,
                sim_sum / trials as f64,
                corr_sum / trials as f64,
                sparse_sum / trials as f64,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'If a neuron fails ... a near-neighbour with a similar receptive\nfield will take over and very little information will be lost' — the\noverlapping-scale layer degrades gracefully; the single-scale ablation\n(no overlap) loses reconstruction quality faster."
        );
        out
    }
}

/// E12 — sharded parallel execution: the serial engine vs `spinn-par`
/// (the ROADMAP north star: run as fast as the host hardware allows
/// while preserving the machine's exact behaviour).
pub mod e12_parallel_execution {
    use super::*;
    use spinn_neuron::retina::{Image, RetinaLayer};
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// A synfire chain (Abeles): `stages` populations of `width` neurons
    /// in a ring, stage 0 tonically driven, each stage exciting the
    /// next. Once the wave has wrapped, every stage — and therefore
    /// every chip of the machine — is active on every timestep, which
    /// is the steady-state load the parallel engine is built for.
    pub fn synfire_net(stages: u32, width: u32) -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let pops: Vec<_> = (0..stages)
            .map(|i| {
                let bias = if i == 0 { 9.0 } else { 0.0 };
                net.population(&format!("s{i}"), width, kind, bias)
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

    /// A retina-driven feed-forward network: a Gaussian-blob stimulus is
    /// encoded by the E11 DoG ganglion layer, the rank-order code is
    /// quantized into `groups` bands, and each band's tonic drive
    /// follows its cells' mean DoG response (earlier rank = stronger
    /// response = stronger drive) — §5.4's vision front end as a
    /// machine workload, with the encoded stimulus content shaping the
    /// firing pattern.
    pub fn retina_net(groups: u32, width: u32) -> NetworkGraph {
        let retina = RetinaLayer::new(32, 32, &[(1.2, 4), (2.4, 8)]);
        let stimulus = Image::gaussian_blob(32, 32, 13.0, 19.0, 4.0);
        let responses = retina.responses(&stimulus);
        let code = retina.encode(&stimulus, groups as usize * 4);
        assert!(!code.is_empty(), "stimulus must excite the retina");
        let peak = responses[code.order[0] as usize].max(1e-9);
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let out = net.population("out", width, kind, 0.0);
        for g in 0..groups {
            // Band g covers one slice of the code's rank order; its
            // drive scales with the band's mean ganglion response.
            let lo = ((g as usize * code.len()) / groups as usize).min(code.len() - 1);
            let hi = (((g as usize + 1) * code.len()) / groups as usize).clamp(lo + 1, code.len());
            let band_cells = &code.order[lo..hi];
            let mean = band_cells
                .iter()
                .map(|&i| responses[i as usize])
                .sum::<f64>()
                / band_cells.len() as f64;
            let drive = 7.0 + 3.0 * (mean / peak) as f32;
            let band = net.population(&format!("band{g}"), width, kind, drive);
            net.project(
                band,
                out,
                Connector::FixedFanOut(10),
                Synapses::constant(350, 1 + (g % 8) as u8),
                g as u64,
            );
        }
        net
    }

    /// Wall-clock ms, spike stream and `(windows, exchanged)` counters
    /// (zeros for a serial run) of one run.
    fn timed_run(
        net: &NetworkGraph,
        cfg: SimConfig,
        ms: u32,
    ) -> (f64, Vec<spinnaker::PopSpike>, (u64, u64)) {
        let sim = Simulation::build(net, cfg).expect("workload fits the machine");
        let t0 = Instant::now();
        let done = sim.run(ms);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let par = done
            .machine
            .par_stats()
            .map_or((0, 0), |s| (s.windows, s.exchanged));
        (wall, done.spikes(), par)
    }

    /// The E12 table.
    pub fn run(quick: bool) -> String {
        let (edge, stages, width, ms) = if quick {
            (4u32, 16u32, 512u32, 150u32)
        } else {
            (8, 64, 768, 400)
        };
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E12: sharded parallel execution — serial engine vs spinn-par"
        );
        let _ = writeln!(
            out,
            "   {edge}x{edge} machine, conservative windows = min link latency,\n   cross-shard spikes exchanged at window barriers\n   host parallelism: {cores} core(s) — speedup needs as many cores as threads\n"
        );
        for (label, net) in [
            ("synfire chain", synfire_net(stages, width)),
            ("retina", retina_net(stages / 2, width)),
        ] {
            // Random placement scatters core slices over the whole torus,
            // so every chip — and therefore every shard — carries load and
            // consecutive synfire stages talk across shard boundaries
            // (§3.2: placement is free, function identical).
            let base_cfg = SimConfig::new(edge, edge)
                .with_neurons_per_core(128)
                .with_placer(Placer::Random { seed: 0xE12 });
            let (t1, reference, _) = timed_run(&net, base_cfg.clone(), ms);
            let _ = writeln!(
                out,
                "{label}: {} spikes over {ms} ms biological time",
                reference.len()
            );
            let _ = writeln!(
                out,
                "{:>9} {:>12} {:>9} {:>11} {:>10} {:>11}",
                "threads", "wall ms", "speedup", "identical", "windows", "exchanged"
            );
            let _ = writeln!(
                out,
                "{:>9} {:>12.1} {:>9} {:>11} {:>10} {:>11}",
                1, t1, "1.00x", true, "-", "-"
            );
            for threads in [2u32, 4, 8] {
                let (tp, spikes, (windows, exchanged)) =
                    timed_run(&net, base_cfg.clone().with_threads(threads), ms);
                let _ = writeln!(
                    out,
                    "{:>9} {:>12.1} {:>8.2}x {:>11} {:>10} {:>11}",
                    threads,
                    tp,
                    t1 / tp,
                    spikes == reference,
                    windows,
                    exchanged
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "the machine tolerates loose, locally-synchronized parallelism (§3.1):\nchips only interact through spike packets with >= one link delay of\nlookahead, so shards can run independently inside conservative windows\nand exchange packets at barriers — same spikes, less wall-clock."
        );
        out
    }
}

/// E13 — routing-table minimization and compiled lookup: masked-entry
/// compression in the mapper (Ordered-Covering style) against the
/// 1024-entry CAM budget (§4), and the key-indexed `CompiledTable`
/// against the linear scan on the per-packet hot path.
pub mod e13_table_minimization {
    use super::*;
    use spinn_map::place::{Placement, Placer};
    use spinn_map::route::RoutingPlan;
    use spinn_noc::compiled::CompiledTable;
    use spinn_noc::table::{McTable, McTableEntry, RouteSet};
    use spinn_sim::Xoshiro256;
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// The dense random-placement workload of
    /// `tests/parallel_equivalence.rs`: an 8-stage synfire ring of
    /// 256-neuron populations scattered over a 4x4 torus.
    pub fn dense_random_net() -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let pops: Vec<_> = (0..8u32)
            .map(|i| net.population(&format!("s{i}"), 256, kind, 0.0))
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

    /// One workload's minimization measurements.
    pub struct Row {
        /// Workload label.
        pub label: &'static str,
        /// CAM entries before minimization.
        pub before: usize,
        /// CAM entries after minimization.
        pub after: usize,
        /// Largest per-chip table before.
        pub max_before: usize,
        /// Largest per-chip table after.
        pub max_after: usize,
        /// Route-equivalence violations (must be 0).
        pub violations: usize,
    }

    impl Row {
        /// Entry reduction, percent.
        pub fn saved_pct(&self) -> f64 {
            if self.before == 0 {
                0.0
            } else {
                100.0 * (self.before - self.after) as f64 / self.before as f64
            }
        }
    }

    /// Minimizes one placed workload and verifies route equivalence.
    pub fn measure(
        label: &'static str,
        net: &NetworkGraph,
        w: u32,
        h: u32,
        neurons_per_core: u32,
        placer: Placer,
    ) -> Row {
        let placement = Placement::compute(net, w, h, 20, neurons_per_core, placer)
            .expect("workload fits the machine");
        let plan = RoutingPlan::build(net, &placement, w, h);
        let min = plan.minimized();
        Row {
            label,
            before: plan.total_entries(),
            after: min.total_entries(),
            max_before: plan.stats().max_entries_per_chip,
            max_after: min.stats().max_entries_per_chip,
            violations: plan.verify_against(&min),
        }
    }

    /// Builds a CAM-shaped table of `n` distinct core-block entries.
    pub fn synthetic_table(n: usize, seed: u64) -> McTable {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut table = McTable::new(n.max(1024));
        let mut used = std::collections::HashSet::new();
        while table.len() < n {
            let block = (rng.gen_range_usize(1 << 21)) as u32;
            if used.insert(block) {
                let (key, mask) = spinn_map::keys::core_key_mask(block);
                table
                    .insert(McTableEntry {
                        key,
                        mask,
                        route: RouteSet::from_bits(1 << (rng.gen_range_usize(26) + 6)),
                    })
                    .expect("capacity sized to n");
            }
        }
        table
    }

    /// Lookup throughput in millions of lookups per second:
    /// `(linear scan, compiled)` over a mixed hit/miss key stream.
    pub fn lookup_throughput(entries: usize, lookups: u64) -> (f64, f64) {
        let table = synthetic_table(entries, 0xE13);
        let compiled = CompiledTable::compile(&table);
        let keys: Vec<u32> = table
            .iter()
            .map(|e| e.key | 7)
            .chain((0..entries as u32 / 4).map(|i| !(i << 11)))
            .collect();
        let mps = |f: &dyn Fn(u32) -> Option<RouteSet>| {
            let mut acc = 0u32;
            let t0 = Instant::now();
            for i in 0..lookups {
                let key = keys[(i as usize * 7919) % keys.len()];
                acc ^= f(key).map_or(0, |r| r.bits());
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            lookups as f64 / dt / 1e6
        };
        let linear = mps(&|k| table.lookup(k));
        let fast = mps(&|k| compiled.lookup(k));
        (linear, fast)
    }

    /// The E13 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E13: routing-table minimization + compiled first-match lookup (§4)"
        );
        let _ = writeln!(
            out,
            "   masked-entry compression vs the 1024-entry CAM; hot-path lookup\n"
        );
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>8} {:>7} {:>10} {:>10} {:>11}",
            "workload", "entries", "minim.", "saved", "max/chip", "occupancy", "violations"
        );
        let e12 = super::e12_parallel_execution::synfire_net(16, 512);
        let retina = super::e12_parallel_execution::retina_net(8, 512);
        let dense = dense_random_net();
        for row in [
            measure(
                "synfire chain (locality)",
                &e12,
                4,
                4,
                128,
                Placer::Locality,
            ),
            measure(
                "synfire chain (random)",
                &e12,
                4,
                4,
                128,
                Placer::Random { seed: 0xE13 },
            ),
            measure("retina (locality)", &retina, 4, 4, 128, Placer::Locality),
            measure(
                "dense random placement",
                &dense,
                4,
                4,
                128,
                Placer::Random { seed: 0xD15E },
            ),
        ] {
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>8} {:>6.1}% {:>6}->{:<3} {:>9.1}% {:>11}",
                row.label,
                row.before,
                row.after,
                row.saved_pct(),
                row.max_before,
                row.max_after,
                100.0 * row.max_after as f64 / 1024.0,
                row.violations,
            );
        }
        let lookups = if quick { 200_000 } else { 2_000_000 };
        let _ = writeln!(
            out,
            "\nlookup throughput, {lookups} lookups over a synthetic CAM:\n"
        );
        let _ = writeln!(
            out,
            "{:>13} {:>14} {:>14} {:>9}",
            "entries/chip", "linear M/s", "compiled M/s", "speedup"
        );
        for entries in [64usize, 256, 1024] {
            let (linear, fast) = lookup_throughput(entries, lookups);
            let _ = writeln!(
                out,
                "{:>13} {:>14.1} {:>14.1} {:>8.1}x",
                entries,
                linear,
                fast,
                fast / linear
            );
        }
        let _ = writeln!(
            out,
            "\nthe mapper's widened ternary entries keep sibling slices of one\npopulation to a single entry per chip (Ordered-Covering style, zero\nroute-equivalence violations), and the mask-bucketed compiled lookup\nreplaces the O(entries) CAM scan with one hash probe per distinct mask\n— the win grows with occupancy, exactly where the 1024-entry budget\nbites."
        );
        out
    }
}

/// A1 — ablation: the programmable router waits (wait1/wait2) trade
/// packet loss against blocked-time under bursty congestion (§5.3's
/// "programmable delay" registers).
pub mod a01_router_waits {
    use super::*;
    use spinn_noc::direction::Direction;
    use spinn_noc::fabric::{FabricConfig, FabricEvent, FabricSim};
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::packet::Packet;
    use spinn_noc::table::{McTableEntry, RouteSet};
    use spinn_sim::{Engine, SimTime};

    /// Sends a hard burst into one link and reports the outcome for one
    /// (wait1, wait2, queue capacity) setting.
    pub fn burst(wait1: u64, wait2: u64, cap: usize, n: u64) -> (f64, f64, u64) {
        let mut cfg = FabricConfig::new(8, 8);
        cfg.router.wait1_ns = wait1;
        cfg.router.wait2_ns = wait2;
        cfg.out_queue_cap = cap;
        let mut sim = FabricSim::new(cfg);
        let key = 0xA1;
        sim.fabric
            .router_mut(NodeCoord::new(0, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(4, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        for i in 0..n {
            // 3x the link's drain rate: a genuine overload burst.
            sim.queue_injection(i * 55, NodeCoord::new(0, 0), Packet::multicast(key));
        }
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(n * 55 + 100_000_000));
        let sim = engine.into_model();
        let stats = sim.fabric.total_stats();
        (
            100.0 * sim.delivered() as f64 / n as f64,
            sim.latency().mean(),
            stats.dropped,
        )
    }

    /// The A1 table.
    pub fn run(quick: bool) -> String {
        let n = if quick { 200 } else { 1000 };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "A1 (ablation): router wait1/wait2 and queue depth under a 3x burst"
        );
        let _ = writeln!(
            out,
            "   {n}-packet burst at 55 ns spacing vs a 160 ns/packet link\n"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>7} {:>11} {:>12} {:>9}",
            "wait1 ns", "wait2 ns", "queue", "delivered", "mean lat ns", "dropped"
        );
        for (w1, w2, cap) in [
            (400u64, 800u64, 4usize),
            (2_000, 10_000, 4),
            (10_000, 50_000, 4),
            (2_000, 10_000, 1),
            (2_000, 10_000, 16),
        ] {
            let (pct, lat, dropped) = burst(w1, w2, cap, n);
            let _ = writeln!(
                out,
                "{w1:>9} {w2:>9} {cap:>7} {pct:>10.1}% {lat:>12.0} {dropped:>9}"
            );
        }
        let _ = writeln!(
            out,
            "\nlonger waits and deeper queues absorb bursts at the cost of blocked\ntime; the paper leaves both programmable for exactly this trade (§5.3)."
        );
        out
    }
}

/// A2 — ablation: default-route elision (§5.2): how much of the
/// 1024-entry CAM does the straight-through trick save?
pub mod a02_default_route_elision {
    use super::*;
    use spinn_map::place::{Placement, Placer};
    use spinn_map::route::RoutingPlan;

    /// The A2 table.
    pub fn run(_quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "A2 (ablation): default-route elision and CAM pressure (§5.2)"
        );
        let _ = writeln!(
            out,
            "   6x6 grid-of-populations network on an 8x8 machine\n"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>13} {:>13} {:>9} {:>15}",
            "placer", "entries", "w/o elision", "saved", "max/chip (cap 1024)"
        );
        let net = super::e10_placement::grid_net(6, 64);
        for (label, placer) in [
            ("locality", Placer::Locality),
            ("round-robin", Placer::RoundRobin),
            ("random", Placer::Random { seed: 77 }),
        ] {
            let placement = Placement::compute(&net, 8, 8, 17, 64, placer).unwrap();
            let with = RoutingPlan::build_with_options(&net, &placement, 8, 8, true);
            let without = RoutingPlan::build_with_options(&net, &placement, 8, 8, false);
            let _ = writeln!(
                out,
                "{:<14} {:>13} {:>13} {:>8.1}% {:>15}",
                label,
                with.total_entries(),
                without.total_entries(),
                100.0 * with.stats().elided_entries as f64 / without.total_entries().max(1) as f64,
                with.stats().max_entries_per_chip,
            );
        }
        let _ = writeln!(
            out,
            "\nthe worse the placement, the longer the straight default-routed runs —\nelision is what keeps arbitrary (virtualized) placements within the\n1024-entry CAM budget."
        );
        out
    }
}

/// E14 — the event core itself: the time-bucketed calendar queue vs the
/// binary heap on the machine's characteristic dense same-tick workload
/// (Fig. 7's million-events-per-millisecond regime), plus an
/// end-to-end spikes/sec sweep across mesh sizes and thread counts.
/// This is the first experiment that also emits a machine-readable
/// [`crate::record::BenchReport`] (`BENCH_e14.json` at the repo root):
/// the start of the measured performance trajectory every later change
/// appends to.
pub mod e14_event_core {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use spinn_sim::{CalendarQueue, EventQueue, Queue, QueueKind, SimTime};
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// Drives one queue through the machine-shaped microbenchmark:
    /// `distinct` burst instants of `per_tick` rank-colliding events
    /// each, a far-future "timer" rearm per burst (exercising the
    /// calendar's overflow tier), interleaved with full drains of the
    /// current instant. Returns `(ns per operation, checksum)` — the
    /// checksum is order-sensitive, so equal checksums mean equal pop
    /// sequences.
    fn micro<Q: Queue<u64>>(distinct: u64, per_tick: u64, spread_ns: u64) -> (f64, u64) {
        let mut q = Q::default();
        let mut checksum = 0u64;
        let mut ops = 0u64;
        let t0 = Instant::now();
        for d in 0..distinct {
            let base = d * spread_ns;
            for k in 0..per_tick {
                q.push_ranked(SimTime::new(base), u128::from(k % 7), d * per_tick + k);
            }
            q.push_ranked(SimTime::new(base + 1_000_000), 0, u64::MAX - d);
            ops += per_tick + 1;
            while q.peek_time() == Some(SimTime::new(base)) {
                let (t, v) = q.pop().expect("peeked");
                checksum = checksum
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(t.ticks() ^ v);
                ops += 1;
            }
        }
        while let Some((t, v)) = q.pop() {
            checksum = checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(t.ticks() ^ v);
            ops += 1;
        }
        (t0.elapsed().as_nanos() as f64 / ops as f64, checksum)
    }

    /// One microbenchmark case on both queues, recorded with the
    /// heap/calendar throughput ratio.
    fn micro_case(
        report: &mut BenchReport,
        label: &str,
        distinct: u64,
        per_tick: u64,
        spread_ns: u64,
    ) -> (f64, f64, f64) {
        let (heap_ns, heap_sum) = micro::<EventQueue<u64>>(distinct, per_tick, spread_ns);
        let (cal_ns, cal_sum) = micro::<CalendarQueue<u64>>(distinct, per_tick, spread_ns);
        assert_eq!(
            heap_sum, cal_sum,
            "queue implementations diverged on {label}"
        );
        let ratio = heap_ns / cal_ns;
        report.push(
            BenchRecord::new("queue_microbench")
                .config("case", label)
                .config("distinct_timestamps", distinct)
                .config("events_per_timestamp", per_tick)
                .config("timestamp_spread_ns", spread_ns)
                .metric("heap_ns_per_op", heap_ns)
                .metric("calendar_ns_per_op", cal_ns)
                .metric("heap_over_calendar_ratio", ratio)
                .metric("pop_sequences_identical", true),
        );
        (heap_ns, cal_ns, ratio)
    }

    /// One end-to-end run; returns `(wall ms, spikes)` plus latency
    /// percentiles, recording everything into the report. Also used by
    /// E15, whose spikes/sec sweep must be row-compatible with the
    /// committed E14 baseline for `scripts/bench_compare.py`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_case(
        report: &mut BenchReport,
        net: &NetworkGraph,
        edge: u32,
        threads: u32,
        queue: QueueKind,
        ms: u32,
    ) -> (f64, usize) {
        sweep_case_best_of(report, net, edge, threads, queue, ms, 1)
    }

    /// [`sweep_case`] measured `repeats` times, recording the fastest
    /// run — wall-clock on shared/oversubscribed hosts (the sweep runs
    /// more threads than a 1-core CI container has) is noisy enough
    /// that single runs swing tens of percent; best-of-N recovers the
    /// code's actual speed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_case_best_of(
        report: &mut BenchReport,
        net: &NetworkGraph,
        edge: u32,
        threads: u32,
        queue: QueueKind,
        ms: u32,
        repeats: usize,
    ) -> (f64, usize) {
        let run_once = || {
            let cfg = SimConfig::new(edge, edge)
                .with_neurons_per_core(128)
                .with_placer(Placer::Random { seed: 0xE14 })
                .with_queue(queue)
                .with_threads(threads);
            let sim = Simulation::build(net, cfg).expect("workload fits the machine");
            let t0 = Instant::now();
            let done = sim.run(ms);
            (t0.elapsed().as_secs_f64() * 1e3, done)
        };
        let (mut wall_ms, mut done) = run_once();
        for _ in 1..repeats.max(1) {
            let (w, d) = run_once();
            if w < wall_ms {
                (wall_ms, done) = (w, d);
            }
        }
        let spikes = done.machine.spikes().len();
        let lat = done.machine.spike_latency();
        report.push(
            BenchRecord::new("end_to_end_sweep")
                .config("mesh", format!("{edge}x{edge}"))
                .config("chips", (edge * edge) as u64)
                .config("threads", threads)
                .config(
                    "effective_threads",
                    done.machine.effective_threads(threads as usize) as u64,
                )
                .config(
                    "host_cores",
                    std::thread::available_parallelism().map_or(1, |p| p.get()),
                )
                .config("queue", queue.to_string())
                .config("bio_ms", ms)
                .config("repeats", repeats.max(1))
                .metric("wall_ms", wall_ms)
                .metric("spikes", spikes)
                .metric("spikes_per_sec", spikes as f64 / (wall_ms / 1e3))
                .metric("packets_per_sec", {
                    // spikes/s is the end-to-end figure; this is the
                    // fabric one (multicast packets routed per second).
                    let rs = done.machine.router_stats();
                    (rs.mc_table_hits + rs.mc_default_routed) as f64 / (wall_ms / 1e3)
                })
                .metric("event_latency_p50_ns", lat.percentile(50.0))
                .metric("event_latency_p99_ns", lat.percentile(99.0)),
        );
        (wall_ms, spikes)
    }

    /// Builds the E14 report (the table in [`run`] formats it).
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E14",
            "calendar queue vs binary heap: microbenchmark + end-to-end scaling",
            quick,
        );
        let (distinct, per_tick) = if quick { (64, 3_000) } else { (128, 20_000) };
        // The headline case: everything on a handful of instants.
        micro_case(&mut report, "dense_same_tick", distinct, per_tick, 0);
        // Bursts separated like packet clusters inside a tick.
        micro_case(&mut report, "bursty_500ns", distinct, per_tick / 2, 500);
        // Sparse: few events per instant (the heap's best case).
        micro_case(&mut report, "sparse", distinct * 64, 4, 700);

        let (edges, ms): (&[u32], u32) = if quick {
            (&[8], 100)
        } else {
            (&[8, 16, 32], 200)
        };
        for &edge in edges {
            let net = super::e12_parallel_execution::synfire_net(16, 512);
            for queue in [QueueKind::Heap, QueueKind::Calendar] {
                for threads in [1u32, 2, 4, 16] {
                    sweep_case(&mut report, &net, edge, threads, queue, ms);
                }
            }
        }
        report
    }

    /// The E14 table; also writes `BENCH_e14.json` when invoked through
    /// `run_experiments` (which calls [`report`] + `write_to` itself).
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Numeric field of a record's config/metrics list (NaN if absent).
    /// Shared with E15's formatter.
    pub(crate) fn num_field(keys: &[(String, crate::record::Json)], k: &str) -> f64 {
        keys.iter()
            .find(|(key, _)| key == k)
            .and_then(|(_, v)| match v {
                crate::record::Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(f64::NAN)
    }

    /// String field of a record's config/metrics list (empty if absent).
    /// Shared with E15's formatter.
    pub(crate) fn str_field(keys: &[(String, crate::record::Json)], k: &str) -> String {
        keys.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| match v {
                crate::record::Json::Str(s) => s.clone(),
                crate::record::Json::Num(n) => format!("{n}"),
                crate::record::Json::Bool(b) => b.to_string(),
                other => format!("{other:?}"),
            })
            .unwrap_or_default()
    }

    /// Formats a report as the human-readable E14 table.
    pub fn format_report(report: &BenchReport) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E14: event-core scaling — calendar queue vs binary heap ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   §3.1/Fig. 7: a million-core machine is event-driven; the queue that\n   feeds it must be O(1) on dense same-instant bursts\n"
        );
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>10} {:>14} {:>14} {:>8}",
            "microbench", "events/tick", "ticks", "heap ns/op", "cal ns/op", "ratio"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "queue_microbench")
        {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>10} {:>14.1} {:>14.1} {:>7.2}x",
                str_field(&r.config, "case"),
                num_field(&r.config, "events_per_timestamp"),
                num_field(&r.config, "distinct_timestamps"),
                num_field(&r.metrics, "heap_ns_per_op"),
                num_field(&r.metrics, "calendar_ns_per_op"),
                num_field(&r.metrics, "heap_over_calendar_ratio"),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10} {:>14} {:>12} {:>12}",
            "mesh", "queue", "threads", "wall ms", "spikes/sec", "p50 lat ns", "p99 lat ns"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "end_to_end_sweep")
        {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>10.1} {:>14.0} {:>12.0} {:>12.0}",
                str_field(&r.config, "mesh"),
                str_field(&r.config, "queue"),
                num_field(&r.config, "threads"),
                num_field(&r.metrics, "wall_ms"),
                num_field(&r.metrics, "spikes_per_sec"),
                num_field(&r.metrics, "event_latency_p50_ns"),
                num_field(&r.metrics, "event_latency_p99_ns"),
            );
        }
        let _ = writeln!(
            out,
            "\nthe calendar queue turns the heap's O(log n) same-instant churn into\nO(1) bucket appends (ring of per-tick buckets + sorted overflow tier for\nthe 1 ms timer horizon) — and the golden-trace suite pins both queues to\nbit-identical spike streams, so the speedup is free of behavioural risk."
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn microbench_checksums_agree_across_queues() {
            for (d, k, s) in [(8, 200, 0u64), (16, 50, 500), (64, 3, 900)] {
                let (_, a) = micro::<EventQueue<u64>>(d, k, s);
                let (_, b) = micro::<CalendarQueue<u64>>(d, k, s);
                assert_eq!(a, b, "({d},{k},{s})");
            }
        }

        #[test]
        fn report_contains_required_metrics() {
            // Tiny synthetic report (not the full quick run: keep the
            // test suite fast) — exercise micro_case + formatting.
            let mut report = BenchReport::new("E14", "test", true);
            let (_, _, ratio) = micro_case(&mut report, "dense_same_tick", 8, 500, 0);
            assert!(ratio.is_finite() && ratio > 0.0);
            let text = format_report(&report);
            assert!(text.contains("dense_same_tick"), "{text}");
            let json = report.to_json_string();
            assert!(json.contains("heap_over_calendar_ratio"), "{json}");
        }
    }
}

/// E15 — the build-and-run memory model: streaming network expansion
/// into per-core master-population-table + contiguous-arena synaptic
/// matrices (§5.2/§6), measured against a faithful port of the
/// seed's materialize-then-hash loader on a 100k-neuron
/// `FixedProbability` workload. Emits `BENCH_e15.json`, whose
/// end-to-end sweep rows are config-compatible with the committed
/// `BENCH_e14.json` baseline so `scripts/bench_compare.py` can gate
/// spikes/sec regressions.
pub mod e15_memory_model {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use spinn_sim::Xoshiro256;
    use spinnaker::map::loader::LoadedApp;
    use spinnaker::map::place::Placement;
    use spinnaker::neuron::synapse::SynapticRow;
    use spinnaker::prelude::*;
    use std::collections::HashMap;
    use std::time::Instant;

    /// The workload: `pops` populations of `size` neurons in a chain of
    /// `FixedProbability(p)` projections — the paper's "sparse random
    /// connectivity at scale" regime. Quick mode uses 20 x 5,000 =
    /// 100,000 neurons.
    pub fn prob_net(pops: u32, size: u32, p: f64) -> NetworkGraph {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let ids: Vec<_> = (0..pops)
            .map(|i| net.population(&format!("p{i}"), size, kind, if i == 0 { 9.0 } else { 0.0 }))
            .collect();
        for (i, w) in ids.windows(2).enumerate() {
            net.project(
                w[0],
                w[1],
                Connector::FixedProbability(p),
                Synapses::constant(450, 1 + (i % 4) as u8),
                0xE15 ^ i as u64,
            );
        }
        net
    }

    /// A faithful port of the seed's expansion path, kept as the
    /// measured baseline: materialize every projection into a
    /// `Vec<(u32, u32)>` edge list via per-pair Bernoulli trials, then
    /// scatter into per-core `HashMap<u32, SynapticRow>` with a linear
    /// slice scan per pair. Returns (synapses, estimated resident
    /// bytes).
    fn legacy_build(net: &NetworkGraph, placement: &Placement) -> (u64, u64) {
        let mut images: Vec<HashMap<u32, SynapticRow>> =
            placement.slices().iter().map(|_| HashMap::new()).collect();
        for proj in net.projections() {
            let n_src = net.pop(proj.src).size;
            let n_dst = net.pop(proj.dst).size;
            for dst_slice in placement.slices_of(proj.dst) {
                let img_idx = placement
                    .slices()
                    .iter()
                    .position(|sl| sl == dst_slice)
                    .expect("slice exists");
                for src_slice in placement.slices_of(proj.src) {
                    for n in src_slice.lo..src_slice.hi {
                        let key = spinnaker::map::keys::neuron_key(
                            src_slice.global_core,
                            n - src_slice.lo,
                        );
                        images[img_idx].entry(key).or_default();
                    }
                }
            }
            // The seed's `Projection::pairs`: a full Bernoulli trial
            // per (src, dst) pair, materialized before loading.
            let mut expand_rng = Xoshiro256::seed_from_u64(proj.seed ^ 0x50C1_A11E);
            let mut pairs = Vec::new();
            if let Connector::FixedProbability(p) = proj.connector {
                for s in 0..n_src {
                    for d in 0..n_dst {
                        if expand_rng.gen_bool(p) {
                            pairs.push((s, d));
                        }
                    }
                }
            } else {
                pairs = proj.pairs(n_src, n_dst);
            }
            let mut rng = Xoshiro256::seed_from_u64(proj.seed ^ 0x005E_ED0F_5EED);
            for (s, d) in pairs {
                let (w, delay) = proj.synapses.sample(&mut rng);
                let src_slice = placement.locate(proj.src, s);
                let dst_slice = placement.locate(proj.dst, d);
                let src_key =
                    spinnaker::map::keys::neuron_key(src_slice.global_core, s - src_slice.lo);
                let img_idx = placement
                    .slices()
                    .iter()
                    .position(|sl| sl == dst_slice)
                    .expect("slice exists");
                let local_target = (d - dst_slice.lo) as u16;
                images[img_idx].entry(src_key).or_default().push(
                    spinnaker::neuron::synapse::SynapticWord::new(w, delay, local_target),
                );
            }
        }
        let synapses: u64 = images
            .iter()
            .flat_map(|m| m.values())
            .map(|r| r.len() as u64)
            .sum();
        // Resident estimate: 4-byte words plus per-row Vec header +
        // hash-table slot (~48 B/row with load factor and padding).
        let rows: u64 = images.iter().map(|m| m.len() as u64).sum();
        (synapses, synapses * 4 + rows * 48)
    }

    /// The E15 report: build-time + resident-bytes comparison, an
    /// end-to-end spikes/sec sweep row-compatible with E14, and the
    /// structured per-chip occupancy section.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E15",
            "streaming expansion + arena-backed synaptic matrices vs materialize-and-hash",
            quick,
        );
        let (pops, size, p) = if quick {
            (20u32, 5_000u32, 0.02)
        } else {
            (25, 8_000, 0.015)
        };
        let net = prob_net(pops, size, p);
        let total_neurons = net.total_neurons();
        let cfg = SimConfig::new(8, 8).with_neurons_per_core(256);

        // Loader-only apples-to-apples: same placement, old vs new
        // expansion + image assembly.
        let placement = Placement::compute(&net, 8, 8, 20, 256, Placer::Locality).unwrap();
        let t0 = Instant::now();
        let (legacy_synapses, legacy_bytes) = legacy_build(&net, &placement);
        let legacy_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let app = LoadedApp::build(&net, &placement);
        let stream_ms = t0.elapsed().as_secs_f64() * 1e3;
        let arena_resident: u64 = app.images.iter().map(|i| i.matrix.resident_bytes()).sum();
        let synapses = app.total_synapses();

        // Full pipeline: place -> route -> minimize -> stream-load.
        let t0 = Instant::now();
        let sim = Simulation::build(&net, cfg.clone()).expect("workload fits an 8x8 machine");
        let full_build_ms = t0.elapsed().as_secs_f64() * 1e3;

        report.push(
            BenchRecord::new("build_memory_model")
                .config("neurons", total_neurons)
                .config("populations", pops)
                .config("fixed_probability", p)
                .config("mesh", "8x8")
                .metric("synapses", synapses)
                .metric("legacy_loader_ms", legacy_ms)
                .metric("streaming_loader_ms", stream_ms)
                .metric("loader_speedup", legacy_ms / stream_ms)
                .metric("full_build_ms", full_build_ms)
                .metric("build_speedup_vs_legacy_loader", legacy_ms / full_build_ms)
                .metric("arena_resident_bytes", arena_resident)
                .metric("legacy_resident_bytes_est", legacy_bytes)
                .metric(
                    "bytes_per_synapse",
                    arena_resident as f64 / synapses.max(1) as f64,
                )
                .metric("sdram_bytes", app.total_sdram_bytes())
                // The streaming expansion samples geometric gaps rather
                // than per-pair Bernoulli trials, so the two realized
                // edge sets differ while sharing the same distribution;
                // the counts must agree statistically.
                .metric(
                    "legacy_over_streaming_synapses",
                    legacy_synapses as f64 / synapses.max(1) as f64,
                ),
        );

        // Short run of the large net: spikes/sec at the 100k scale plus
        // the structured per-chip occupancy section.
        let run_ms = if quick { 20 } else { 50 };
        let t0 = Instant::now();
        let done = sim.run(run_ms);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let occ = done.occupancy();
        let loaded: Vec<_> = occ.iter().filter(|c| c.loaded_cores > 0).collect();
        let worst = loaded
            .iter()
            .max_by_key(|c| c.sdram_bytes)
            .expect("cores loaded");
        report.push(
            BenchRecord::new("chip_occupancy")
                .config("neurons", total_neurons)
                .config("bio_ms", run_ms)
                .metric("loaded_chips", loaded.len())
                .metric(
                    "spikes_per_sec",
                    done.machine.spikes().len() as f64 / (wall_ms / 1e3),
                )
                .metric(
                    "dropped_packets",
                    occ.iter().map(|c| c.dropped_packets).sum::<u64>(),
                )
                .metric(
                    "sdram_bytes_total",
                    occ.iter().map(|c| c.sdram_bytes).sum::<u64>(),
                )
                .metric("sdram_bytes_worst_chip", worst.sdram_bytes)
                .metric(
                    "sdram_worst_chip_pct",
                    100.0 * worst.sdram_bytes as f64 / worst.sdram_capacity as f64,
                )
                .metric(
                    "dtcm_bytes_total",
                    occ.iter().map(|c| c.dtcm_bytes).sum::<u64>(),
                )
                .metric("dtcm_bytes_worst_chip", worst.dtcm_bytes),
        );

        // The E14-compatible spikes/sec sweep (same workload, same
        // configs) — the rows `scripts/bench_compare.py` diffs against
        // the committed baseline.
        let (edges, ms): (&[u32], u32) = if quick {
            (&[8], 100)
        } else {
            (&[8, 16, 32], 200)
        };
        for &edge in edges {
            let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
            for queue in [QueueKind::Heap, QueueKind::Calendar] {
                for threads in [1u32, 2, 4, 16] {
                    // Best-of-3: thread>1 rows on an oversubscribed
                    // host swing tens of percent run to run; the gate
                    // in scripts/bench_compare.py needs stable rows.
                    super::e14_event_core::sweep_case_best_of(
                        &mut report,
                        &sweep_net,
                        edge,
                        threads,
                        queue,
                        ms,
                        3,
                    );
                }
            }
        }
        report
    }

    /// The E15 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E15 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E15: build-and-run memory model — streaming expansion + synaptic arena ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   §5.2/§6: synaptic state as contiguous per-source rows behind a master\n   population table, constructed without ever materializing the edge list\n"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "build_memory_model")
        {
            let _ = writeln!(
                out,
                "{:>12.0} neurons, {:>11.0} synapses (FixedProbability {:.3})",
                num(&r.config, "neurons"),
                num(&r.metrics, "synapses"),
                num(&r.config, "fixed_probability"),
            );
            let _ = writeln!(
                out,
                "  loader:     legacy {:>9.1} ms   streaming {:>8.1} ms   speedup {:>5.1}x",
                num(&r.metrics, "legacy_loader_ms"),
                num(&r.metrics, "streaming_loader_ms"),
                num(&r.metrics, "loader_speedup"),
            );
            let _ = writeln!(
                out,
                "  full build: {:>8.1} ms (place->route->minimize->stream-load), {:>5.1}x vs legacy loader alone",
                num(&r.metrics, "full_build_ms"),
                num(&r.metrics, "build_speedup_vs_legacy_loader"),
            );
            let _ = writeln!(
                out,
                "  resident:   arena {:>11.0} B ({:.2} B/synapse)   legacy est {:>11.0} B",
                num(&r.metrics, "arena_resident_bytes"),
                num(&r.metrics, "bytes_per_synapse"),
                num(&r.metrics, "legacy_resident_bytes_est"),
            );
        }
        for r in report.records.iter().filter(|r| r.name == "chip_occupancy") {
            let _ = writeln!(
                out,
                "  occupancy:  {:.0} chips loaded, worst SDRAM {:.0} B ({:.2}%), {:.0} dropped, {:>9.0} spikes/s",
                num(&r.metrics, "loaded_chips"),
                num(&r.metrics, "sdram_bytes_worst_chip"),
                num(&r.metrics, "sdram_worst_chip_pct"),
                num(&r.metrics, "dropped_packets"),
                num(&r.metrics, "spikes_per_sec"),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10} {:>14}",
            "mesh", "queue", "threads", "wall ms", "spikes/sec"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "end_to_end_sweep")
        {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>10.1} {:>14.0}",
                str_field(&r.config, "mesh"),
                str_field(&r.config, "queue"),
                num(&r.config, "threads"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "spikes_per_sec"),
            );
        }
        let _ = writeln!(
            out,
            "\nthe master population table is a sorted (key, mask) array over one\ncontiguous CSR arena per core: packet handling binary-searches ~dozens of\nentries instead of hashing, STDP rewrites weights in the arena in place,\nand the golden-trace suite pins the refactor to bit-identical spikes.\ncompare against the committed baseline: scripts/bench_compare.py\nBENCH_e15.json BENCH_e14.json"
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn legacy_and_streaming_loaders_agree_statistically() {
            // Geometric-gap streaming and per-pair Bernoulli realize
            // *different* edge sets from the same distribution: counts
            // must agree with the binomial expectation, not exactly.
            let net = prob_net(4, 120, 0.1);
            let placement = Placement::compute(&net, 4, 4, 17, 64, Placer::Locality).unwrap();
            let (legacy_synapses, legacy_bytes) = legacy_build(&net, &placement);
            let app = LoadedApp::build(&net, &placement);
            let expected = 3.0 * 120.0 * 120.0 * 0.1;
            for got in [legacy_synapses, app.total_synapses()] {
                let got = got as f64;
                assert!(
                    (got - expected).abs() < 0.2 * expected,
                    "count {got} vs expectation {expected}"
                );
            }
            assert!(legacy_bytes > 0);
        }

        #[test]
        fn report_smoke_on_a_tiny_workload() {
            // Not the full quick run (CI time): exercise the formatter
            // against a synthetic record.
            let mut report = BenchReport::new("E15", "test", true);
            report.push(
                BenchRecord::new("build_memory_model")
                    .config("neurons", 100u64)
                    .config("fixed_probability", 0.1f64)
                    .metric("synapses", 42u64)
                    .metric("legacy_loader_ms", 2.0f64)
                    .metric("streaming_loader_ms", 1.0f64)
                    .metric("loader_speedup", 2.0f64)
                    .metric("full_build_ms", 1.5f64)
                    .metric("build_speedup_vs_legacy_loader", 1.3f64)
                    .metric("arena_resident_bytes", 168u64)
                    .metric("bytes_per_synapse", 4.0f64)
                    .metric("legacy_resident_bytes_est", 2184u64),
            );
            let text = format_report(&report);
            assert!(text.contains("speedup"), "{text}");
            assert!(report.to_json_string().contains("loader_speedup"));
        }
    }
}

/// E16 — checkpointable run sessions: warm multi-run serving against
/// one resident build vs rebuild-per-job, and the cost of a
/// deterministic checkpoint → serialize → rebuild → restore cycle, on
/// the E15 100k-neuron `FixedProbability` workload. Emits
/// `BENCH_e16.json` with end-to-end sweep rows config-compatible with
/// E14/E15 so `scripts/bench_compare.py` can chain the trajectory
/// E14 → E15 → E16.
pub mod e16_sessions {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use spinnaker::prelude::*;
    use spinnaker::RunSession;
    use std::time::Instant;

    /// Per-job Poisson rate of the serving stream (a parameter sweep:
    /// each job probes the resident network at a different drive).
    fn job_rate_hz(job: u32) -> f64 {
        4.0 + 2.0 * job as f64
    }

    /// The serving workload: E15's 100k-neuron `FixedProbability` chain
    /// with the tonic bias removed and sub-critical synaptic weights —
    /// activity is *stimulus-driven and transient*, as a served
    /// network's is, so every job costs what its own probe injects
    /// rather than what a free-running (or reverberating) network
    /// accumulates between jobs.
    pub fn serving_net(pops: u32, size: u32, p: f64) -> NetworkGraph {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let ids: Vec<_> = (0..pops)
            .map(|i| net.population(&format!("p{i}"), size, kind, 0.0))
            .collect();
        for (i, w) in ids.windows(2).enumerate() {
            net.project(
                w[0],
                w[1],
                Connector::FixedProbability(p),
                Synapses::constant(520, 1 + (i % 4) as u8),
                0xE16 ^ i as u64,
            );
        }
        net
    }

    /// The E16 report: amortized build cost of warm serving,
    /// checkpoint/restore overhead with a bit-exactness verdict, and
    /// the E14-compatible spikes/sec sweep.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E16",
            "checkpointable run sessions: warm multi-run serving vs rebuild-per-job",
            quick,
        );
        let (pops, size, p) = if quick {
            (20u32, 5_000u32, 0.02)
        } else {
            (25, 8_000, 0.015)
        };
        let net = serving_net(pops, size, p);
        let total_neurons = net.total_neurons();
        let input = PopulationId::from_index(0);
        let cfg = SimConfig::new(8, 8).with_neurons_per_core(256);
        let (jobs, job_ms) = if quick { (6u32, 5u32) } else { (10, 10) };

        // Warm path: build once, serve every job from the resident
        // session (each job swaps the stimulus program and drains its
        // own spikes).
        let t0 = Instant::now();
        let sim = Simulation::build(&net, cfg.clone()).expect("workload fits an 8x8 machine");
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut session = sim.into_session();
        let t0 = Instant::now();
        let mut warm_spikes = 0u64;
        for job in 0..jobs {
            session.clear_stimulus_sources();
            session.add_poisson(input, job_rate_hz(job), job as u64 + 1);
            session.run_for(job_ms);
            warm_spikes += session.take_spikes().len() as u64;
        }
        let warm_serve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let warm_total_ms = build_ms + warm_serve_ms;

        // Cold path: the pre-session workflow — rebuild the machine for
        // every job.
        let t0 = Instant::now();
        let mut cold_spikes = 0u64;
        for job in 0..jobs {
            let mut s = Simulation::build(&net, cfg.clone())
                .expect("workload fits an 8x8 machine")
                .into_session();
            s.add_poisson(input, job_rate_hz(job), job as u64 + 1);
            s.run_for(job_ms);
            cold_spikes += s.take_spikes().len() as u64;
        }
        let cold_total_ms = t0.elapsed().as_secs_f64() * 1e3;

        report.push(
            BenchRecord::new("warm_serving")
                .config("neurons", total_neurons)
                .config("mesh", "8x8")
                .config("jobs", jobs)
                .config("job_bio_ms", job_ms)
                .metric("build_ms", build_ms)
                .metric("warm_serve_ms", warm_serve_ms)
                .metric("warm_total_ms", warm_total_ms)
                .metric("cold_total_ms", cold_total_ms)
                .metric("warm_speedup", cold_total_ms / warm_total_ms)
                .metric("warm_ms_per_job", warm_total_ms / jobs as f64)
                .metric("cold_ms_per_job", cold_total_ms / jobs as f64)
                .metric("warm_spikes", warm_spikes)
                .metric("cold_spikes", cold_spikes),
        );

        // Checkpoint → serialize → rebuild → restore, with a
        // bit-exactness verdict: both the live session and the restored
        // one run the same extra probe segment and must produce
        // identical spikes.
        let t0 = Instant::now();
        let snapshot = session.checkpoint();
        let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let mut resumed = RunSession::restore(&net, cfg.clone(), &snapshot)
            .expect("snapshot restores onto a fresh build");
        let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
        let probe_ms = job_ms;
        session.clear_stimulus_sources();
        session.add_poisson(input, 120.0, 0xE16);
        session.run_for(probe_ms);
        resumed.clear_stimulus_sources();
        resumed.add_poisson(input, 120.0, 0xE16);
        resumed.run_for(probe_ms);
        let bit_exact = session.machine().spikes() == resumed.machine().spikes()
            && session.elapsed_ms() == resumed.elapsed_ms();
        report.push(
            BenchRecord::new("snapshot_restore")
                .config("neurons", total_neurons)
                .config("elapsed_bio_ms", session.elapsed_ms())
                .metric("snapshot_bytes", snapshot.len())
                .metric(
                    "snapshot_bytes_per_neuron",
                    snapshot.len() as f64 / total_neurons as f64,
                )
                .metric("checkpoint_ms", checkpoint_ms)
                .metric("restore_ms", restore_ms)
                .metric("restore_over_build", restore_ms / build_ms)
                .metric("resumed_bit_exact", bit_exact),
        );

        // The E14/E15-compatible spikes/sec sweep — the rows
        // `scripts/bench_compare.py` chains across committed baselines.
        let (edges, ms): (&[u32], u32) = if quick {
            (&[8], 100)
        } else {
            (&[8, 16, 32], 200)
        };
        for &edge in edges {
            let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
            for queue in [QueueKind::Heap, QueueKind::Calendar] {
                for threads in [1u32, 2, 4, 16] {
                    super::e14_event_core::sweep_case_best_of(
                        &mut report,
                        &sweep_net,
                        edge,
                        threads,
                        queue,
                        ms,
                        3,
                    );
                }
            }
        }
        report
    }

    /// The E16 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E16 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E16: checkpointable run sessions — warm serving + deterministic pause/resume ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   §5.2 shared-facility operation: load a network once, serve a stream of run\n   segments from the resident fabric, checkpoint/resume bit-exactly\n"
        );
        for r in report.records.iter().filter(|r| r.name == "warm_serving") {
            let _ = writeln!(
                out,
                "{:>12.0} neurons, {:.0} jobs x {:.0} ms biological time each",
                num(&r.config, "neurons"),
                num(&r.config, "jobs"),
                num(&r.config, "job_bio_ms"),
            );
            let _ = writeln!(
                out,
                "  build once: {:>8.1} ms   warm serving total {:>8.1} ms ({:>6.1} ms/job)",
                num(&r.metrics, "build_ms"),
                num(&r.metrics, "warm_total_ms"),
                num(&r.metrics, "warm_ms_per_job"),
            );
            let _ = writeln!(
                out,
                "  rebuild-per-job total {:>8.1} ms ({:>6.1} ms/job)   warm speedup {:>5.1}x",
                num(&r.metrics, "cold_total_ms"),
                num(&r.metrics, "cold_ms_per_job"),
                num(&r.metrics, "warm_speedup"),
            );
        }
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "snapshot_restore")
        {
            let _ = writeln!(
                out,
                "  checkpoint: {:>9.0} B snapshot ({:.1} B/neuron) in {:>6.1} ms;  restore {:>7.1} ms ({:.1}x build);  resumed bit-exact: {}",
                num(&r.metrics, "snapshot_bytes"),
                num(&r.metrics, "snapshot_bytes_per_neuron"),
                num(&r.metrics, "checkpoint_ms"),
                num(&r.metrics, "restore_ms"),
                num(&r.metrics, "restore_over_build"),
                str_field(&r.metrics, "resumed_bit_exact"),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10} {:>14}",
            "mesh", "queue", "threads", "wall ms", "spikes/sec"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "end_to_end_sweep")
        {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>10.1} {:>14.0}",
                str_field(&r.config, "mesh"),
                str_field(&r.config, "queue"),
                num(&r.config, "threads"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "spikes_per_sec"),
            );
        }
        let _ = writeln!(
            out,
            "\none resident machine serves the whole job stream: the place->route->minimize->\nstream-load cost is paid once, checkpoints capture only dynamic state (STDP\narena deltas, in-flight events, RNG streams), and tests/session_resume.rs pins\nevery cut to bit-exact replay. trajectory: scripts/bench_compare.py --chain\nBENCH_e14.json BENCH_e15.json BENCH_e16.json"
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let mut report = BenchReport::new("E16", "test", true);
            report.push(
                BenchRecord::new("warm_serving")
                    .config("neurons", 1000u64)
                    .config("jobs", 4u32)
                    .config("job_bio_ms", 5u32)
                    .metric("build_ms", 100.0f64)
                    .metric("warm_total_ms", 140.0f64)
                    .metric("cold_total_ms", 440.0f64)
                    .metric("warm_speedup", 3.5f64)
                    .metric("warm_ms_per_job", 35.0f64)
                    .metric("cold_ms_per_job", 110.0f64),
            );
            report.push(
                BenchRecord::new("snapshot_restore")
                    .config("neurons", 1000u64)
                    .metric("snapshot_bytes", 4096u64)
                    .metric("snapshot_bytes_per_neuron", 4.1f64)
                    .metric("checkpoint_ms", 1.0f64)
                    .metric("restore_ms", 101.0f64)
                    .metric("restore_over_build", 1.01f64)
                    .metric("resumed_bit_exact", true),
            );
            let text = format_report(&report);
            assert!(text.contains("warm speedup"), "{text}");
            assert!(text.contains("bit-exact"), "{text}");
            assert!(report.to_json_string().contains("warm_speedup"));
        }

        #[test]
        fn warm_serving_beats_rebuilds_on_a_small_workload() {
            // A miniature version of the headline claim (the committed
            // BENCH_e16.json carries the 100k-neuron figures): the
            // session serves jobs bit-deterministically and the
            // snapshot round-trip is exact.
            let net = super::super::e15_memory_model::prob_net(4, 200, 0.05);
            let input = PopulationId::from_index(0);
            let cfg = SimConfig::new(4, 4).with_neurons_per_core(64);
            let mut session = Simulation::build(&net, cfg.clone()).unwrap().into_session();
            session.add_poisson(input, 200.0, 1);
            session.run_for(10);
            let snap = session.checkpoint();
            let mut resumed = RunSession::restore(&net, cfg, &snap).unwrap();
            session.add_poisson(input, 90.0, 2);
            resumed.add_poisson(input, 90.0, 2);
            session.run_for(10);
            resumed.run_for(10);
            assert_eq!(session.machine().spikes(), resumed.machine().spikes());
        }
    }
}

/// E17 — low-overhead telemetry: the per-shard phase breakdown
/// (ns/neuron, ns/synaptic-event, barrier-wait share) of the E15
/// 100k-neuron workload at 1/4/16 threads, the counters-on overhead of
/// the E14 sweep workload, and a determinism verdict (bit-identical
/// spikes in every observability mode). Emits `BENCH_e17.json`; render
/// or gate the artifact with `scripts/telemetry_report.py`.
pub mod e17_telemetry {
    use super::*;
    use crate::record::{BenchRecord, BenchReport, Json};
    use spinn_obs::{Counter, Phase};
    use spinnaker::prelude::*;
    use spinnaker::Completed;
    use std::time::Instant;

    /// Runs the phase-breakdown workload once under full telemetry.
    fn run_traced(net: &NetworkGraph, threads: u32, ms: u32) -> (f64, Completed) {
        let cfg = SimConfig::new(8, 8)
            .with_neurons_per_core(256)
            .with_threads(threads)
            .with_observability(ObsMode::CountersAndTrace);
        let sim = Simulation::build(net, cfg).expect("workload fits an 8x8 machine");
        let t0 = Instant::now();
        let done = sim.run(ms);
        (t0.elapsed().as_secs_f64() * 1e3, done)
    }

    /// Best-of-`repeats` spikes/sec of the E14 sweep workload at the
    /// given observability mode (the overhead measurement).
    fn best_spikes_per_sec(
        net: &NetworkGraph,
        threads: u32,
        ms: u32,
        repeats: usize,
        obs: ObsMode,
    ) -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats.max(1) {
            let cfg = SimConfig::new(8, 8)
                .with_neurons_per_core(128)
                .with_placer(Placer::Random { seed: 0xE14 })
                .with_queue(QueueKind::Calendar)
                .with_threads(threads)
                .with_observability(obs);
            let sim = Simulation::build(net, cfg).expect("workload fits an 8x8 machine");
            let t0 = Instant::now();
            let done = sim.run(ms);
            let sps = done.machine.spikes().len() as f64 / t0.elapsed().as_secs_f64();
            best = best.max(sps);
        }
        best
    }

    /// The E17 report: phase-breakdown rows, per-shard skew rows, the
    /// counters-on overhead rows, and the determinism verdict.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E17",
            "low-overhead telemetry: phase breakdown, shard skew, counter overhead",
            quick,
        );

        // Phase breakdown: the E15 100k-neuron FixedProbability chain
        // under full telemetry, across thread counts.
        let (pops, size, p) = if quick {
            (20u32, 5_000u32, 0.02)
        } else {
            (25, 8_000, 0.015)
        };
        let net = super::e15_memory_model::prob_net(pops, size, p);
        let total_neurons = net.total_neurons();
        let ms = if quick { 30u32 } else { 100 };
        for threads in [1u32, 4, 16] {
            let (wall_ms, done) = run_traced(&net, threads, ms);
            let t = done.machine.telemetry();
            report.push(
                BenchRecord::new("phase_breakdown")
                    .config("neurons", total_neurons)
                    .config("mesh", "8x8")
                    .config("threads", threads)
                    .config("bio_ms", ms)
                    .config("obs", t.mode().to_string())
                    .metric("wall_ms", wall_ms)
                    .metric("spikes", done.machine.spikes().len())
                    .metric("events", t.total(Counter::Events))
                    .metric("synaptic_events", t.total(Counter::SynapticEvents))
                    .metric("ns_per_neuron", t.ns_per_neuron())
                    .metric("ns_per_synaptic_event", t.ns_per_synaptic_event())
                    .metric("barrier_wait_share", t.barrier_wait_share())
                    .metric("shard_skew", t.shard_skew())
                    .metric("queue_peak", t.total(Counter::QueuePeak))
                    .metric("trace_len", t.trace().count())
                    .metric("trace_overwritten", t.trace_overwritten()),
            );
            report.push(
                BenchRecord::new("shard_skew")
                    .config("threads", threads)
                    .config("bio_ms", ms)
                    .metric("skew", t.shard_skew())
                    .metric(
                        "per_shard_events",
                        Json::Arr(
                            t.shards()
                                .iter()
                                .map(|s| Json::Num(s.counters[Counter::Events as usize] as f64))
                                .collect(),
                        ),
                    )
                    .metric(
                        "per_shard_barrier_ns",
                        Json::Arr(
                            t.shards()
                                .iter()
                                .map(|s| {
                                    Json::Num(s.phases[Phase::BarrierWait as usize].sum_ns as f64)
                                })
                                .collect(),
                        ),
                    ),
            );
        }

        // Counters-on overhead: the E14 sweep workload, best-of-N,
        // Disabled vs Counters. The CI gate
        // (`scripts/telemetry_report.py --check-overhead`) holds every
        // row's overhead_frac under its bound.
        let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
        let (sweep_ms, repeats) = if quick { (100u32, 3usize) } else { (200, 5) };
        for threads in [1u32, 4] {
            let off =
                best_spikes_per_sec(&sweep_net, threads, sweep_ms, repeats, ObsMode::Disabled);
            let on = best_spikes_per_sec(&sweep_net, threads, sweep_ms, repeats, ObsMode::Counters);
            report.push(
                BenchRecord::new("telemetry_overhead")
                    .config("mesh", "8x8")
                    .config("queue", QueueKind::Calendar.to_string())
                    .config("threads", threads)
                    .config("bio_ms", sweep_ms)
                    .config("repeats", repeats)
                    .metric("spikes_per_sec_off", off)
                    .metric("spikes_per_sec_on", on)
                    .metric("overhead_frac", 1.0 - on / off),
            );
        }

        // Determinism: the same build must spike identically whatever
        // is watching, and the spike counter must agree with the
        // recorded raster.
        let det_net = super::e15_memory_model::prob_net(4, 200, 0.05);
        let det_run = |obs| {
            let cfg = SimConfig::new(4, 4)
                .with_neurons_per_core(64)
                .with_threads(4)
                .with_observability(obs);
            Simulation::build(&det_net, cfg)
                .expect("workload fits a 4x4 machine")
                .run(20)
        };
        let base = det_run(ObsMode::Disabled);
        let counted = det_run(ObsMode::Counters);
        let traced = det_run(ObsMode::CountersAndTrace);
        let bit_exact = base.machine.spikes() == counted.machine.spikes()
            && base.machine.spikes() == traced.machine.spikes();
        let spikes = base.machine.spikes().len() as u64;
        let counter_spikes = counted.machine.telemetry().total(Counter::Spikes);
        report.push(
            BenchRecord::new("telemetry_determinism")
                .config("neurons", det_net.total_neurons())
                .config("bio_ms", 20u32)
                .metric("bit_exact", bit_exact)
                .metric("spikes", spikes)
                .metric("counter_spikes", counter_spikes)
                .metric("counter_matches", counter_spikes == spikes),
        );
        report
    }

    /// The E17 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E17 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E17: low-overhead telemetry — phase breakdown, shard skew, counter overhead ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   observe without steering: relaxed per-shard counters, log2 phase\n   histograms and a bounded trace ring; every mode replays bit-exactly\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>14} {:>10} {:>8}",
            "threads", "wall ms", "ns/neuron", "ns/syn-event", "barrier%", "skew"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "phase_breakdown")
        {
            let _ = writeln!(
                out,
                "{:>8.0} {:>10.1} {:>12.1} {:>14.2} {:>9.1}% {:>8.2}",
                num(&r.config, "threads"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "ns_per_neuron"),
                num(&r.metrics, "ns_per_synaptic_event"),
                100.0 * num(&r.metrics, "barrier_wait_share"),
                num(&r.metrics, "shard_skew"),
            );
        }
        let _ = writeln!(out);
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "telemetry_overhead")
        {
            let _ = writeln!(
                out,
                "  overhead: {:>2.0} thread(s)  counters on {:>12.0} spikes/s  off {:>12.0}  ({:+.2}%)",
                num(&r.config, "threads"),
                num(&r.metrics, "spikes_per_sec_on"),
                num(&r.metrics, "spikes_per_sec_off"),
                100.0 * num(&r.metrics, "overhead_frac"),
            );
        }
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "telemetry_determinism")
        {
            let _ = writeln!(
                out,
                "  determinism: bit-exact across modes: {};  spikes counter {:.0} vs recorded {:.0}",
                str_field(&r.metrics, "bit_exact"),
                num(&r.metrics, "counter_spikes"),
                num(&r.metrics, "spikes"),
            );
        }
        let _ = writeln!(
            out,
            "\ntelemetry observes, it never steers: counters are relaxed per-shard atomics,\nphase timings are 32-bucket log2 histograms, the trace ring is bounded and\ndrop-counting, and Disabled mode costs one None-check per site\n(tests/telemetry_determinism.rs pins every mode to bit-identical spikes).\nrender or gate the artifact: scripts/telemetry_report.py BENCH_e17.json"
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let mut report = BenchReport::new("E17", "test", true);
            report.push(
                BenchRecord::new("phase_breakdown")
                    .config("threads", 4u32)
                    .metric("wall_ms", 10.0f64)
                    .metric("ns_per_neuron", 120.0f64)
                    .metric("ns_per_synaptic_event", 8.5f64)
                    .metric("barrier_wait_share", 0.25f64)
                    .metric("shard_skew", 1.2f64),
            );
            report.push(
                BenchRecord::new("telemetry_overhead")
                    .config("threads", 4u32)
                    .metric("spikes_per_sec_off", 1_000_000.0f64)
                    .metric("spikes_per_sec_on", 990_000.0f64)
                    .metric("overhead_frac", 0.01f64),
            );
            report.push(
                BenchRecord::new("telemetry_determinism")
                    .metric("bit_exact", true)
                    .metric("spikes", 42u64)
                    .metric("counter_spikes", 42u64)
                    .metric("counter_matches", true),
            );
            let text = format_report(&report);
            assert!(text.contains("ns/neuron"), "{text}");
            assert!(text.contains("bit-exact across modes: true"), "{text}");
            assert!(report.to_json_string().contains("overhead_frac"));
        }

        #[test]
        fn traced_run_yields_finite_phase_rows() {
            // A miniature phase-breakdown measurement: full telemetry
            // on a small net must produce finite per-loop rows and a
            // spike counter that matches the recorded raster.
            let net = super::super::e15_memory_model::prob_net(3, 200, 0.05);
            let (_, done) = run_traced(&net, 4, 10);
            let t = done.machine.telemetry();
            assert!(t.is_enabled());
            assert!(t.ns_per_neuron().is_finite(), "{}", t.ns_per_neuron());
            assert!(
                t.total(Counter::Spikes) == done.machine.spikes().len() as u64,
                "counter {} vs raster {}",
                t.total(Counter::Spikes),
                done.machine.spikes().len()
            );
            assert!(t.total(Counter::Events) > 0);
        }
    }
}

/// E18 — collect the win: the vectorized fixed-point tick path, the
/// compiled-router/flux-aware shard pipeline and the
/// clamp-to-parallelism scheduler, measured together. Reports the E17
/// phase-breakdown net (ns/neuron, ns/synaptic-event, barrier-wait
/// share, window/exchange counts) at 1/4/16 threads plus the
/// E14-compatible end-to-end sweep grid. Emits `BENCH_e18.json`;
/// `scripts/bench_compare.py` gates the sweep rows against E14, the
/// per-loop rows against E17, and (`--parallel-speedup`) holds the
/// 4-thread wall strictly under the 1-thread wall with barrier share
/// at most 0.5.
pub mod e18_collected_win {
    use super::*;
    use crate::record::{BenchRecord, BenchReport, Json};
    use spinn_obs::{Counter, Phase};
    use spinnaker::prelude::*;
    use spinnaker::Completed;
    use std::time::Instant;

    /// Runs the phase-breakdown workload once under full telemetry,
    /// through the default scheduler (shard clamp included — that *is*
    /// the measured configuration).
    fn run_traced(net: &NetworkGraph, threads: u32, ms: u32) -> (f64, Completed) {
        let cfg = SimConfig::new(8, 8)
            .with_neurons_per_core(256)
            .with_threads(threads)
            .with_observability(ObsMode::CountersAndTrace);
        let sim = Simulation::build(net, cfg).expect("workload fits an 8x8 machine");
        let t0 = Instant::now();
        let done = sim.run(ms);
        (t0.elapsed().as_secs_f64() * 1e3, done)
    }

    /// The E18 report: phase-breakdown rows at 1/4/16 threads and the
    /// E14 sweep grid (same net, mesh, queues and thread counts, so
    /// the rows gate directly against the committed `BENCH_e14.json`).
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E18",
            "collected win: wide tick lanes, flux-aware shards, clamp-to-parallelism scheduler",
            quick,
        );

        let (pops, size, p) = if quick {
            (20u32, 5_000u32, 0.02)
        } else {
            (25, 8_000, 0.015)
        };
        let net = super::e15_memory_model::prob_net(pops, size, p);
        let total_neurons = net.total_neurons();
        let ms = if quick { 30u32 } else { 100 };
        for threads in [1u32, 4, 16] {
            let (wall_ms, done) = run_traced(&net, threads, ms);
            let t = done.machine.telemetry();
            let par = done.machine.par_stats();
            report.push(
                BenchRecord::new("phase_breakdown")
                    .config("neurons", total_neurons)
                    .config("mesh", "8x8")
                    .config("threads", threads)
                    .config(
                        "effective_threads",
                        done.machine.effective_threads(threads as usize) as u64,
                    )
                    .config(
                        "host_cores",
                        std::thread::available_parallelism().map_or(1, |p| p.get()),
                    )
                    .config("bio_ms", ms)
                    .config("obs", t.mode().to_string())
                    .metric("wall_ms", wall_ms)
                    .metric("spikes", done.machine.spikes().len())
                    .metric("events", t.total(Counter::Events))
                    .metric("synaptic_events", t.total(Counter::SynapticEvents))
                    .metric("ns_per_neuron", t.ns_per_neuron())
                    .metric("ns_per_synaptic_event", t.ns_per_synaptic_event())
                    .metric("barrier_wait_share", {
                        let s = t.barrier_wait_share();
                        if s.is_nan() {
                            0.0
                        } else {
                            s
                        }
                    })
                    .metric("shard_skew", t.shard_skew())
                    .metric("windows", par.map_or(0, |s| s.windows))
                    .metric("exchanged", par.map_or(0, |s| s.exchanged))
                    .metric("queue_peak", t.total(Counter::QueuePeak))
                    .metric("trace_overwrite_ratio", t.trace_overwrite_ratio()),
            );
            report.push(
                BenchRecord::new("shard_skew")
                    .config("threads", threads)
                    .config("bio_ms", ms)
                    .metric("skew", t.shard_skew())
                    .metric(
                        "per_shard_events",
                        Json::Arr(
                            t.shards()
                                .iter()
                                .map(|s| Json::Num(s.counters[Counter::Events as usize] as f64))
                                .collect(),
                        ),
                    )
                    .metric(
                        "per_shard_barrier_ns",
                        Json::Arr(
                            t.shards()
                                .iter()
                                .map(|s| {
                                    Json::Num(s.phases[Phase::BarrierWait as usize].sum_ns as f64)
                                })
                                .collect(),
                        ),
                    ),
            );
        }

        // The E14 sweep grid, verbatim (same synfire net, mesh, queue
        // kinds, thread counts and duration), so every row keys
        // identically to the committed `BENCH_e14.json` and the gate
        // measures the cumulative speedup of everything since.
        let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
        let (edges, sweep_ms): (&[u32], u32) = if quick {
            (&[8], 100)
        } else {
            (&[8, 16, 32], 200)
        };
        for &edge in edges {
            for queue in [QueueKind::Heap, QueueKind::Calendar] {
                for threads in [1u32, 2, 4, 16] {
                    super::e14_event_core::sweep_case(
                        &mut report,
                        &sweep_net,
                        edge,
                        threads,
                        queue,
                        sweep_ms,
                    );
                }
            }
        }
        report
    }

    /// The E18 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E18 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E18: collected win — wide tick lanes, flux-aware shards, clamped scheduler ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   the tick loop runs chunked fixed-point lanes with a clamp-free fast\n   path, shard cuts follow measured link flux, and shard counts collapse\n   to the host's parallelism — all bit-exact against the scalar engine\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>14} {:>10} {:>9} {:>10}",
            "threads", "wall ms", "ns/neuron", "ns/syn-event", "barrier%", "windows", "exchanged"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "phase_breakdown")
        {
            let _ = writeln!(
                out,
                "{:>8.0} {:>10.1} {:>12.1} {:>14.2} {:>9.1}% {:>9.0} {:>10.0}",
                num(&r.config, "threads"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "ns_per_neuron"),
                num(&r.metrics, "ns_per_synaptic_event"),
                100.0 * num(&r.metrics, "barrier_wait_share"),
                num(&r.metrics, "windows"),
                num(&r.metrics, "exchanged"),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10} {:>14}",
            "mesh", "queue", "threads", "wall ms", "spikes/sec"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "end_to_end_sweep")
        {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10.0} {:>10.1} {:>14.0}",
                str_field(&r.config, "mesh"),
                str_field(&r.config, "queue"),
                num(&r.config, "threads"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "spikes_per_sec"),
            );
        }
        let _ = writeln!(
            out,
            "\ngate the artifact: scripts/bench_compare.py BENCH_e18.json BENCH_e14.json\n--kind sweep (cumulative end-to-end), BENCH_e18.json BENCH_e17.json --kind\nperf (per-loop costs), and --parallel-speedup BENCH_e18.json (4-thread wall\nstrictly under 1-thread, barrier share <= 0.5)."
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let mut report = BenchReport::new("E18", "test", true);
            report.push(
                BenchRecord::new("phase_breakdown")
                    .config("threads", 4u32)
                    .metric("wall_ms", 10.0f64)
                    .metric("ns_per_neuron", 9.5f64)
                    .metric("ns_per_synaptic_event", 30.1f64)
                    .metric("barrier_wait_share", 0.0f64)
                    .metric("windows", 1200u64)
                    .metric("exchanged", 6800u64),
            );
            report.push(
                BenchRecord::new("end_to_end_sweep")
                    .config("mesh", "8x8")
                    .config("queue", "calendar")
                    .config("threads", 4u32)
                    .metric("wall_ms", 100.0f64)
                    .metric("spikes_per_sec", 1_000_000.0f64),
            );
            let text = format_report(&report);
            assert!(text.contains("ns/neuron"), "{text}");
            assert!(text.contains("spikes/sec"), "{text}");
            assert!(report.to_json_string().contains("phase_breakdown"));
        }

        #[test]
        fn traced_run_reports_windows_and_overwrite_ratio() {
            // A miniature E18 measurement: the telemetry must yield
            // finite per-loop rows and an overwrite ratio inside [0, 1].
            let net = super::super::e15_memory_model::prob_net(3, 200, 0.05);
            let (_, done) = run_traced(&net, 4, 10);
            let t = done.machine.telemetry();
            assert!(t.is_enabled());
            assert!(t.ns_per_neuron().is_finite());
            let ratio = t.trace_overwrite_ratio();
            assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        }
    }
}

/// E19 — Monte Carlo resilience campaigns (§6): spike-delivery
/// degradation vs link-failure rate from ≥ 1000 sessions forked off one
/// warm checkpoint, plus the repair arms (queued `RepairLink`, live
/// re-route) that claw delivery back. See `crate::resil` for the
/// harness; `scripts/bench_compare.py --resilience BENCH_e19.json`
/// gates the committed artifact.
pub mod e19_resilience {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use crate::resil::{summarize, BucketSummary, Campaign, RepairPolicy};
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// Campaign seed — every fork's fault schedule derives from it (and
    /// the fork id) alone, so the whole campaign replays bit-exactly.
    pub const SEED: u64 = 0x5EED_0E19;

    /// Failure rates swept by the degradation curve (fraction of the
    /// machine's cables failed per fork).
    /// The low end shows emergency routing (Fig. 8) absorbing sparse
    /// cable death outright; past ~0.25 the two-leg detours saturate
    /// and delivery falls — the region the repair arms operate in.
    pub const RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];

    /// The headline rate the repair arms run at.
    pub const HEADLINE_RATE: f64 = 0.35;

    /// The campaign workload: a feed-forward synfire chain scattered
    /// over the torus by random placement. The tonically-driven head
    /// launches a wave down the chain every firing cycle, so every
    /// downstream spike certifies delivery across the inter-chip links
    /// behind it; a dead cable silences the tail of the chain instead
    /// of merely perturbing re-entrant timing (which can *add* spikes
    /// and would blur the degradation curve).
    pub fn campaign_net(stages: u32, size: u32) -> (NetworkGraph, PopulationId) {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..stages)
            .map(|i| net.population(&format!("s{i}"), size, kind, if i == 0 { 9.0 } else { 0.0 }))
            .collect();
        for (i, pair) in pops.windows(2).enumerate() {
            net.project(
                pair[0],
                pair[1],
                Connector::FixedFanOut(12),
                Synapses::constant(600, 2),
                i as u64,
            );
        }
        (net, pops[0])
    }

    /// Builds, warms and checkpoints the campaign session (forced
    /// shards, so sharded replays exercise real cross-shard traffic at
    /// any host parallelism).
    pub fn prepare() -> Campaign {
        let (net, input) = campaign_net(8, 96);
        let cfg = SimConfig::new(4, 4)
            .with_neurons_per_core(64)
            .with_placer(Placer::Random { seed: 0xE19 })
            .with_force_shards(true);
        Campaign::prepare(net, cfg, input, 20.0, 30, 90, (2, 30))
    }

    /// The E19 report: the delivery-degradation curve, the repair
    /// arms on matched fault schedules, and the campaign/determinism
    /// verdict row.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E19",
            "resilience campaigns: Monte Carlo fault sweeps + live route repair from one warm checkpoint",
            quick,
        );
        // Full mode clears the 1000-fork acceptance bar:
        // 1 baseline + 5*160 curve + 3*100 repair arms + 8*3 replays.
        let (curve_forks, repair_forks, det_forks) = if quick {
            (4u32, 4u32, 2u32)
        } else {
            (160, 100, 8)
        };

        let t0 = Instant::now();
        let campaign = prepare();
        let prep_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut forks_total = 1u64; // the baseline fork inside prepare()

        let t0 = Instant::now();
        let curve = campaign.sweep(SEED, &RATES, RepairPolicy::Unrepaired, curve_forks, 0);
        forks_total += curve.len() as u64;
        for b in summarize(&curve) {
            report.push(bucket_record("delivery_vs_failure_rate", &b));
        }

        // Repair arms on *matched* fault schedules: the same fork ids
        // (hence identical fault draws) run under each policy, so the
        // recovery deltas are paired, not resampled.
        const REPAIR_BASE: u32 = 50_000;
        let control = campaign.sweep(
            SEED,
            &[HEADLINE_RATE],
            RepairPolicy::Unrepaired,
            repair_forks,
            REPAIR_BASE,
        );
        let repaired = campaign.sweep(
            SEED,
            &[HEADLINE_RATE],
            RepairPolicy::QueuedRepair { delay_ms: 15 },
            repair_forks,
            REPAIR_BASE,
        );
        let rerouted = campaign.sweep(
            SEED,
            &[HEADLINE_RATE],
            RepairPolicy::Reroute { after_ms: 31 },
            repair_forks,
            REPAIR_BASE,
        );
        forks_total += (control.len() + repaired.len() + rerouted.len()) as u64;
        for arm in [&control, &repaired, &rerouted] {
            for b in summarize(arm) {
                report.push(bucket_record("live_repair", &b));
            }
        }
        let mean = |o: &[crate::resil::ForkOutcome]| -> f64 {
            o.iter().map(|f| f.delivery_ratio).sum::<f64>() / o.len() as f64
        };
        let load = |o: &[crate::resil::ForkOutcome]| -> f64 {
            o.iter()
                .map(|f| (f.emergency_reroutes + f.dropped) as f64)
                .sum::<f64>()
                / o.len() as f64
        };
        let (c_mean, q_mean, r_mean) = (mean(&control), mean(&repaired), mean(&rerouted));
        // Live repair has two observable effects, and the two arms split
        // them: restoring the cable (`repair_link`) rescues forks whose
        // topology was severed outright — a delivery-ratio gain that no
        // table rewrite can match — while re-routing the tables around
        // the dead cables (`reroute`) takes the standing emergency-detour
        // and drop load off the fabric (Fig. 8's mechanism is for
        // transient faults; permanent ones are supposed to be routed
        // around).
        let (c_load, r_load) = (load(&control), load(&rerouted));
        report.push(
            BenchRecord::new("repair_recovery")
                .config("failure_rate", HEADLINE_RATE)
                .config("forks_per_arm", repair_forks)
                .metric("unrepaired_ratio", c_mean)
                .metric("repair_link_ratio", q_mean)
                .metric("reroute_ratio", r_mean)
                .metric("repair_link_gain", q_mean - c_mean)
                .metric("reroute_gain", r_mean - c_mean)
                .metric("unrepaired_fault_load", c_load)
                .metric("reroute_fault_load", r_load)
                .metric(
                    "reroute_load_cut",
                    if c_load > 0.0 {
                        1.0 - r_load / c_load
                    } else {
                        0.0
                    },
                ),
        );

        // Determinism: replay a slice of the control arm at other
        // thread counts; every replay must reproduce the fork's spike
        // stream bit-exactly (compared via the FNV fingerprint).
        let mut bit_exact = true;
        let mut replays = 0u64;
        for i in 0..det_forks {
            let fork = REPAIR_BASE + i;
            let base = campaign.run_fork(SEED, fork, HEADLINE_RATE, RepairPolicy::Unrepaired, None);
            for threads in [2u32, 4] {
                let replay = campaign.run_fork(
                    SEED,
                    fork,
                    HEADLINE_RATE,
                    RepairPolicy::Unrepaired,
                    Some(threads),
                );
                bit_exact &= replay.spike_hash == base.spike_hash && replay.spikes == base.spikes;
                replays += 2;
            }
            replays += 1;
        }
        forks_total += replays;
        let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

        report.push(
            BenchRecord::new("campaign")
                .config("seed", SEED)
                .config("mesh", "4x4")
                .config("stages", 8u32)
                .config("neurons", 8u32 * 96)
                .config("warm_ms", 30u32)
                .config("fork_ms", 90u32)
                .metric("forks_total", forks_total)
                .metric("forks_per_sec", forks_total as f64 / (sweep_ms / 1e3))
                .metric("prepare_ms", prep_ms)
                .metric("sweep_ms", sweep_ms)
                .metric("snapshot_bytes", campaign.snapshot_bytes())
                .metric("baseline_spikes", campaign.baseline_spikes)
                .metric("total_cables", campaign.total_cables())
                .metric("determinism_bit_exact", bit_exact)
                .metric("determinism_replays", replays),
        );
        report
    }

    /// One bucket as a benchmark record.
    fn bucket_record(name: &str, b: &BucketSummary) -> BenchRecord {
        BenchRecord::new(name)
            .config("failure_rate", b.failure_rate)
            .config("policy", b.policy)
            .config("forks", b.forks)
            .metric("delivery_ratio_mean", b.delivery_ratio_mean)
            .metric("delivery_ratio_min", b.delivery_ratio_min)
            .metric("links_failed_mean", b.links_failed_mean)
            .metric("emergency_reroutes_mean", b.emergency_reroutes_mean)
            .metric("dropped_mean", b.dropped_mean)
            .metric("reissued_mean", b.reissued_mean)
    }

    /// The E19 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E19 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E19: resilience campaigns — Monte Carlo fault sweeps + live repair ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   §6 keep-computing-through-death: forks from one warm checkpoint under\n   randomized link-failure schedules, scored against the fault-free baseline\n"
        );
        let _ = writeln!(
            out,
            "{:>12} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9}",
            "failure rate", "forks", "links", "delivery", "worst", "emergency", "dropped"
        );
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "delivery_vs_failure_rate")
        {
            let _ = writeln!(
                out,
                "{:>12.3} {:>8.0} {:>9.1} {:>10.3} {:>10.3} {:>10.1} {:>9.1}",
                num(&r.config, "failure_rate"),
                num(&r.config, "forks"),
                num(&r.metrics, "links_failed_mean"),
                num(&r.metrics, "delivery_ratio_mean"),
                num(&r.metrics, "delivery_ratio_min"),
                num(&r.metrics, "emergency_reroutes_mean"),
                num(&r.metrics, "dropped_mean"),
            );
        }
        for r in report.records.iter().filter(|r| r.name == "live_repair") {
            let _ = writeln!(
                out,
                "  repair arm {:<12} at rate {:.3}: delivery {:.3} (worst {:.3})",
                str_field(&r.config, "policy"),
                num(&r.config, "failure_rate"),
                num(&r.metrics, "delivery_ratio_mean"),
                num(&r.metrics, "delivery_ratio_min"),
            );
        }
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "repair_recovery")
        {
            let _ = writeln!(
                out,
                "  recovery at rate {:.3}: unrepaired {:.3} -> repair_link {:.3} (+{:.3}), reroute {:.3} (+{:.3})",
                num(&r.config, "failure_rate"),
                num(&r.metrics, "unrepaired_ratio"),
                num(&r.metrics, "repair_link_ratio"),
                num(&r.metrics, "repair_link_gain"),
                num(&r.metrics, "reroute_ratio"),
                num(&r.metrics, "reroute_gain"),
            );
            let _ = writeln!(
                out,
                "  reroute cuts standing fault load (emergency legs + drops) {:.1} -> {:.1} per fork ({:.0}% off)",
                num(&r.metrics, "unrepaired_fault_load"),
                num(&r.metrics, "reroute_fault_load"),
                num(&r.metrics, "reroute_load_cut") * 100.0,
            );
        }
        for r in report.records.iter().filter(|r| r.name == "campaign") {
            let _ = writeln!(
                out,
                "  campaign: {:.0} forks ({:.1}/s) from one {:.0}-byte checkpoint; replays bit-exact: {}",
                num(&r.metrics, "forks_total"),
                num(&r.metrics, "forks_per_sec"),
                num(&r.metrics, "snapshot_bytes"),
                str_field(&r.metrics, "determinism_bit_exact"),
            );
        }
        let _ = writeln!(
            out,
            "\ngate the artifact: scripts/bench_compare.py --resilience BENCH_e19.json\n(delivery floor per failure-rate bucket, paired repair recovery > 0,\nbit-exact replay verdict)."
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let mut report = BenchReport::new("E19", "test", true);
            report.push(
                BenchRecord::new("delivery_vs_failure_rate")
                    .config("failure_rate", 0.1f64)
                    .config("policy", "none")
                    .config("forks", 4u32)
                    .metric("delivery_ratio_mean", 0.8f64)
                    .metric("delivery_ratio_min", 0.7f64)
                    .metric("links_failed_mean", 5.0f64)
                    .metric("emergency_reroutes_mean", 12.0f64)
                    .metric("dropped_mean", 3.0f64)
                    .metric("reissued_mean", 3.0f64),
            );
            report.push(
                BenchRecord::new("repair_recovery")
                    .config("failure_rate", 0.1f64)
                    .config("forks_per_arm", 4u32)
                    .metric("unrepaired_ratio", 0.8f64)
                    .metric("repair_link_ratio", 0.95f64)
                    .metric("reroute_ratio", 0.9f64)
                    .metric("repair_link_gain", 0.15f64)
                    .metric("reroute_gain", 0.1f64)
                    .metric("unrepaired_fault_load", 120.0f64)
                    .metric("reroute_fault_load", 60.0f64)
                    .metric("reroute_load_cut", 0.5f64),
            );
            report.push(
                BenchRecord::new("campaign")
                    .config("seed", SEED)
                    .metric("forks_total", 21u64)
                    .metric("forks_per_sec", 50.0f64)
                    .metric("snapshot_bytes", 123456u64)
                    .metric("determinism_bit_exact", true)
                    .metric("determinism_replays", 4u64),
            );
            let text = format_report(&report);
            assert!(text.contains("failure rate"), "{text}");
            assert!(text.contains("repair_link"), "{text}");
            assert!(text.contains("bit-exact: true"), "{text}");
            assert!(report.to_json_string().contains("delivery_vs_failure_rate"));
        }

        #[test]
        fn campaign_net_is_a_chain() {
            let (net, input) = campaign_net(4, 16);
            assert_eq!(net.total_neurons(), 64);
            assert_eq!(input.index(), 0);
        }
    }
}

/// E20 — compute beyond a million cores: the scaling study. One
/// population per chip on meshes from 32 x 32 up to the paper's full
/// 256 x 256 machine (>10^6 cores loaded, >10^9 synapses), built
/// through the streaming loader into compressed lazy arenas and run
/// on the sharded window engine. Emits `BENCH_e20.json`;
/// `scripts/bench_compare.py --memory` gates the scale/memory claims.
pub mod e20_scaling {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use spinn_obs::Counter;
    use spinnaker::map::loader::{BuildOptions, LazyMode, LoadedApp};
    use spinnaker::map::place::Placement;
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// Cores per chip for the study: 16 application cores + monitor,
    /// so a 256 x 256 mesh loads exactly 2^20 application cores.
    const CORES_PER_CHIP: u8 = 17;
    /// Neurons per chip (16 app cores x 8 neurons each).
    const NEURONS_PER_CHIP: u32 = 128;
    /// Neurons per application core.
    const NPC: u32 = 8;

    /// Peak resident set of this process so far, bytes (Linux
    /// `/proc/self/status` `VmHWM`; 0 where unavailable). Monotone over
    /// the process lifetime, so rows are ordered smallest mesh first
    /// and each row's value approximates that row's true peak.
    pub fn peak_rss_bytes() -> u64 {
        proc_status_kb("VmHWM:") * 1024
    }

    /// Current resident set of this process, bytes (`VmRSS`; 0 where
    /// unavailable).
    pub fn current_rss_bytes() -> u64 {
        proc_status_kb("VmRSS:") * 1024
    }

    fn proc_status_kb(field: &str) -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// The scaling workload: one `NEURONS_PER_CHIP`-neuron population
    /// per chip, chained into a ring of `AllToAll` constant-weight
    /// projections (so every chip holds 128 x 128 = 16 Ki synapses and
    /// a 256 x 256 mesh holds 2^30). Constant `AllToAll` rows are
    /// analytic for the generator, so the lazy loader stores each as a
    /// recipe and only spike-touched rows ever materialize. Only chip
    /// 0's population is biased: activity trickles around the ring
    /// while the other ~65 k chips sit idle — the configuration the
    /// paper's "interrupt-driven, no polling" energy argument cares
    /// about, and the one that exposes any O(all chips) per-tick cost.
    pub fn chip_ring_net(chips: u32) -> NetworkGraph {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..chips)
            .map(|i| {
                let bias = if i == 0 { 9.0 } else { 0.0 };
                net.population(&format!("c{i}"), NEURONS_PER_CHIP, kind, bias)
            })
            .collect();
        for (i, &src) in pops.iter().enumerate() {
            let dst = pops[(i + 1) % pops.len()];
            net.project(
                src,
                dst,
                Connector::AllToAll { allow_self: false },
                Synapses::constant(40, 1),
                0xE20 ^ i as u64,
            );
        }
        net
    }

    fn host_cores() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// Builds and runs one scaling-sweep cell, recording build time,
    /// wall clock, per-neuron cost, barrier share and the resident
    /// memory per synapse next to the *post-clamp* thread count.
    #[allow(clippy::cast_precision_loss)]
    fn scaling_case(
        report: &mut BenchReport,
        net: &NetworkGraph,
        edge: u32,
        threads: u32,
        ms: u32,
    ) {
        let mut cfg = SimConfig::new(edge, edge)
            .with_neurons_per_core(NPC)
            .with_threads(threads)
            .with_observability(ObsMode::CountersAndTrace);
        cfg.machine.cores_per_chip = CORES_PER_CHIP;
        let t0 = Instant::now();
        let sim = Simulation::build(net, cfg).expect("ring net fits one pop per chip");
        let build_s = t0.elapsed().as_secs_f64();
        let effective = sim.machine().effective_threads(threads as usize);
        let loaded_cores = sim
            .machine()
            .chip_occupancy()
            .iter()
            .map(|o| u64::from(o.loaded_cores))
            .sum::<u64>();
        let synapses = sim.machine().total_synapses();
        let lazy_before = sim.machine().total_lazy_rows();
        let t1 = Instant::now();
        let done = sim.run(ms);
        let wall_ms = t1.elapsed().as_secs_f64() * 1e3;
        let t = done.machine.telemetry();
        let resident = done.machine.total_resident_bytes();
        report.push(
            BenchRecord::new("scaling")
                .config("mesh", format!("{edge}x{edge}"))
                .config("chips", u64::from(edge) * u64::from(edge))
                .config(
                    "machine_cores",
                    (edge as u64) * (edge as u64) * CORES_PER_CHIP as u64,
                )
                .config("loaded_cores", loaded_cores)
                .config("neurons", net.total_neurons())
                .config("threads", threads)
                .config("effective_threads", effective as u64)
                .config("host_cores", host_cores() as u64)
                .config("bio_ms", ms)
                .metric("build_s", build_s)
                .metric("wall_ms", wall_ms)
                .metric("ns_per_neuron", t.ns_per_neuron())
                .metric("barrier_wait_share", {
                    let s = t.barrier_wait_share();
                    if s.is_nan() {
                        0.0
                    } else {
                        s
                    }
                })
                .metric("spikes", done.machine.spikes().len())
                .metric("events", t.total(Counter::Events))
                .metric("synapses", synapses)
                .metric("bytes_per_synapse", resident as f64 / synapses as f64)
                .metric("resident_mb", resident as f64 / (1024.0 * 1024.0))
                .metric(
                    "sdram_model_mb",
                    done.machine.total_sdram_bytes() as f64 / (1024.0 * 1024.0),
                )
                .metric("lazy_rows_before", lazy_before)
                .metric("lazy_rows_after", done.machine.total_lazy_rows())
                .metric("trace_cap", t.trace_cap())
                .metric("trace_overwrite_ratio", t.trace_overwrite_ratio())
                .metric("peak_rss_mb", peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
        );
    }

    /// Builds one loader arm (lazy forced on or off) and records its
    /// memory/footprint row.
    #[allow(clippy::cast_precision_loss)]
    fn memory_case(
        report: &mut BenchReport,
        net: &NetworkGraph,
        edge: u32,
        lazy: LazyMode,
        arm: &str,
    ) {
        let placement = Placement::compute(net, edge, edge, CORES_PER_CHIP, NPC, Placer::Locality)
            .expect("ring net fits one pop per chip");
        let t0 = Instant::now();
        let app = LoadedApp::build_with(net, &placement, BuildOptions { threads: 1, lazy });
        let build_s = t0.elapsed().as_secs_f64();
        let resident: u64 = app.images.iter().map(|i| i.matrix.resident_bytes()).sum();
        let lazy_rows: u64 = app.images.iter().map(|i| i.matrix.lazy_rows()).sum();
        let synapses = app.total_synapses();
        report.push(
            BenchRecord::new("memory")
                .config("mesh", format!("{edge}x{edge}"))
                .config("chips", u64::from(edge) * u64::from(edge))
                .config("arm", arm)
                .metric("build_s", build_s)
                .metric("synapses", synapses)
                .metric("bytes_per_synapse", resident as f64 / synapses as f64)
                .metric("resident_mb", resident as f64 / (1024.0 * 1024.0))
                .metric(
                    "sdram_model_mb",
                    app.total_sdram_bytes() as f64 / (1024.0 * 1024.0),
                )
                .metric("lazy_rows", lazy_rows)
                .metric("peak_rss_mb", peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
        );
    }

    /// The E20 report: the mesh x thread scaling grid (smallest first,
    /// so the monotone peak-RSS counter approximates each row's own
    /// peak), the lazy-vs-eager loader arms, and the E14 sweep grid so
    /// the artifact chains against the committed E14/E15/E16/E18
    /// baselines.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E20",
            "compute beyond a million cores: streaming build, lazy arenas, sharded windows",
            quick,
        );

        let (edges, thread_grid, ms): (&[u32], &[u32], u32) = if quick {
            (&[8, 16], &[1, 4], 20)
        } else {
            (&[32, 64, 128, 256], &[1, 4, 32], 10)
        };
        for &edge in edges {
            let net = chip_ring_net(edge * edge);
            for &threads in thread_grid {
                // The full 2^16-chip mesh runs the 1-thread cell plus
                // one parallel cell; re-running an 8-million-neuron
                // serial run per thread count buys nothing.
                if edge >= 256 && threads > 1 && threads != thread_grid[thread_grid.len() - 1] {
                    continue;
                }
                scaling_case(&mut report, &net, edge, threads, ms);
            }
        }

        let mem_edge = if quick { 16 } else { 64 };
        let mem_net = chip_ring_net(mem_edge * mem_edge);
        memory_case(&mut report, &mem_net, mem_edge, LazyMode::Force, "lazy");
        memory_case(&mut report, &mem_net, mem_edge, LazyMode::Off, "eager");

        // The E14 sweep grid, so BENCH_e20.json extends the committed
        // trajectory chain E14 -> E15 -> E16 -> E18 -> E20. The quick
        // cells (8x8, 100 bio-ms) run in BOTH modes: the committed
        // upstream artifacts were recorded quick, and a full-mode E20
        // must still share rows with them or the chain gate exits 2.
        let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
        let sweep_grid: &[(&[u32], u32)] = if quick {
            &[(&[8], 100)]
        } else {
            &[(&[8], 100), (&[16, 32], 200)]
        };
        for &(edges, sweep_ms) in sweep_grid {
            for &edge in edges {
                for queue in [QueueKind::Heap, QueueKind::Calendar] {
                    for threads in [1u32, 2, 4, 16] {
                        super::e14_event_core::sweep_case(
                            &mut report,
                            &sweep_net,
                            edge,
                            threads,
                            queue,
                            sweep_ms,
                        );
                    }
                }
            }
        }
        report
    }

    /// The E20 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E20 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E20: scaling study — a million cores, a billion synapses, one host ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   one population per chip, ring-connected; constant all-to-all rows stay\n   compressed generator recipes until a spike's DMA touches them\n"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>8}/{:<4} {:>9} {:>9} {:>11} {:>10} {:>9} {:>9}",
            "mesh",
            "cores",
            "thr",
            "eff",
            "build s",
            "wall ms",
            "ns/neuron",
            "B/synapse",
            "res MB",
            "RSS MB"
        );
        for r in report.records.iter().filter(|r| r.name == "scaling") {
            let _ = writeln!(
                out,
                "{:>9} {:>9.0} {:>8.0}/{:<4.0} {:>9.2} {:>9.1} {:>11.1} {:>10.2} {:>9.1} {:>9.1}",
                str_field(&r.config, "mesh"),
                num(&r.config, "loaded_cores"),
                num(&r.config, "threads"),
                num(&r.config, "effective_threads"),
                num(&r.metrics, "build_s"),
                num(&r.metrics, "wall_ms"),
                num(&r.metrics, "ns_per_neuron"),
                num(&r.metrics, "bytes_per_synapse"),
                num(&r.metrics, "resident_mb"),
                num(&r.metrics, "peak_rss_mb"),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>9} {:>8} {:>10} {:>12} {:>11} {:>12}",
            "mesh", "arm", "build s", "synapses", "B/synapse", "resident MB"
        );
        for r in report.records.iter().filter(|r| r.name == "memory") {
            let _ = writeln!(
                out,
                "{:>9} {:>8} {:>10.2} {:>12.0} {:>11.2} {:>12.1}",
                str_field(&r.config, "mesh"),
                str_field(&r.config, "arm"),
                num(&r.metrics, "build_s"),
                num(&r.metrics, "synapses"),
                num(&r.metrics, "bytes_per_synapse"),
                num(&r.metrics, "resident_mb"),
            );
        }
        let _ = writeln!(
            out,
            "\ngate the artifact: scripts/bench_compare.py --memory BENCH_e20.json (scale,\nbytes/synapse and lazy < eager) and the chain\nBENCH_e14 -> e15 -> e16 -> e18 -> e20 (--kind sweep)."
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let mut report = BenchReport::new("E20", "test", true);
            report.push(
                BenchRecord::new("scaling")
                    .config("mesh", "32x32")
                    .config("loaded_cores", 16384u64)
                    .config("threads", 4u32)
                    .config("effective_threads", 1u64)
                    .config("host_cores", 1u64)
                    .metric("build_s", 1.5f64)
                    .metric("wall_ms", 220.0f64)
                    .metric("ns_per_neuron", 80.0f64)
                    .metric("bytes_per_synapse", 1.4f64)
                    .metric("resident_mb", 22.0f64)
                    .metric("peak_rss_mb", 310.0f64),
            );
            report.push(
                BenchRecord::new("memory")
                    .config("mesh", "64x64")
                    .config("arm", "lazy")
                    .metric("build_s", 0.8f64)
                    .metric("synapses", 67108864u64)
                    .metric("bytes_per_synapse", 1.3f64)
                    .metric("resident_mb", 83.0f64),
            );
            let text = format_report(&report);
            assert!(text.contains("32x32"), "{text}");
            assert!(text.contains("lazy"), "{text}");
            assert!(report.to_json_string().contains("bytes_per_synapse"));
        }

        #[test]
        fn ring_net_synapse_count() {
            let net = chip_ring_net(16);
            assert_eq!(net.total_neurons(), 16 * 128);
            let expected: u64 = net
                .projections()
                .iter()
                .map(|p| p.pairs(net.pop(p.src).size, net.pop(p.dst).size).len() as u64)
                .sum();
            assert_eq!(expected, 16 * 128 * 128);
        }

        #[test]
        fn quick_scaling_cell_loads_every_chip() {
            let net = chip_ring_net(16);
            let mut cfg = SimConfig::new(4, 4).with_neurons_per_core(NPC);
            cfg.machine.cores_per_chip = CORES_PER_CHIP;
            let sim = Simulation::build(&net, cfg).expect("fits");
            assert_eq!(sim.machine().total_synapses(), 16 * 128 * 128);
            // Analytic constant rows: everything stays lazy at load.
            assert!(sim.machine().total_lazy_rows() > 0);
        }
    }
}

/// E21 — multi-tenant serving under load: a seeded synthetic-client
/// load generator driving `spinn-serve`'s bounded queue, warm-session
/// pool and LRU eviction.
///
/// Three arms:
///
/// * **steady** — the resident budget fits the whole model fleet, at
///   several closed-loop client-concurrency levels. Jobs/sec, p50/p99
///   latency and the warm-hit ratio (> 0.8 is the gated floor: after
///   each model's one cold build, every job must ride a warm session).
/// * **churn** — the same job stream under a budget roughly half the
///   fleet's footprint, forcing checkpoint-evictions and snapshot
///   rehydrates. The per-job spike streams must match the steady arm
///   bit-for-bit (`eviction_bit_exact`): eviction is a memory policy,
///   never a result change.
/// * **quota** — two tenants with tight in-flight and tick budgets
///   under an open-loop burst; the accept/reject sequence must be
///   identical across two replays (`deterministic`).
///
/// `scripts/bench_compare.py --serving` gates all three, and the
/// E14-grid sweep rows keep E21 chainable after E20.
pub mod e21_serving {
    use super::*;
    use crate::record::{BenchRecord, BenchReport};
    use spinn_serve::{
        AdmitError, JobId, JobSpec, ModelId, ServeConfig, Server, Stimulus, TenantId, TenantQuota,
    };
    use spinnaker::prelude::*;
    use spinnaker::sim::Xoshiro256;
    use std::time::Instant;

    /// FNV-1a over a job's spike stream — the per-job fingerprint the
    /// eviction bit-exactness verdict compares across arms.
    fn spike_fp(spikes: &[PopSpike]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for s in spikes {
            eat(u64::from(s.time_ms));
            eat(s.pop.index() as u64);
            eat(u64::from(s.neuron));
        }
        h
    }

    /// The model fleet: variants of E16's stimulus-driven serving
    /// chain at staggered sizes, so slots have distinct footprints and
    /// distinct (but deterministic) spike streams.
    fn fleet(models: u32, pops: u32, size: u32, p: f64) -> Vec<NetworkGraph> {
        (0..models)
            .map(|m| super::e16_sessions::serving_net(pops, size + 64 * m, p))
            .collect()
    }

    /// Everything one load-generator arm measures.
    struct ArmOutcome {
        jobs: u64,
        wall_ms: f64,
        latencies_ms: Vec<f64>,
        warm_hit_ratio: f64,
        coalesced_jobs: u64,
        batches: u64,
        cold_builds: u64,
        evictions: u64,
        rehydrates: u64,
        peak_resident_bytes: u64,
        /// `(job sequence number, spike fingerprint)`, sorted by
        /// sequence — comparable across arms that share a seed.
        fingerprints: Vec<(u64, u64)>,
    }

    /// Runs one closed-loop arm: `clients` synthetic clients, each
    /// keeping exactly one job outstanding until it has submitted
    /// `jobs_per_client` jobs. Which model a client's next job targets
    /// is a pure function of `(seed, client, submission index)`, so
    /// two arms sharing a seed see identical job streams whatever
    /// their budgets do to the session pool.
    #[allow(clippy::too_many_arguments)]
    fn run_arm(
        nets: &[NetworkGraph],
        cfg: &SimConfig,
        budget_bytes: u64,
        clients: u32,
        jobs_per_client: u32,
        run_ms: u32,
        seed: u64,
    ) -> ArmOutcome {
        let mut server = Server::new(ServeConfig {
            queue_cap: (2 * clients as usize).max(8),
            resident_budget_bytes: budget_bytes,
            max_batch: 8,
            threads: 1,
        });
        let tenants: Vec<TenantId> = (0..clients)
            .map(|c| server.register_tenant(&format!("client{c}"), TenantQuota::unlimited()))
            .collect();
        let models: Vec<ModelId> = nets
            .iter()
            .map(|n| server.register_model(n.clone(), cfg.clone()))
            .collect();
        let input = PopulationId::from_index(0);
        let mut rngs: Vec<Xoshiro256> = (0..u64::from(clients))
            .map(|c| Xoshiro256::seed_from_u64(seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut submitted = vec![0u32; clients as usize];
        let mut outstanding: Vec<Option<JobId>> = vec![None; clients as usize];
        let mut latencies_ms = Vec::new();
        let mut fingerprints = Vec::new();
        let mut jobs = 0u64;
        let t0 = Instant::now();
        loop {
            let mut progressed = false;
            for c in 0..clients as usize {
                if outstanding[c].is_some() || submitted[c] >= jobs_per_client {
                    continue;
                }
                let spec = JobSpec {
                    tenant: tenants[c],
                    model: models[rngs[c].gen_range_usize(models.len())],
                    run_ms,
                    stimulus: vec![Stimulus {
                        pop: input,
                        rate_hz: 8.0 + 2.0 * f64::from(submitted[c] % 4),
                        seed: seed ^ ((c as u64 + 1) << 32) ^ u64::from(submitted[c] + 1),
                    }],
                };
                match server.submit(spec) {
                    Ok(id) => {
                        outstanding[c] = Some(id);
                        submitted[c] += 1;
                        progressed = true;
                    }
                    Err(AdmitError::QueueFull { .. }) => {} // serve first, retry next round
                    Err(e) => panic!("closed-loop submission must admit: {e}"),
                }
            }
            let results = server.poll().expect("serving batch runs");
            if results.is_empty() && !progressed && outstanding.iter().all(Option::is_none) {
                break;
            }
            for r in results {
                jobs += 1;
                latencies_ms.push(r.latency_ms());
                fingerprints.push((r.job.sequence(), spike_fp(&r.spikes)));
                for slot in outstanding.iter_mut() {
                    if *slot == Some(r.job) {
                        *slot = None;
                    }
                }
            }
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        fingerprints.sort_unstable();
        let stats = server.stats();
        let pool = server.pool_stats();
        assert_eq!(stats.jobs_completed, jobs, "every admitted job completes");
        ArmOutcome {
            jobs,
            wall_ms,
            latencies_ms,
            warm_hit_ratio: stats.warm_hit_ratio(),
            coalesced_jobs: stats.coalesced_jobs,
            batches: stats.batches,
            cold_builds: pool.cold_builds,
            evictions: pool.evictions,
            rehydrates: pool.rehydrates,
            peak_resident_bytes: pool.peak_resident_bytes,
            fingerprints,
        }
    }

    /// Percentile over an unsorted latency sample (nearest-rank).
    fn percentile_ms(samples: &[f64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// One serving row from an arm outcome.
    fn serving_record(
        arm: &str,
        clients: u32,
        models: u32,
        run_ms: u32,
        o: &ArmOutcome,
    ) -> BenchRecord {
        BenchRecord::new("serving")
            .config("arm", arm)
            .config("clients", clients)
            .config("models", models)
            .config("run_ms", run_ms)
            .config("jobs", o.jobs)
            .metric("wall_ms", o.wall_ms)
            .metric("jobs_per_sec", o.jobs as f64 / (o.wall_ms / 1e3))
            .metric("p50_latency_ms", percentile_ms(&o.latencies_ms, 0.50))
            .metric("p99_latency_ms", percentile_ms(&o.latencies_ms, 0.99))
            .metric("warm_hit_ratio", o.warm_hit_ratio)
            .metric("cold_builds", o.cold_builds)
            .metric("evictions", o.evictions)
            .metric("rehydrates", o.rehydrates)
            .metric("batches", o.batches)
            .metric("coalesced_jobs", o.coalesced_jobs)
            .metric(
                "peak_resident_mb",
                o.peak_resident_bytes as f64 / (1024.0 * 1024.0),
            )
    }

    /// The open-loop quota burst: two tenants, tight quotas, polls
    /// interleaved at fixed submission indices. Returns the admitted
    /// count, the per-reason rejection counts and the compact
    /// accept/reject trace replays are compared by.
    fn run_quota_arm(
        net: &NetworkGraph,
        cfg: &SimConfig,
        run_ms: u32,
        seed: u64,
    ) -> (u64, u64, u64, u64, String) {
        let mut server = Server::new(ServeConfig {
            queue_cap: 4,
            resident_budget_bytes: u64::MAX,
            max_batch: 4,
            threads: 1,
        });
        // "bounded" trips the in-flight and tick-budget limits;
        // "greedy" mostly trips the shared queue cap.
        let bounded = server.register_tenant("bounded", TenantQuota::new(2, u64::from(run_ms) * 6));
        let greedy = server.register_tenant("greedy", TenantQuota::new(8, u64::MAX));
        let model = server.register_model(net.clone(), cfg.clone());
        let input = PopulationId::from_index(0);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (mut admitted, mut q_full, mut in_flight, mut budget) = (0u64, 0u64, 0u64, 0u64);
        let mut trace = String::new();
        for i in 0..28u32 {
            let tenant = if rng.gen_bool(0.5) { bounded } else { greedy };
            let spec = JobSpec {
                tenant,
                model,
                run_ms,
                stimulus: vec![Stimulus {
                    pop: input,
                    rate_hz: 10.0,
                    seed: seed ^ u64::from(i + 1),
                }],
            };
            trace.push(if tenant == bounded { 'b' } else { 'g' });
            match server.submit(spec) {
                Ok(_) => {
                    admitted += 1;
                    trace.push('A');
                }
                Err(AdmitError::QueueFull { .. }) => {
                    q_full += 1;
                    trace.push('Q');
                }
                Err(AdmitError::InFlightLimit { .. }) => {
                    in_flight += 1;
                    trace.push('F');
                }
                Err(AdmitError::TickBudget { .. }) => {
                    budget += 1;
                    trace.push('T');
                }
                Err(e) => panic!("unexpected admission failure: {e}"),
            }
            // Serve a batch every few submissions so slots free up and
            // the queue refills — interleaving acceptance and each
            // rejection class along one deterministic trace.
            if i % 7 == 6 {
                let served = server.poll().expect("quota-arm batch runs");
                trace.push_str(&format!("p{}", served.len()));
            }
        }
        server.drain().expect("quota-arm drain runs");
        (admitted, q_full, in_flight, budget, trace)
    }

    /// The E21 report: steady-state serving at several concurrency
    /// levels, the eviction-churn arm with its bit-exactness verdict,
    /// the quota-determinism arm, and the E14-grid sweep rows.
    pub fn report(quick: bool) -> BenchReport {
        let mut report = BenchReport::new(
            "E21",
            "multi-tenant serving: warm-pool throughput, LRU eviction, quota admission",
            quick,
        );
        let models = 3u32;
        let (pops, size, p) = if quick {
            (6u32, 400u32, 0.03)
        } else {
            (8, 800, 0.02)
        };
        let run_ms = 5u32;
        let nets = fleet(models, pops, size, p);
        let cfg = SimConfig::new(4, 4).with_neurons_per_core(256);
        let seed = 0xE21;

        // Steady arm: unbounded budget, >= 3 client-concurrency
        // levels. jobs-per-client scales down as clients scale up so
        // every level serves a comparable total.
        let client_levels: &[u32] = if quick { &[1, 4, 16] } else { &[1, 4, 16, 32] };
        let total_jobs = if quick { 48u32 } else { 96 };
        let mut steady_c4: Option<ArmOutcome> = None;
        for &clients in client_levels {
            let per_client = (total_jobs / clients).max(1);
            let o = run_arm(&nets, &cfg, u64::MAX, clients, per_client, run_ms, seed);
            report.push(serving_record("steady", clients, models, run_ms, &o));
            if clients == 4 {
                steady_c4 = Some(o);
            }
        }
        let steady_c4 = steady_c4.expect("client level 4 always runs");

        // Churn arm: same seed and client level as steady's clients=4
        // run, under a budget of roughly half the fleet's footprint —
        // evictions and rehydrates become mandatory, the spike streams
        // must not notice.
        let churn_budget = (steady_c4.peak_resident_bytes / 2).max(1);
        let o = run_arm(
            &nets,
            &cfg,
            churn_budget,
            4,
            (total_jobs / 4).max(1),
            run_ms,
            seed,
        );
        let eviction_bit_exact = o.fingerprints == steady_c4.fingerprints;
        report.push(
            serving_record("churn", 4, models, run_ms, &o)
                .config("budget_mb", churn_budget as f64 / (1024.0 * 1024.0)),
        );
        report.push(
            BenchRecord::new("serving_determinism")
                .config("clients", 4u32)
                .config("jobs", o.jobs)
                .metric("eviction_bit_exact", eviction_bit_exact)
                .metric("evictions", o.evictions)
                .metric("rehydrates", o.rehydrates),
        );

        // Quota arm, replayed: the accept/reject trace must be
        // identical run-to-run.
        let (admitted, q_full, in_flight, budget, trace_a) =
            run_quota_arm(&nets[0], &cfg, run_ms, seed);
        let (_, _, _, _, trace_b) = run_quota_arm(&nets[0], &cfg, run_ms, seed);
        report.push(
            BenchRecord::new("serving_quota")
                .config("tenants", 2u32)
                .config("submissions", 28u32)
                .metric("admitted", admitted)
                .metric("rejected_total", q_full + in_flight + budget)
                .metric("rejected_queue_full", q_full)
                .metric("rejected_in_flight", in_flight)
                .metric("rejected_tick_budget", budget)
                .metric("deterministic", trace_a == trace_b),
        );

        // The E14/E16/E20-compatible spikes/sec sweep — the rows the
        // benchmark trajectory chains across committed baselines.
        let (edges, ms): (&[u32], u32) = if quick {
            (&[8], 100)
        } else {
            (&[8, 16, 32], 200)
        };
        for &edge in edges {
            let sweep_net = super::e12_parallel_execution::synfire_net(16, 512);
            for queue in [QueueKind::Heap, QueueKind::Calendar] {
                for threads in [1u32, 2, 4, 16] {
                    super::e14_event_core::sweep_case_best_of(
                        &mut report,
                        &sweep_net,
                        edge,
                        threads,
                        queue,
                        ms,
                        3,
                    );
                }
            }
        }
        report
    }

    /// The E21 table.
    pub fn run(quick: bool) -> String {
        format_report(&report(quick))
    }

    /// Formats a report as the human-readable E21 table.
    pub fn format_report(report: &BenchReport) -> String {
        use super::e14_event_core::{num_field as num, str_field};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E21: multi-tenant serving — warm-pool throughput, LRU eviction, quota admission ({} mode, commit {})",
            report.mode,
            &report.commit[..report.commit.len().min(12)],
        );
        let _ = writeln!(
            out,
            "   the machine as a shared instrument: seeded synthetic clients against a\n   bounded queue over warm RunSessions, evicting under a resident-byte budget\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}",
            "arm", "clients", "jobs", "jobs/sec", "p50 ms", "p99 ms", "warm-hit", "evict", "rehydr"
        );
        for r in report.records.iter().filter(|r| r.name == "serving") {
            let _ = writeln!(
                out,
                "{:>8} {:>8.0} {:>6.0} {:>10.1} {:>10.2} {:>10.2} {:>8.0}% {:>7.0} {:>7.0}",
                str_field(&r.config, "arm"),
                num(&r.config, "clients"),
                num(&r.config, "jobs"),
                num(&r.metrics, "jobs_per_sec"),
                num(&r.metrics, "p50_latency_ms"),
                num(&r.metrics, "p99_latency_ms"),
                100.0 * num(&r.metrics, "warm_hit_ratio"),
                num(&r.metrics, "evictions"),
                num(&r.metrics, "rehydrates"),
            );
        }
        for r in report
            .records
            .iter()
            .filter(|r| r.name == "serving_determinism")
        {
            let _ = writeln!(
                out,
                "\n  eviction bit-exact: {} ({:.0} evictions, {:.0} rehydrates across the churn arm)",
                str_field(&r.metrics, "eviction_bit_exact"),
                num(&r.metrics, "evictions"),
                num(&r.metrics, "rehydrates"),
            );
        }
        for r in report.records.iter().filter(|r| r.name == "serving_quota") {
            let _ = writeln!(
                out,
                "  quota burst: {:.0} admitted / {:.0} rejected ({:.0} queue-full, {:.0} in-flight, {:.0} tick-budget), deterministic: {}",
                num(&r.metrics, "admitted"),
                num(&r.metrics, "rejected_total"),
                num(&r.metrics, "rejected_queue_full"),
                num(&r.metrics, "rejected_in_flight"),
                num(&r.metrics, "rejected_tick_budget"),
                str_field(&r.metrics, "deterministic"),
            );
        }
        out
    }
}
