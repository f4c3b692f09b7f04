//! Building and running a simulation: the place → route → load → run
//! pipeline.

use std::collections::HashMap;

use spinn_machine::config::MachineConfig;
use spinn_machine::machine::NeuralMachine;
use spinn_map::graph::{NetworkGraph, PopulationId};
use spinn_map::keys::split_key;
use spinn_map::loader::LoadedApp;
use spinn_map::place::{Placement, Placer};
use spinn_map::route::{RouteStats, RoutingPlan};
use spinn_noc::mesh::NodeCoord;

use crate::error::SpinnError;

/// Configuration of a simulation build.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The machine to build onto.
    pub machine: MachineConfig,
    /// Maximum neurons per application core (DTCM budget; ≤ 2048).
    pub neurons_per_core: u32,
    /// Placement strategy.
    pub placer: Placer,
    /// Enable pair-based STDP with these parameters (modified rows are
    /// DMAed back to SDRAM, §5.3).
    pub stdp: Option<spinn_neuron::stdp::StdpParams>,
    /// Worker threads for the run (1 = the serial engine; more runs the
    /// machine sharded via `spinn-par`, with bit-identical spike
    /// output).
    pub threads: u32,
}

impl SimConfig {
    /// A `width x height`-chip machine with default parameters:
    /// locality-aware placement, 256 neurons per core.
    pub fn new(width: u32, height: u32) -> Self {
        SimConfig {
            machine: MachineConfig::new(width, height),
            neurons_per_core: 256,
            placer: Placer::Locality,
            stdp: None,
            threads: 1,
        }
    }

    /// Runs the machine sharded across `threads` worker threads
    /// (clamped to at least 1). Spike output is bit-identical to the
    /// serial engine; only wall-clock time changes.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the event-queue implementation
    /// ([`spinn_sim::QueueKind`]) the run is driven by. Spike output is
    /// bit-identical across kinds (golden-trace conformance suite);
    /// only wall-clock time changes. Defaults to the time-bucketed
    /// calendar queue.
    pub fn with_queue(mut self, queue: spinn_sim::QueueKind) -> Self {
        self.machine.queue = queue;
        self
    }

    /// Enables STDP plasticity.
    pub fn with_stdp(mut self, params: spinn_neuron::stdp::StdpParams) -> Self {
        self.stdp = Some(params);
        self
    }

    /// Overrides the placer.
    pub fn with_placer(mut self, placer: Placer) -> Self {
        self.placer = placer;
        self
    }

    /// Overrides the neurons-per-core budget.
    pub fn with_neurons_per_core(mut self, n: u32) -> Self {
        self.neurons_per_core = n;
        self
    }

    /// Selects the telemetry level ([`spinn_obs::ObsMode`]) for the
    /// run. Spike output is bit-identical across modes (telemetry
    /// observes, it never steers); the default is
    /// [`spinn_obs::ObsMode::Disabled`].
    pub fn with_observability(mut self, obs: spinn_obs::ObsMode) -> Self {
        self.machine.obs = obs;
        self
    }

    /// Sets the per-shard trace ring capacity, in records (only read in
    /// [`spinn_obs::ObsMode::CountersAndTrace`]). `0` — the default —
    /// scales the ring with the loaded neuron count; a nonzero value
    /// pins it exactly (see [`MachineConfig::trace_cap`]).
    pub fn with_trace_cap(mut self, records: usize) -> Self {
        self.machine.trace_cap = records;
        self
    }

    /// Allows the run to cut more shards than the host has cores (see
    /// [`MachineConfig::force_shards`]). Spike output is unchanged
    /// either way; conformance suites use this to exercise the sharded
    /// engine on any host.
    pub fn with_force_shards(mut self, force: bool) -> Self {
        self.machine.force_shards = force;
        self
    }
}

/// A built (but not yet run) simulation.
#[derive(Debug)]
pub struct Simulation {
    machine: NeuralMachine,
    placement: Placement,
    route_stats: RouteStats,
    pop_names: Vec<String>,
    threads: u32,
    /// global core -> (population, slice lo).
    slice_of_core: HashMap<u32, (PopulationId, u32)>,
}

/// A spike mapped back to network coordinates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PopSpike {
    /// Tick at which the neuron fired, ms.
    pub time_ms: u32,
    /// The population.
    pub pop: PopulationId,
    /// Neuron index within the population.
    pub neuron: u32,
}

impl Simulation {
    /// Places, routes, minimizes and loads `net` onto a machine — the
    /// full place → route → minimize → **stream-load** pipeline. The
    /// emitted tables are compressed with [`RoutingPlan::minimized`]
    /// before loading (see `spinn-map`'s `minimize` module), and
    /// connectivity is expanded *streaming*: each projection flows
    /// through `Projection::iter` straight into per-core master
    /// population tables + contiguous synaptic arenas
    /// (`spinn_neuron::synmatrix`), so the build never materializes a
    /// global edge list and the loaded matrices move onto the machine
    /// without per-row copies.
    ///
    /// # Errors
    ///
    /// [`SpinnError::Placement`] if the machine is too small,
    /// [`SpinnError::TableOverflow`] if a router CAM fills up,
    /// [`SpinnError::Dtcm`] if a core's data exceeds local memory.
    pub fn build(net: &NetworkGraph, cfg: SimConfig) -> Result<Simulation, SpinnError> {
        let m = &cfg.machine;
        let placement = Placement::compute(
            net,
            m.width,
            m.height,
            m.cores_per_chip,
            cfg.neurons_per_core,
            cfg.placer,
        )?;
        let plan = RoutingPlan::build(net, &placement, m.width, m.height).minimized();
        // The loader parallelizes across the same worker budget as the
        // run, and compresses replayable connectivity into lazy arenas
        // (rows materialize on first DMA touch) — both bit-exact
        // against the serial eager build.
        let app = LoadedApp::build_with(
            net,
            &placement,
            spinn_map::loader::BuildOptions {
                threads: cfg.threads as usize,
                lazy: spinn_map::loader::LazyMode::Auto,
            },
        );

        // SDRAM capacity: the synaptic matrices of all cores on a chip
        // share its 128 MB SDRAM.
        let mut per_chip_bytes = vec![0u64; m.chips()];
        for img in &app.images {
            let chip_id = (img.chip.y * m.width + img.chip.x) as usize;
            per_chip_bytes[chip_id] += img.sdram_bytes();
        }
        if let Some((chip_id, &bytes)) = per_chip_bytes
            .iter()
            .enumerate()
            .find(|(_, &b)| b > m.sdram_bytes)
        {
            return Err(SpinnError::Sdram(crate::error::SdramOverflow {
                chip: coord_of(m, chip_id),
                required: bytes,
                available: m.sdram_bytes,
            }));
        }

        let mut machine = NeuralMachine::new(*m);
        if let Some(p) = cfg.stdp {
            machine.enable_stdp(p);
        }
        machine.install_routing_plan(&plan)?;
        for img in app.images {
            machine.load_core(img.chip, img.core, img.neurons, img.bias_na, img.base_key)?;
            // Stream-load: the loader-built master population table +
            // arena moves onto the core wholesale — no per-row copies.
            machine.install_matrix(img.chip, img.core, img.matrix);
        }
        let slice_of_core = placement
            .slices()
            .iter()
            .map(|s| (s.global_core, (s.pop, s.lo)))
            .collect();
        Ok(Simulation {
            machine,
            placement,
            route_stats: plan.stats().clone(),
            pop_names: net.populations().iter().map(|p| p.name.clone()).collect(),
            threads: cfg.threads.max(1),
            slice_of_core,
        })
    }

    /// The placement (inspection).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Routing-plan statistics (table pressure, tree costs).
    pub fn route_stats(&self) -> &RouteStats {
        &self.route_stats
    }

    /// Machine access before the run (inspection: occupancy, router
    /// state, loaded-core accounting).
    pub fn machine(&self) -> &NeuralMachine {
        &self.machine
    }

    /// Mutable machine access before the run (fault injection, extra
    /// stimuli, table tweaks).
    pub fn machine_mut(&mut self) -> &mut NeuralMachine {
        &mut self.machine
    }

    /// Fails an inter-chip link before the run (E3/E4 fault injection).
    pub fn fail_link(&mut self, chip: NodeCoord, d: spinn_noc::direction::Direction) {
        self.machine.fail_link(chip, d);
    }

    /// Runs `ms` milliseconds of biological time, on the serial engine
    /// or sharded across [`SimConfig::with_threads`] worker threads —
    /// the spike output is identical either way.
    pub fn run(self, ms: u32) -> Completed {
        let machine = if self.threads > 1 {
            self.machine.run_parallel(ms, self.threads as usize)
        } else {
            self.machine.run(ms)
        };
        Completed {
            machine,
            route_stats: self.route_stats,
            pop_names: self.pop_names,
            slice_of_core: self.slice_of_core,
        }
    }

    /// Converts the built simulation into a resident
    /// [`RunSession`](crate::RunSession): run biological time in
    /// segments, mutate stimuli between them, checkpoint and resume —
    /// all bit-exact against the one-shot [`Simulation::run`] of the
    /// same build.
    pub fn into_session(self) -> crate::session::RunSession {
        crate::session::RunSession::new(
            self.machine,
            self.placement,
            self.route_stats,
            self.pop_names,
            self.slice_of_core,
            self.threads,
        )
    }
}

/// Maps machine-level spike records back to `(population, neuron)`
/// coordinates through the placement's core table (shared by
/// [`Completed`] and [`crate::RunSession`]).
pub(crate) fn map_spikes(
    spikes: &[spinn_machine::machine::SpikeRecord],
    slice_of_core: &HashMap<u32, (PopulationId, u32)>,
) -> Vec<PopSpike> {
    spikes
        .iter()
        .filter_map(|s| {
            let (core, local) = split_key(s.key);
            slice_of_core.get(&core).map(|&(pop, lo)| PopSpike {
                time_ms: s.time_ms,
                pop,
                neuron: lo + local,
            })
        })
        .collect()
}

fn coord_of(m: &MachineConfig, chip_id: usize) -> NodeCoord {
    NodeCoord::new(chip_id as u32 % m.width, chip_id as u32 / m.width)
}

/// A finished simulation: the machine plus network-level views of its
/// recordings.
#[derive(Debug)]
pub struct Completed {
    /// The post-run machine (spikes, meters, router stats).
    pub machine: NeuralMachine,
    route_stats: RouteStats,
    pop_names: Vec<String>,
    slice_of_core: HashMap<u32, (PopulationId, u32)>,
}

impl Completed {
    /// Assembles the completed view (the session hand-off path).
    pub(crate) fn from_parts(
        machine: NeuralMachine,
        route_stats: RouteStats,
        pop_names: Vec<String>,
        slice_of_core: HashMap<u32, (PopulationId, u32)>,
    ) -> Completed {
        Completed {
            machine,
            route_stats,
            pop_names,
            slice_of_core,
        }
    }

    /// All spikes mapped back to `(population, neuron)` coordinates.
    pub fn spikes(&self) -> Vec<PopSpike> {
        map_spikes(self.machine.spikes(), &self.slice_of_core)
    }

    /// Spike count of one population.
    pub fn spike_count(&self, pop: PopulationId) -> u64 {
        self.spikes().iter().filter(|s| s.pop == pop).count() as u64
    }

    /// Mean firing rate of a population over the run, Hz.
    pub fn mean_rate_hz(&self, pop: PopulationId, pop_size: u32, run_ms: u32) -> f64 {
        if run_ms == 0 || pop_size == 0 {
            return 0.0;
        }
        self.spike_count(pop) as f64 / pop_size as f64 / (run_ms as f64 / 1000.0)
    }

    /// Routing-plan statistics carried over from the build.
    pub fn route_stats(&self) -> &RouteStats {
        &self.route_stats
    }

    /// Per-chip memory occupancy and drop counters (see
    /// [`spinn_machine::machine::NeuralMachine::chip_occupancy`]).
    pub fn occupancy(&self) -> Vec<spinn_machine::machine::ChipOccupancy> {
        self.machine.chip_occupancy()
    }

    /// A human-readable run report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let duration = self.machine.duration_ns();
        let meter = self.machine.meter();
        let energy = self.machine.config().energy;
        let _ = writeln!(out, "== SpiNNaker run report ==");
        let _ = writeln!(out, "duration:            {} ms", duration / 1_000_000);
        let _ = writeln!(out, "total spikes:        {}", self.machine.spikes().len());
        let spikes = self.spikes();
        for (i, name) in self.pop_names.iter().enumerate() {
            let n = spikes.iter().filter(|s| s.pop.index() == i).count();
            let _ = writeln!(out, "  pop {name:12} spikes: {n}");
        }
        let rs = self.machine.router_stats();
        let _ = writeln!(
            out,
            "fabric:              {} table hits, {} default-routed, {} emergency, {} dropped",
            rs.mc_table_hits, rs.mc_default_routed, rs.emergency_reroutes, rs.dropped
        );
        let _ = writeln!(
            out,
            "spike latency:       p50 {} ns, p99 {} ns, max {} ns",
            self.machine.spike_latency().percentile(50.0),
            self.machine.spike_latency().percentile(99.0),
            self.machine.spike_latency().max()
        );
        let _ = writeln!(
            out,
            "real-time:           {} violations",
            self.machine.realtime_violations()
        );
        let _ = writeln!(
            out,
            "energy:              {:.3} mJ ({:.3} W mean)",
            meter.total_joules(&energy) * 1e3,
            meter.mean_watts(&energy, duration)
        );
        let _ = writeln!(
            out,
            "routing plan:        {} entries (minimized from {}), {} elided, max/chip {}",
            self.route_stats.total_entries,
            self.route_stats.pre_minimize_entries,
            self.route_stats.elided_entries,
            self.route_stats.max_entries_per_chip
        );
        let _ = writeln!(
            out,
            "router CAM:          peak {}/{} entries ({:.1}% occupancy)",
            rs.table_peak_entries,
            rs.table_capacity,
            100.0 * rs.occupancy_ratio()
        );
        // Per-chip memory occupancy and drop counters: only chips that
        // carry load or dropped packets, worst SDRAM users first,
        // capped so reports of big meshes stay readable.
        let mut occ = self.occupancy();
        occ.retain(|c| c.loaded_cores > 0 || c.dropped_packets > 0);
        occ.sort_by_key(|c| std::cmp::Reverse((c.sdram_bytes, c.dtcm_bytes, c.dropped_packets)));
        let shown = occ.len().min(16);
        let _ = writeln!(
            out,
            "chip occupancy:      {} loaded chip(s); per chip (top {shown}):",
            occ.len()
        );
        let _ = writeln!(
            out,
            "  {:>6} {:>6} {:>14} {:>16} {:>9}",
            "chip", "cores", "DTCM used", "SDRAM used", "dropped"
        );
        for c in occ.iter().take(shown) {
            let _ = writeln!(
                out,
                "  {:>6} {:>6} {:>7} B {:>3.0}% {:>9} B {:>3.1}% {:>9}",
                c.chip.to_string(),
                c.loaded_cores,
                c.dtcm_bytes,
                100.0 * c.dtcm_bytes as f64 / c.dtcm_capacity.max(1) as f64,
                c.sdram_bytes,
                100.0 * c.sdram_bytes as f64 / c.sdram_capacity.max(1) as f64,
                c.dropped_packets,
            );
        }
        if occ.len() > shown {
            let _ = writeln!(out, "  (+{} more chips)", occ.len() - shown);
        }
        let dropped_total: u64 = occ.iter().map(|c| c.dropped_packets).sum();
        let sdram_total: u64 = occ.iter().map(|c| c.sdram_bytes).sum();
        let _ = writeln!(
            out,
            "memory totals:       {} B synaptic SDRAM, {} dropped packet(s)",
            sdram_total, dropped_total
        );
        // The run-telemetry section, present only when collection was
        // enabled ([`SimConfig::with_observability`]).
        let telemetry = self.machine.telemetry();
        if telemetry.is_enabled() {
            out.push_str(&telemetry.render_table());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinn_map::graph::{Connector, NeuronKind, Synapses};
    use spinn_neuron::izhikevich::IzhikevichParams;

    fn kind() -> NeuronKind {
        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
    }

    fn two_pop_net() -> (NetworkGraph, PopulationId, PopulationId) {
        let mut net = NetworkGraph::new();
        let a = net.population("driver", 100, kind(), 10.0);
        let b = net.population("target", 100, kind(), 0.0);
        net.project(
            a,
            b,
            Connector::FixedFanOut(20),
            Synapses::constant(700, 1),
            3,
        );
        (net, a, b)
    }

    #[test]
    fn end_to_end_spike_flow() {
        let (net, a, b) = two_pop_net();
        let sim = Simulation::build(&net, SimConfig::new(4, 4)).unwrap();
        let done = sim.run(200);
        assert!(done.spike_count(a) > 100, "{}", done.spike_count(a));
        assert!(done.spike_count(b) > 10, "{}", done.spike_count(b));
        assert_eq!(done.machine.row_misses(), 0);
        assert_eq!(done.machine.realtime_violations(), 0);
        // Spikes decode to valid population coordinates.
        for s in done.spikes() {
            assert!(s.neuron < 100);
            assert!(s.pop == a || s.pop == b);
        }
    }

    #[test]
    fn rate_helper() {
        let (net, a, _) = two_pop_net();
        let done = Simulation::build(&net, SimConfig::new(4, 4))
            .unwrap()
            .run(500);
        let rate = done.mean_rate_hz(a, 100, 500);
        assert!(rate > 1.0, "driver rate {rate} Hz");
        assert_eq!(done.mean_rate_hz(a, 100, 0), 0.0);
    }

    #[test]
    fn machine_too_small_errors() {
        let (net, _, _) = two_pop_net();
        let cfg = SimConfig::new(1, 1).with_neurons_per_core(10);
        let err = Simulation::build(&net, cfg).unwrap_err();
        assert!(matches!(err, SpinnError::Placement(_)), "{err}");
    }

    #[test]
    fn placers_produce_identical_spike_rasters() {
        // §3.2 virtualized topology: function is independent of
        // placement. (Same seed, same network; only the mapping
        // differs.)
        let (net, _, b) = two_pop_net();
        let count = |placer| {
            let cfg = SimConfig::new(4, 4).with_placer(placer);
            let done = Simulation::build(&net, cfg).unwrap().run(150);
            let mut spikes = done.spikes();
            spikes.sort_by_key(|s| (s.time_ms, s.pop.index(), s.neuron));
            (spikes, done.spike_count(b))
        };
        let (r1, _) = count(Placer::Locality);
        let (r2, _) = count(Placer::Random { seed: 11 });
        let (r3, _) = count(Placer::RoundRobin);
        assert_eq!(r1, r2, "random placement must not change the raster");
        assert_eq!(r1, r3);
    }

    #[test]
    fn report_contains_key_sections() {
        let (net, _, _) = two_pop_net();
        let done = Simulation::build(&net, SimConfig::new(4, 4))
            .unwrap()
            .run(50);
        let report = done.report();
        for needle in [
            "run report",
            "total spikes",
            "driver",
            "target",
            "fabric:",
            "real-time:",
            "energy:",
            "routing plan:",
            "minimized from",
            "router CAM:",
            "chip occupancy:",
            "dropped",
            "memory totals:",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn determinism_end_to_end() {
        let (net, _, _) = two_pop_net();
        let run = || {
            Simulation::build(&net, SimConfig::new(4, 4))
                .unwrap()
                .run(100)
                .spikes()
        };
        assert_eq!(run(), run());
    }
}
