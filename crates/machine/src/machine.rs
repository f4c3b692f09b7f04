//! The running machine: event-driven application cores (Fig. 7) over the
//! packet fabric, with DMA-fetched synaptic rows and energy metering.
//!
//! Every active application core executes the same three tasks in
//! response to interrupt events, at descending priority (§5.3, Fig. 7):
//!
//! 1. **Packet received** — identify the spiking neuron, resolve its
//!    connectivity block through the core's master population table
//!    (binary search of `(key, mask)` entries over the contiguous
//!    synaptic arena, [`spinn_neuron::synmatrix::SynapticMatrix`]),
//!    schedule a DMA fetch.
//! 2. **DMA complete** — process the synaptic row: deposit each synapse's
//!    weight in the deferred-event ring buffer at its programmed delay.
//! 3. **1 ms timer** — advance the neuronal differential equations,
//!    drain the current ring slot, emit spike packets.
//!
//! "When all tasks are completed the processor goes into a low-power
//! 'wait for interrupt' state." Time a core spends busy vs. sleeping is
//! metered for the energy accounting (E7), and a timer tick arriving
//! while the previous tick is still being processed counts as a
//! **real-time violation** (the machine's defining constraint, §3.1).

use std::collections::VecDeque;

use spinn_neuron::model::AnyNeuron;
use spinn_neuron::pool::NeuronPool;
use spinn_neuron::ring::InputRing;
use spinn_neuron::stdp::{apply_bounded, StdpParams};
use spinn_neuron::synapse::SynapticRow;
use spinn_neuron::synmatrix::SynapticMatrix;
use spinn_noc::direction::Direction;
use spinn_noc::fabric::{CtxScheduler, Delivery, DroppedPacket, Fabric, NocEvent, Partition};
use spinn_noc::mesh::NodeCoord;
use spinn_noc::packet::{Packet, PacketKind};
use spinn_noc::router::RouterStats;
use spinn_obs::{Counter, Observability, Phase, PhaseProbe, RunTelemetry, TraceKind};
use spinn_par::{ParEngine, RemoteEvent, ShardModel};
use spinn_sim::{
    CalendarQueue, Context, Engine, EventQueue, Histogram, Model, Queue, QueueKind, SimTime,
};

use crate::config::MachineConfig;
use crate::energy::EnergyMeter;

/// Nanoseconds per millisecond tick.
const MS: u64 = 1_000_000;

/// Events of the machine simulation.
#[derive(Copy, Clone, Debug)]
pub enum MachineEvent {
    /// Fabric internals.
    Noc(NocEvent),
    /// The 1 ms timer interrupt: fires once per machine (or per shard)
    /// and services every locally owned chip in ascending dense-id
    /// order — the same order per-chip timer events used to pop in, at
    /// a fraction of the queue traffic (one event per tick instead of
    /// one per chip per tick).
    Timer,
    /// A scheduled mid-run link failure (fault injection; see
    /// [`NeuralMachine::queue_fail_link`]).
    FailLink {
        /// Dense chip id of one end of the failing cable.
        chip: u32,
        /// Direction of the cable from `chip` (both directions fail).
        dir: Direction,
    },
    /// A scheduled mid-run link repair — the inverse of
    /// [`MachineEvent::FailLink`] (see
    /// [`NeuralMachine::queue_repair_link`]).
    RepairLink {
        /// Dense chip id of one end of the repaired cable.
        chip: u32,
        /// Direction of the cable from `chip` (both directions are
        /// restored).
        dir: Direction,
    },
    /// A core finishes its current handler.
    CoreDone {
        /// Dense chip id.
        chip: u32,
        /// Core index on the chip.
        core: u8,
    },
    /// A DMA transfer completes (synaptic row now in DTCM).
    DmaDone {
        /// Dense chip id.
        chip: u32,
        /// Core index on the chip.
        core: u8,
        /// Source AER key whose row was fetched.
        key: u32,
    },
    /// External stimulus: a spike packet enters the fabric.
    InjectSpike {
        /// Dense chip id at which to inject.
        chip: u32,
        /// AER key.
        key: u32,
    },
    /// The monitor processor re-issues a dropped spike packet (§5.3:
    /// "can recover the packet and re-issue it if appropriate").
    ReissueSpike {
        /// Dense chip id at which the packet was dropped.
        chip: u32,
        /// AER key.
        key: u32,
        /// Reissue generation (2-bit timestamp field; gives up at 3).
        timestamp: u8,
    },
}

/// One recorded spike.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpikeRecord {
    /// Timer tick at which the neuron fired, ms.
    pub time_ms: u32,
    /// The neuron's AER key.
    pub key: u32,
}

/// One event a paused run segment left queued — an in-flight packet
/// arrival, a blocked-link retry, a handler completion, a future
/// stimulus. [`NeuralMachine::run_segment`] returns them in canonical
/// `(time, tie rank)` order and accepts them back on the next segment,
/// whatever its thread count or queue kind.
#[derive(Clone, Debug)]
pub struct PendingEvent {
    /// Absolute simulation time, ns.
    pub at_ns: u64,
    /// The queued event.
    pub event: MachineEvent,
}

/// The shard that must handle an event when a segment runs sharded:
/// `Some(chip)` for chip-local events, `None` for events every shard
/// replays against its own replica (the coalesced timer, link
/// failures).
fn event_chip(ev: &MachineEvent) -> Option<u32> {
    match ev {
        MachineEvent::Noc(NocEvent::Arrive { node, .. })
        | MachineEvent::Noc(NocEvent::LinkFree { node, .. })
        | MachineEvent::Noc(NocEvent::Retry { node, .. }) => Some(*node),
        MachineEvent::CoreDone { chip, .. }
        | MachineEvent::DmaDone { chip, .. }
        | MachineEvent::InjectSpike { chip, .. }
        | MachineEvent::ReissueSpike { chip, .. } => Some(*chip),
        MachineEvent::Timer | MachineEvent::FailLink { .. } | MachineEvent::RepairLink { .. } => {
            None
        }
    }
}

/// Merges per-shard drained queues into one canonical pending list:
/// stable-sorted by `(time, rank)` (so same-instant order stays a
/// function of event content, as in the queues themselves) with the
/// per-shard replicas of broadcast events collapsed back to one copy.
fn canonical_pending(per_shard: Vec<Vec<(SimTime, u128, MachineEvent)>>) -> Vec<PendingEvent> {
    use std::collections::HashSet;
    let mut flat: Vec<(u64, u128, MachineEvent)> = Vec::new();
    for shard in per_shard {
        flat.extend(shard.into_iter().map(|(t, r, e)| (t.ticks(), r, e)));
    }
    flat.sort_by_key(|&(t, r, _)| (t, r));
    let mut seen_timers: HashSet<u64> = HashSet::new();
    let mut seen_faults: HashSet<(u64, u32, u8)> = HashSet::new();
    let mut seen_repairs: HashSet<(u64, u32, u8)> = HashSet::new();
    let mut out = Vec::with_capacity(flat.len());
    for (at_ns, _rank, event) in flat {
        match event {
            MachineEvent::Timer if !seen_timers.insert(at_ns) => continue,
            MachineEvent::FailLink { chip, dir }
                if !seen_faults.insert((at_ns, chip, dir.index() as u8)) =>
            {
                continue
            }
            MachineEvent::RepairLink { chip, dir }
                if !seen_repairs.insert((at_ns, chip, dir.index() as u8)) =>
            {
                continue
            }
            _ => {}
        }
        out.push(PendingEvent { at_ns, event });
    }
    out
}

#[derive(Clone, Debug)]
pub(crate) enum WorkItem {
    /// An incoming packet's AER key, awaiting the MPT lookup.
    Packet(u32),
    /// A DMA-fetched row, by row index into the core's matrix.
    Row(u32),
    Timer,
}

/// The loadable contents of one application core (returned by
/// [`NeuralMachine::evict_core`] for functional migration).
#[derive(Clone, Debug)]
pub struct CorePayload {
    /// Neuron state vector.
    pub neurons: Vec<AnyNeuron>,
    /// Constant bias current per neuron, nA.
    pub bias_na: Vec<f32>,
    /// The core's synaptic matrix (master population table + arena),
    /// indexed by source AER key.
    pub matrix: SynapticMatrix,
    /// AER key of this core's neuron 0 (neuron `i` emits `base_key + i`).
    pub base_key: u32,
}

#[derive(Debug)]
pub(crate) struct AppCore {
    /// Neuron state, structure-of-arrays (flat per-tick update).
    pub(crate) neurons: NeuronPool,
    pub(crate) bias_na: Vec<f32>,
    pub(crate) base_key: u32,
    pub(crate) ring: InputRing,
    /// The §5.2/§6 memory model: master population table over one
    /// contiguous synaptic arena. Packet handling binary-searches the
    /// table; DMA sizes and STDP write-backs come from row slices.
    pub(crate) matrix: SynapticMatrix,
    pub(crate) q_packets: VecDeque<u32>,
    /// DMA-completed rows awaiting processing, by row index.
    pub(crate) q_rows: VecDeque<u32>,
    pub(crate) timer_pending: u32,
    pub(crate) current: Option<WorkItem>,
    pub(crate) pending_spikes: Vec<u32>,
    pub(crate) spikes_emitted: u64,
    pub(crate) overruns: u64,
    pub(crate) row_misses: u64,
    /// STDP state (when plasticity is enabled): per-row time of the
    /// previous pre-spike (indexed like the matrix rows), and
    /// per-neuron time of the last post-spike. Updates are applied
    /// synapse-centrically when a row is fetched, as on the real
    /// machine.
    pub(crate) row_last_pre_ms: Vec<f64>,
    pub(crate) last_post_ms: Vec<f64>,
    /// Rows whose weights STDP has rewritten since load (may contain
    /// duplicates; deduplicated at checkpoint). Snapshots serialize
    /// only these rows as arena deltas against the loader's matrix.
    pub(crate) dirty_rows: Vec<u32>,
}

/// DTCM bytes a core with this ring buffer and neuron count occupies —
/// the admission formula [`NeuralMachine::load_core`] checks and the
/// figure [`NeuralMachine::chip_occupancy`] reports (48 B of state per
/// neuron).
fn core_dtcm_bytes(ring: &InputRing, n_neurons: usize) -> usize {
    ring.size_bytes() + n_neurons * 48
}

impl AppCore {
    /// DTCM bytes this core's resident data occupies.
    fn dtcm_bytes(&self) -> usize {
        core_dtcm_bytes(&self.ring, self.neurons.len())
    }

    /// Keeps the STDP pre-spike timestamps consistent with the matrix.
    ///
    /// `row_last_pre_ms` is indexed by row, so any insertion that
    /// changes the row count may also have *shifted* existing rows
    /// (`SynapticMatrix::insert_row`'s block-grow path splices rows
    /// mid-vector). Timestamps attached to the wrong rows would corrupt
    /// STDP, so a structural change resets the history to "no previous
    /// pre-spike" — installing new connectivity invalidates cached
    /// timing state. In-place row replacement keeps the history.
    fn sync_stdp_rows(&mut self) {
        if self.row_last_pre_ms.len() != self.matrix.n_rows() {
            self.row_last_pre_ms = vec![f64::NEG_INFINITY; self.matrix.n_rows()];
            // Row indices may have shifted: previously recorded dirty
            // rows no longer name the same synapses, and the new
            // connectivity becomes the delta baseline.
            self.dirty_rows.clear();
        }
    }
}

/// Per-chip memory occupancy and packet-drop counters (see
/// [`NeuralMachine::chip_occupancy`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChipOccupancy {
    /// The chip.
    pub chip: NodeCoord,
    /// Application cores loaded on the chip.
    pub loaded_cores: u32,
    /// DTCM bytes in use across the chip's loaded cores (ring buffers
    /// plus neuron state at the admission budget).
    pub dtcm_bytes: u64,
    /// DTCM capacity: application cores × 64 KB.
    pub dtcm_capacity: u64,
    /// Synaptic-arena bytes resident in the chip's shared SDRAM.
    pub sdram_bytes: u64,
    /// The chip's shared SDRAM capacity, bytes.
    pub sdram_capacity: u64,
    /// Packets this chip's router dropped.
    pub dropped_packets: u64,
}

/// Error returned when a core's data would not fit in its 64 KB DTCM.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DtcmOverflow {
    /// Bytes the configuration requires.
    pub required: usize,
    /// Bytes available.
    pub available: usize,
}

impl std::fmt::Display for DtcmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core data ({} B) exceeds DTCM ({} B)",
            self.required, self.available
        )
    }
}

impl std::error::Error for DtcmOverflow {}

/// The whole neural machine: fabric + loaded application cores.
///
/// # Example
///
/// A two-neuron ping-pong across two chips:
///
/// ```
/// use spinn_machine::machine::NeuralMachine;
/// use spinn_machine::config::MachineConfig;
/// use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
/// use spinn_neuron::synapse::{SynapticRow, SynapticWord};
/// use spinn_noc::mesh::NodeCoord;
/// use spinn_noc::table::{McTableEntry, RouteSet};
///
/// let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
/// let n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
/// m.load_core(NodeCoord::new(0, 0), 1, vec![n.clone().into()], vec![10.0], 0x1000).unwrap();
/// // Deliver key 0x1000 spikes to the local core (loopback demo).
/// m.router_mut(NodeCoord::new(0, 0)).table.insert(McTableEntry {
///     key: 0x1000, mask: 0xFFFF_F000,
///     route: RouteSet::EMPTY.with_core(1),
/// }).unwrap();
/// let m = m.run(100);
/// assert!(m.spikes().len() > 0);
/// ```
#[derive(Debug)]
pub struct NeuralMachine {
    pub(crate) cfg: MachineConfig,
    pub(crate) fabric: Fabric,
    /// One slot per `(chip, core)` pair. Boxed so an empty slot costs a
    /// pointer, not a full [`AppCore`] of inline `Vec` headers: a
    /// million-core mesh has ~1.1 M slots, and sharded segments
    /// allocate a slot table *per shard* — inline, idle slots alone
    /// would dwarf the loaded state.
    pub(crate) cores: Vec<Option<Box<AppCore>>>,
    pub(crate) dma_free_at: Vec<u64>,
    pub(crate) stimuli: Vec<(u64, u32, u32)>, // (time_ns, chip, key)
    pub(crate) fault_plan: Vec<(u64, u32, Direction)>, // (time_ns, chip, direction)
    pub(crate) repair_plan: Vec<(u64, u32, Direction)>, // (time_ns, chip, direction)
    pub(crate) spikes: Vec<SpikeRecord>,
    pub(crate) meter: EnergyMeter,
    pub(crate) spike_latency: Histogram,
    pub(crate) duration_ms: u32,
    pub(crate) stdp: Option<StdpParams>,
    pub(crate) reissued_packets: u64,
    pub(crate) weight_writebacks: u64,
    par_stats: Option<spinn_par::ParStats>,
    /// The `(chip, core)` pairs this machine's coalesced
    /// [`MachineEvent::Timer`] services, in ascending `(chip, core)`
    /// order — exactly the order the per-slot scan used to visit loaded
    /// cores, so the replay is bit-identical. Rebuilt from the loaded
    /// slots at every segment start (all loaded cores serially; the
    /// owned cores when running as one shard), so a tick costs the
    /// loaded-core count, not `chips × cores_per_chip` slot checks —
    /// the difference between a million-chip mesh idling for free and
    /// every tick scanning 1.1 M empty `Option`s.
    timer_cores: Vec<(u32, u8)>,
    /// Reusable per-tick buffers (ring-slot snapshot) and per-event
    /// drain buffers (delivered/dropped packets): the hot path runs
    /// allocation-free once they reach steady-state capacity.
    tick_inputs: Vec<i32>,
    delivery_scratch: Vec<Delivery>,
    dropped_scratch: Vec<DroppedPacket>,
    /// Live telemetry handles for the current segment (shard-scoped
    /// while sharded; the fabric holds a clone of the counter handle).
    obs: Observability,
    /// Telemetry accumulated across completed segments
    /// ([`NeuralMachine::telemetry`]).
    telemetry: RunTelemetry,
    /// Events handled per chip, accumulated across segments — the
    /// measured load that seeds [`NeuralMachine::event_weighted_owner`]
    /// once a first segment has run (static estimates only predict
    /// structure, not activity; this is what the partition actually
    /// needs). Not part of the checkpoint wire state: a restored run
    /// re-seeds from its own first segment.
    chip_events: Vec<u64>,
    /// Per-link hop traffic: `chips * 6` counters indexed `chip * 6 +
    /// port`, one increment per packet arrival over that link. The
    /// arrival port identifies the sending neighbour, so summed over a
    /// candidate shard cut this measures exactly the traffic the cut
    /// would turn into cross-shard exchanges — including vertical and
    /// wraparound links that are invisible to the dense-id axis. Feeds
    /// the cross-cut term of [`NeuralMachine::event_weighted_owner`];
    /// like [`NeuralMachine::chip_events`], not checkpoint state.
    link_flux: Vec<u64>,
}

impl NeuralMachine {
    /// An empty machine of the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let chips = cfg.chips();
        let per = cfg.cores_per_chip as usize;
        let obs =
            Observability::for_shard_with_cap(cfg.obs, 0, Self::auto_trace_cap(cfg.trace_cap, 0));
        let mut fabric = Fabric::new(cfg.fabric);
        fabric.set_observability(obs.counters().clone());
        NeuralMachine {
            fabric,
            cores: (0..chips * per).map(|_| None).collect(),
            dma_free_at: vec![0; chips],
            stimuli: Vec::new(),
            fault_plan: Vec::new(),
            repair_plan: Vec::new(),
            spikes: Vec::new(),
            meter: EnergyMeter::new(),
            spike_latency: Histogram::new(4000, 250), // 250 ns buckets to 1 ms
            duration_ms: 0,
            stdp: None,
            reissued_packets: 0,
            weight_writebacks: 0,
            par_stats: None,
            timer_cores: Vec::new(),
            tick_inputs: Vec::new(),
            delivery_scratch: Vec::new(),
            dropped_scratch: Vec::new(),
            obs,
            telemetry: RunTelemetry::default(),
            chip_events: vec![0; chips],
            link_flux: vec![0; chips * 6],
            cfg,
        }
    }

    /// Re-creates the live telemetry handles scoped to `shard` and
    /// re-registers the counter handle with the fabric (which may have
    /// been replaced wholesale, e.g. by the shard-split clone). Called
    /// at segment start, when the loaded neuron count — which sizes the
    /// auto trace ring — is known.
    fn install_observability(&mut self, shard: u32) {
        let neurons: usize = self.cores.iter().flatten().map(|c| c.neurons.len()).sum();
        let cap = Self::auto_trace_cap(self.cfg.trace_cap, neurons);
        self.obs = Observability::for_shard_with_cap(self.cfg.obs, shard, cap);
        self.fabric.set_observability(self.obs.counters().clone());
    }

    /// Resolves [`MachineConfig::trace_cap`]: a nonzero configured value
    /// is used as-is; `0` (auto) scales the ring to ~4 records per
    /// loaded neuron, rounded to a power of two and bounded to
    /// `[DEFAULT_TRACE_CAP, 1 Mi]`. Small nets keep the historical
    /// default; a 100k-neuron run gets a 512 Ki ring instead of losing
    /// ~94% of its records to a 16 Ki one.
    fn auto_trace_cap(configured: usize, neurons: usize) -> usize {
        if configured != 0 {
            return configured;
        }
        neurons
            .saturating_mul(4)
            .next_power_of_two()
            .clamp(spinn_obs::DEFAULT_TRACE_CAP, 1 << 20)
    }

    /// Rebuilds the coalesced timer's dense service list from the
    /// loaded slots (ascending `(chip, core)` — slot order).
    fn rebuild_timer_cores(&mut self) {
        let per = self.cfg.cores_per_chip as usize;
        self.timer_cores.clear();
        self.timer_cores.extend(
            self.cores
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_some())
                .map(|(idx, _)| ((idx / per) as u32, (idx % per) as u8)),
        );
    }

    /// Telemetry accumulated by completed run segments (empty unless
    /// [`MachineConfig::obs`] enables collection).
    pub fn telemetry(&self) -> &RunTelemetry {
        &self.telemetry
    }

    /// Window/exchange counters of the last [`NeuralMachine::run_parallel`]
    /// call (`None` after a serial run).
    pub fn par_stats(&self) -> Option<&spinn_par::ParStats> {
        self.par_stats.as_ref()
    }

    /// Events handled per dense chip id, accumulated across all
    /// completed segments — the measured load that seeds the
    /// event-weighted shard partition.
    pub fn chip_event_counts(&self) -> &[u64] {
        &self.chip_events
    }

    /// Resets run-mode bookkeeping after a snapshot install: the
    /// restored machine behaves like one that has only run serially so
    /// far, whatever sharding produced the checkpoint.
    pub(crate) fn clear_par_stats(&mut self) {
        self.par_stats = None;
        self.rebuild_timer_cores();
        // Telemetry describes *this* process's run, not the restored
        // machine state: start the restored run's accounting fresh.
        self.telemetry = RunTelemetry::default();
        self.install_observability(0);
    }

    /// Enables pair-based STDP on every loaded core. Weight updates are
    /// applied when a synaptic row is fetched (synapse-centric, as on
    /// hardware) and modified rows are DMAed back to SDRAM (§5.3: "if
    /// the connectivity data is modified, a DMA must be scheduled to
    /// write the changes back into SDRAM").
    pub fn enable_stdp(&mut self, params: StdpParams) {
        self.stdp = Some(params);
    }

    /// Sets or clears the STDP rule — `None` freezes all weights. Safe
    /// to flip between run segments: plasticity state (pre/post spike
    /// timestamps) is kept, so re-enabling continues from the timing
    /// history the cores already hold.
    pub fn set_stdp(&mut self, params: Option<StdpParams>) {
        self.stdp = params;
    }

    /// The active STDP rule, if plasticity is enabled.
    pub fn stdp(&self) -> Option<StdpParams> {
        self.stdp
    }

    /// Dropped multicast packets the monitors recovered and re-issued.
    pub fn reissued_packets(&self) -> u64 {
        self.reissued_packets
    }

    /// Number of modified synaptic rows written back to SDRAM (STDP).
    pub fn weight_writebacks(&self) -> u64 {
        self.weight_writebacks
    }

    /// The current weight (8.8 fixed point) of the synapse from the
    /// neuron with AER key `src_key` to local `target` on `(chip,
    /// core)`, if present (inspection for plasticity experiments).
    pub fn weight_of(&self, chip: NodeCoord, core: u8, src_key: u32, target: u16) -> Option<i16> {
        let idx = self.core_index(chip, core);
        self.cores[idx].as_ref().and_then(|c| {
            c.matrix.lookup(src_key).and_then(|row| {
                // `row_words` regenerates lazily stored rows without
                // mutating the arena (inspection must not materialize).
                c.matrix
                    .row_words(row)
                    .iter()
                    .find(|w| w.target() == target)
                    .map(|w| w.weight_raw())
            })
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Mutable router access (table loading; core 0 is the Monitor, so
    /// application cores are 1..cores_per_chip).
    pub fn router_mut(&mut self, chip: NodeCoord) -> &mut spinn_noc::router::Router {
        self.fabric.router_mut(chip)
    }

    /// Loads a routing plan's per-chip tables into the routers through
    /// the fallible CAM path, returning the number of entries installed.
    /// Routers recompile their lookup structures lazily, so this also
    /// covers re-installation after fault-injection table edits.
    ///
    /// # Errors
    ///
    /// Returns [`spinn_noc::table::TableFull`] if any chip's table
    /// exceeds the router CAM capacity
    /// ([`spinn_noc::router::RouterConfig::table_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different mesh size.
    pub fn install_routing_plan(
        &mut self,
        plan: &spinn_map::route::RoutingPlan,
    ) -> Result<usize, spinn_noc::table::TableFull> {
        plan.install_into(&mut self.fabric)
    }

    /// Hot-swaps the routing tables of a (possibly mid-run) machine:
    /// every router CAM is cleared, then the plan is loaded through the
    /// same fallible path as [`NeuralMachine::install_routing_plan`].
    /// Safe between events — packets re-resolve their route at every
    /// chip — which is what live repair relies on.
    ///
    /// # Errors
    ///
    /// Returns [`spinn_noc::table::TableFull`] if any chip's table
    /// exceeds the router CAM capacity; treat that as fatal (tables are
    /// left partially swapped).
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different mesh size.
    pub fn reinstall_routing_plan(
        &mut self,
        plan: &spinn_map::route::RoutingPlan,
    ) -> Result<usize, spinn_noc::table::TableFull> {
        plan.reinstall_into(&mut self.fabric)
    }

    /// Fails an inter-chip link (fault injection for E3/E4).
    pub fn fail_link(&mut self, chip: NodeCoord, d: spinn_noc::direction::Direction) {
        self.fabric.fail_link(chip, d);
    }

    /// Restores a previously failed inter-chip link (both directions of
    /// the cable) — the machine-level inverse of
    /// [`NeuralMachine::fail_link`].
    pub fn restore_link(&mut self, chip: NodeCoord, d: spinn_noc::direction::Direction) {
        self.fabric.repair_link(chip, d);
    }

    /// Loads neurons onto an application core.
    ///
    /// Neuron `i` fires with AER key `base_key + i`; incoming packets are
    /// matched against rows installed with [`NeuralMachine::set_row`].
    ///
    /// # Errors
    ///
    /// Returns [`DtcmOverflow`] if the neuron state plus ring buffer
    /// exceeds the 64 KB data memory.
    ///
    /// # Panics
    ///
    /// Panics if `core` is 0 (the Monitor) or out of range, if the core
    /// is already loaded, or if `bias_na` length differs from `neurons`.
    pub fn load_core(
        &mut self,
        chip: NodeCoord,
        core: u8,
        neurons: Vec<AnyNeuron>,
        bias_na: Vec<f32>,
        base_key: u32,
    ) -> Result<(), DtcmOverflow> {
        assert!(
            core != 0 && core < self.cfg.cores_per_chip,
            "core {core} is not an application core"
        );
        assert_eq!(neurons.len(), bias_na.len(), "bias length mismatch");
        let ring = InputRing::new(neurons.len());
        let required = core_dtcm_bytes(&ring, neurons.len());
        if required > self.cfg.dtcm_bytes as usize {
            return Err(DtcmOverflow {
                required,
                available: self.cfg.dtcm_bytes as usize,
            });
        }
        let idx = self.core_index(chip, core);
        assert!(self.cores[idx].is_none(), "core already loaded");
        let n = neurons.len();
        self.cores[idx] = Some(Box::new(AppCore {
            ring,
            neurons: NeuronPool::from_neurons(neurons),
            bias_na,
            base_key,
            matrix: SynapticMatrix::new(),
            q_packets: VecDeque::new(),
            q_rows: VecDeque::new(),
            timer_pending: 0,
            current: None,
            pending_spikes: Vec::new(),
            spikes_emitted: 0,
            overruns: 0,
            row_misses: 0,
            row_last_pre_ms: Vec::new(),
            last_post_ms: vec![f64::NEG_INFINITY; n],
            dirty_rows: Vec::new(),
        }));
        Ok(())
    }

    /// Installs a whole synaptic matrix on a loaded core in one move —
    /// the stream-load path `Simulation::build` uses (the matrix is
    /// assembled off-machine by the loader, then handed over without
    /// per-row copies).
    ///
    /// # Panics
    ///
    /// Panics if the core is not loaded.
    pub fn install_matrix(&mut self, chip: NodeCoord, core: u8, matrix: SynapticMatrix) {
        let idx = self.core_index(chip, core);
        let c = self.cores[idx].as_mut().expect("core not loaded");
        c.matrix = matrix;
        c.row_last_pre_ms = vec![f64::NEG_INFINITY; c.matrix.n_rows()];
        c.dirty_rows.clear();
    }

    /// Installs the synaptic row a core uses for incoming `key` spikes
    /// (the manual loading path; whole matrices go through
    /// [`NeuralMachine::install_matrix`]).
    ///
    /// # Panics
    ///
    /// Panics if the core is not loaded.
    pub fn set_row(&mut self, chip: NodeCoord, core: u8, key: u32, row: SynapticRow) {
        let idx = self.core_index(chip, core);
        let c = self.cores[idx].as_mut().expect("core not loaded");
        c.matrix.insert_row(key, row.words());
        c.sync_stdp_rows();
    }

    /// Removes a core and returns its contents (monitor-driven
    /// functional migration after a fault, §5.3).
    pub fn evict_core(&mut self, chip: NodeCoord, core: u8) -> Option<CorePayload> {
        let idx = self.core_index(chip, core);
        self.cores[idx].take().map(|c| {
            let c = *c;
            CorePayload {
                neurons: c.neurons.into_neurons(),
                bias_na: c.bias_na,
                matrix: c.matrix,
                base_key: c.base_key,
            }
        })
    }

    /// Installs a previously evicted payload on another core.
    ///
    /// # Errors
    ///
    /// Returns [`DtcmOverflow`] like [`NeuralMachine::load_core`].
    pub fn install_core(
        &mut self,
        chip: NodeCoord,
        core: u8,
        payload: CorePayload,
    ) -> Result<(), DtcmOverflow> {
        self.load_core(
            chip,
            core,
            payload.neurons,
            payload.bias_na,
            payload.base_key,
        )?;
        self.install_matrix(chip, core, payload.matrix);
        Ok(())
    }

    /// Queues an external stimulus spike (must be called before
    /// [`NeuralMachine::run`]).
    pub fn queue_stimulus(&mut self, time_ns: u64, chip: NodeCoord, key: u32) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.stimuli.push((time_ns, id, key));
    }

    /// Queues a mid-run link failure: at simulated time `time_ns` the
    /// cable between `chip` and its neighbour in direction `dir` fails
    /// in both directions (fault injection while traffic is in flight,
    /// as opposed to pre-run [`NeuralMachine::fail_link`]).
    ///
    /// Must be called before [`NeuralMachine::run`] /
    /// [`NeuralMachine::run_parallel`]. The failure is replayed
    /// identically by serial and sharded runs: every shard applies the
    /// same fault to its fabric replica when its clock reaches
    /// `time_ns`.
    pub fn queue_fail_link(&mut self, time_ns: u64, chip: NodeCoord, dir: Direction) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.fault_plan.push((time_ns, id, dir));
    }

    /// Queues a mid-run link repair: at simulated time `time_ns` the
    /// cable between `chip` and its neighbour in direction `dir` is
    /// restored in both directions — the queueable inverse of
    /// [`NeuralMachine::queue_fail_link`], scheduled and replayed under
    /// exactly the same rules (broadcast to every shard, deterministic
    /// ordering against same-instant traffic).
    pub fn queue_repair_link(&mut self, time_ns: u64, chip: NodeCoord, dir: Direction) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.repair_plan.push((time_ns, id, dir));
    }

    /// Discards every fault queued with
    /// [`NeuralMachine::queue_fail_link`] and every repair queued with
    /// [`NeuralMachine::queue_repair_link`] (e.g. to run a healthy
    /// control of an otherwise identical machine).
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan.clear();
        self.repair_plan.clear();
    }

    /// Runs the machine for `ms` milliseconds of biological time and
    /// returns it with all statistics populated.
    ///
    /// The run is driven by the event queue selected in
    /// [`MachineConfig::queue`]; results are bit-identical across queue
    /// kinds.
    pub fn run(self, ms: u32) -> NeuralMachine {
        self.run_segment(Vec::new(), 0, ms, 1).0
    }

    /// Runs the machine for `ms` milliseconds across `threads` worker
    /// threads (`spinn-par`), producing the same [`SpikeRecord`] stream
    /// as [`NeuralMachine::run`].
    ///
    /// The chips are partitioned into contiguous, *event-weighted*
    /// blocks of dense ids — one shard per thread — and each shard
    /// advances its own event queue inside conservative windows bounded
    /// by the minimum inter-chip link latency
    /// ([`spinn_noc::fabric::FabricConfig::min_remote_delay_ns`]).
    /// Spike packets crossing a shard boundary are exchanged at window
    /// barriers with their exact arrival timestamps, so the parallel run
    /// is an event-exact replay of the serial one. `threads` is clamped
    /// to `[1, chips]`; with one thread this is exactly
    /// [`NeuralMachine::run`].
    ///
    /// The run is cut into rebalance epochs (segment chaining is
    /// bit-exact, so the cuts are invisible in the results): each
    /// epoch's measured per-chip event counts reseed the partition for
    /// the next, so a hot region that no static estimate could predict
    /// stops serializing the shards after the first epoch.
    ///
    /// Each shard stays on one worker thread for the whole segment
    /// (`spinn-par`'s static ownership rule), just as the machine pins
    /// a population slice to one core. With
    /// [`MachineConfig::force_shards`] the cut may hold more shards
    /// than the host has cores; a worker then owns several. The spike
    /// stream is bit-identical for every shard count
    /// (`tests/work_stealing_conformance.rs`).
    pub fn run_parallel(self, ms: u32, threads: usize) -> NeuralMachine {
        /// Epoch length: long enough to amortize the shard split/merge,
        /// short enough that a run settles onto measured weights early.
        const EPOCH_MS: u32 = 5;
        if self.effective_threads(threads) <= 1 {
            // The shard clamp collapsed the run to one worker: rebalance
            // epochs would only cut the segment (and pay the drain /
            // canonicalize cost at every boundary) for a partition that
            // no longer exists. One serial segment is the same result.
            return self.run_segment(Vec::new(), 0, ms, 1).0;
        }
        let mut machine = self;
        let mut pending = Vec::new();
        let mut done = 0u32;
        while done < ms {
            let step = EPOCH_MS.min(ms - done);
            let (m, p) = machine.run_segment(pending, done, step, threads);
            machine = m;
            pending = p;
            done += step;
        }
        machine
    }

    /// Advances the machine by one **run segment**: `ms` milliseconds of
    /// biological time starting at `from_ms` (the machine must already
    /// hold the state of a run up to `from_ms`; pass 0 for a fresh
    /// machine). `pending` carries the events a previous segment left
    /// queued; the returned vector carries the events this segment
    /// leaves queued — in-flight packets, busy-link retries, handler
    /// completions — in canonical `(time, rank)` order.
    ///
    /// Chaining segments is **bit-exact**: `run_segment(p, 0, a+b, t)`
    /// produces the same machine as `run_segment(p, 0, a, t)` followed
    /// by `run_segment(p', a, b, t')`, for any segment lengths and any
    /// (possibly different) thread counts and queue kinds per segment.
    /// Segment `k` processes exactly the events in
    /// `(boundary(from), boundary(from + ms)]` with
    /// `boundary(x) = (x + 1) ms − 1 ns`, so the union over segments is
    /// independent of where the cuts fall; the boundary never coincides
    /// with a timer tick, and the coalesced 1 ms timer chain (which ends
    /// at `from + ms`) is restarted by the next segment at the same
    /// instant and tie rank it would have fired at in an unbroken run.
    ///
    /// With more than one thread after
    /// [`NeuralMachine::effective_threads`], the segment is cut into
    /// exactly that many shards, each owned by one `spinn-par` worker
    /// for the whole segment.
    ///
    /// [`NeuralMachine::run`] is `run_segment(vec![], 0, ms, 1)` with
    /// the leftover events discarded.
    pub fn run_segment(
        self,
        pending: Vec<PendingEvent>,
        from_ms: u32,
        ms: u32,
        threads: usize,
    ) -> (NeuralMachine, Vec<PendingEvent>) {
        if ms == 0 {
            return (self, pending);
        }
        let threads = self.effective_threads(threads);
        match (self.cfg.queue, threads) {
            (QueueKind::Heap, 1) => {
                self.segment_serial::<EventQueue<MachineEvent>>(pending, from_ms, ms)
            }
            (QueueKind::Calendar, 1) => {
                self.segment_serial::<CalendarQueue<MachineEvent>>(pending, from_ms, ms)
            }
            (QueueKind::Heap, t) => {
                self.segment_parallel::<EventQueue<MachineEvent>>(pending, from_ms, ms, t)
            }
            (QueueKind::Calendar, t) => {
                self.segment_parallel::<CalendarQueue<MachineEvent>>(pending, from_ms, ms, t)
            }
        }
    }

    /// The instant a segment starting at `from_ms` resumes from: time
    /// zero for a fresh run, else the previous segment's end boundary.
    fn segment_start_ns(from_ms: u32) -> u64 {
        if from_ms == 0 {
            0
        } else {
            (from_ms as u64 + 1) * MS - 1
        }
    }

    /// The inclusive event horizon of a segment ending at `target_ms`:
    /// one drain millisecond past the last timer tick, stopping one
    /// nanosecond short of the next tick's instant so a later segment
    /// can still interleave its restarted timer by rank.
    fn segment_end_ns(target_ms: u32) -> u64 {
        (target_ms as u64 + 1) * MS - 1
    }

    /// [`NeuralMachine::run_segment`] on one serial engine.
    fn segment_serial<Q: Queue<MachineEvent>>(
        mut self,
        pending: Vec<PendingEvent>,
        from_ms: u32,
        ms: u32,
    ) -> (NeuralMachine, Vec<PendingEvent>) {
        let target = from_ms + ms;
        self.duration_ms = target;
        self.rebuild_timer_cores();
        // Fresh segment-scoped telemetry: the previous segment's handles
        // were absorbed at its end, and the auto trace cap must be
        // re-resolved against whatever is loaded *now*.
        self.install_observability(0);
        let stimuli = std::mem::take(&mut self.stimuli);
        let faults = std::mem::take(&mut self.fault_plan);
        let repairs = std::mem::take(&mut self.repair_plan);
        let start = Self::segment_start_ns(from_ms);
        let mut engine: Engine<NeuralMachine, Q> = Engine::resume_at(self, SimTime::new(start));
        // The queue snapshot goes back first (Queue::restore resets the
        // insertion counter, so a restored queue replays like the one it
        // was drained from), then the timer restart and the newly queued
        // stimuli/faults — all ordered by content rank, never by which
        // call staged them.
        engine.restore_events(
            pending
                .into_iter()
                .map(|p| (SimTime::new(p.at_ns), Self::tie_rank(&p.event), p.event))
                .collect(),
        );
        engine.schedule_at(SimTime::new((from_ms as u64 + 1) * MS), MachineEvent::Timer);
        for (t, chip, key) in stimuli {
            engine.schedule_at(SimTime::new(t), MachineEvent::InjectSpike { chip, key });
        }
        for (t, chip, dir) in faults {
            engine.schedule_at(SimTime::new(t), MachineEvent::FailLink { chip, dir });
        }
        for (t, chip, dir) in repairs {
            engine.schedule_at(SimTime::new(t), MachineEvent::RepairLink { chip, dir });
        }
        engine.run_until(SimTime::new(Self::segment_end_ns(target)));
        let queue_peak = engine.queue_peak() as u64;
        let (mut m, drained) = engine.into_parts();
        let pending_out = canonical_pending(vec![drained]);
        m.obs.counters().gauge_max(Counter::QueuePeak, queue_peak);
        let mut telemetry = std::mem::take(&mut m.telemetry);
        telemetry.absorb(&mut m.obs);
        m.telemetry = telemetry;
        m.finalize();
        (m, pending_out)
    }

    /// The shard count a run request actually gets: clamped to `[1,
    /// chips]`, and — unless [`MachineConfig::force_shards`] asks
    /// otherwise — to the host's parallelism. Shards exist to occupy
    /// cores; more of them than cores buys no parallelism yet still
    /// pays the window/exchange machinery, and results are
    /// shard-count-invariant, so the collapse is free. Public so
    /// benchmark rows can record the post-clamp parallelism honestly
    /// next to the requested one.
    pub fn effective_threads(&self, threads: usize) -> usize {
        let threads = threads.clamp(1, self.cfg.chips());
        if self.cfg.force_shards {
            threads
        } else {
            threads.min(std::thread::available_parallelism().map_or(1, |p| p.get()))
        }
    }

    /// Event-weighted contiguous chip partition.
    ///
    /// Chip weights come from *measured* load when available — the
    /// per-chip event counts accumulated by every previous segment —
    /// because activity (which chips the spike traffic actually hammers)
    /// is what the partition has to balance, and no static estimate
    /// predicts it. A fresh machine falls back to a structural estimate:
    /// every mapped neuron costs a tick event per millisecond and every
    /// synapse feeds the packet/DMA/row-walk path in proportion to
    /// activity, while empty chips only see the coalesced timer scan.
    /// The dense chip-id axis is cut where the *cumulative weight*
    /// crosses equal shares — row-major neighbours still land on the
    /// same shard (small barrier exchanges), but a mapping whose hot
    /// region sits on a prefix of the mesh no longer serializes behind
    /// shard 0 the way fixed-size chip blocks did.
    fn event_weighted_owner(&self, threads: usize) -> Vec<u32> {
        let chips = self.cfg.chips();
        debug_assert!(threads >= 2 && threads <= chips);
        let per = self.cfg.cores_per_chip as usize;
        // Floor of 16 per chip: timer scans keep even empty chips
        // slightly warm, and a nonzero floor keeps the split total-order
        // stable when whole regions are unmapped.
        let mut weight = vec![16u64; chips];
        let measured: u64 = self.chip_events.iter().sum();
        if measured >= 1024 {
            for (w, &n) in weight.iter_mut().zip(&self.chip_events) {
                *w += n;
            }
        } else {
            for (idx, slot) in self.cores.iter().enumerate() {
                if let Some(core) = slot.as_ref() {
                    weight[idx / per] +=
                        core.neurons.len() as u64 + core.matrix.total_synapses() / 64;
                }
            }
        }
        // The DP below is O(shards · B²) with a B² flux matrix over the
        // cut axis. Exact per-chip resolution is affordable to ~1k
        // chips; beyond that the dense-id axis is grouped into at most
        // 1024 contiguous *blocks* (cuts then land on block edges —
        // plenty for balancing, since any shard spans many blocks). At
        // or below 1024 chips the stride is 1 and the partition is
        // bit-identical to the exact DP; a 65k-chip mesh costs a
        // 1024-block DP instead of a 4-billion-entry flux matrix.
        let stride = chips.div_ceil(1024).min((chips / threads).max(1)).max(1);
        let nb = chips.div_ceil(stride);
        debug_assert!(nb >= threads);
        let mut bweight = vec![0u64; nb];
        for (chip, w) in weight.iter().enumerate() {
            bweight[chip / stride] += *w;
        }
        let total = bweight.iter().sum::<u64>().max(1) as f64;
        // Dynamic program over cut positions. Two costs compete:
        //
        //  * imbalance, as the sum of squared shard shares (1/threads
        //    each when perfectly balanced, approaching 1 when one shard
        //    eats everything), and
        //  * measured cross-shard traffic: every link hop recorded in
        //    `link_flux` whose endpoints land on different shards. A
        //    hop kept inside a shard is one queue push; the same hop
        //    across shards pays the outbox/mailbox exchange *and* — far
        //    worse — couples the two shards' conservative horizons, so
        //    they advance in lookahead-sized windows instead of running
        //    free. `CROSS_HOP_COST` is that measured machinery ratio:
        //    splitting a hot cluster (~2k extra cross hops on the 100k
        //    phase-breakdown net) multiplied windows 15x, i.e. each
        //    cross hop dragged in window machinery worth hundreds of
        //    local events.
        //
        // When the load is spread out, cut position barely moves the
        // (roughly uniform) cross traffic, so the quadratic term decides
        // and the cuts balance the shards; when one chatty cluster
        // dominates (a stimulus hot spot no shard count can split), the
        // flux term keeps the cluster intact on one shard, where the
        // per-shard horizon lets it run ahead of its idle neighbours
        // instead of barrier-stepping against them. Before any traffic
        // is measured the flux matrix is all zero and the DP degenerates
        // to pure load balancing.
        const CROSS_HOP_COST: f64 = 256.0;
        let torus = *self.fabric.torus();
        // Block-to-block hop counts, then 2-D prefix sums so the
        // traffic *inside* a contiguous block range is O(1) per DP
        // transition: intra[a..b) = F[b][b] - F[a][b] - F[b][a] + F[a][a].
        let mut flux = vec![0u64; nb * nb];
        for node in 0..chips {
            for port in 0..6 {
                let hops = self.link_flux[node * 6 + port];
                if hops > 0 {
                    let from = torus
                        .id_of(torus.neighbour(torus.coord_of(node), Direction::from_index(port)));
                    flux[(from / stride) * nb + node / stride] += hops;
                }
            }
        }
        let flux_total: u64 = flux.iter().sum();
        let mut fpre = vec![0.0f64; (nb + 1) * (nb + 1)];
        for i in 0..nb {
            for j in 0..nb {
                fpre[(i + 1) * (nb + 1) + (j + 1)] = flux[i * nb + j] as f64
                    + fpre[i * (nb + 1) + (j + 1)]
                    + fpre[(i + 1) * (nb + 1) + j]
                    - fpre[i * (nb + 1) + j];
            }
        }
        let intra = |a: usize, b: usize| {
            fpre[b * (nb + 1) + b] - fpre[a * (nb + 1) + b] - fpre[b * (nb + 1) + a]
                + fpre[a * (nb + 1) + a]
        };
        // Cross traffic = total - sum of intra-shard traffic, so the DP
        // equivalently *rewards* each shard's internal flux.
        let flux_gain = |a: usize, b: usize| {
            if flux_total == 0 {
                0.0
            } else {
                CROSS_HOP_COST * intra(a, b) / total
            }
        };
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(bweight.iter().scan(0u64, |acc, &w| {
                *acc += w;
                Some(*acc as f64)
            }))
            .collect();
        let share = |a: usize, b: usize| (prefix[b] - prefix[a]) / total;
        // dp[s][c]: best cost splitting blocks [0, c) into s+1 shards,
        // each non-empty. Ties break toward the earliest cut, which is
        // deterministic — the partition is part of no result, but a
        // reproducible one keeps run traces comparable.
        let mut dp = vec![vec![f64::INFINITY; nb + 1]; threads];
        let mut cut_at = vec![vec![0usize; nb + 1]; threads];
        #[allow(clippy::needless_range_loop)] // indexes two tables in lockstep
        for c in 1..=nb {
            dp[0][c] = share(0, c) * share(0, c) - flux_gain(0, c);
        }
        for s in 1..threads {
            for c in (s + 1)..=nb {
                let mut best = f64::INFINITY;
                let mut best_b = s;
                #[allow(clippy::needless_range_loop)] // reads dp[s-1][b], not an iterable
                for b in s..c {
                    let sh = share(b, c);
                    let cost = dp[s - 1][b] + sh * sh - flux_gain(b, c);
                    if cost < best {
                        best = cost;
                        best_b = b;
                    }
                }
                dp[s][c] = best;
                cut_at[s][c] = best_b;
            }
        }
        let mut owner = vec![0u32; chips];
        let mut end = nb;
        for s in (1..threads).rev() {
            let start = cut_at[s][end];
            for o in owner
                .iter_mut()
                .take((end * stride).min(chips))
                .skip(start * stride)
            {
                *o = s as u32;
            }
            end = start;
        }
        owner
    }

    /// [`NeuralMachine::run_segment`] sharded across worker threads.
    fn segment_parallel<Q: Queue<MachineEvent> + Send>(
        mut self,
        pending: Vec<PendingEvent>,
        from_ms: u32,
        ms: u32,
        threads: usize,
    ) -> (NeuralMachine, Vec<PendingEvent>) {
        debug_assert!(threads >= 2);
        let target = from_ms + ms;
        let lookahead = self.cfg.fabric.min_remote_delay_ns().max(1);
        // One shard per requested thread; `spinn-par` maps shards onto
        // at most as many workers as the host has cores.
        let owner = self.event_weighted_owner(threads);
        let stimuli = std::mem::take(&mut self.stimuli);
        let faults = std::mem::take(&mut self.fault_plan);
        let repairs = std::mem::take(&mut self.repair_plan);
        // Results accumulated by earlier segments are carried across the
        // shard split and merged back afterwards (fabric/router state
        // rides inside the cloned fabric instead).
        let carry_spikes = std::mem::take(&mut self.spikes);
        let carry_meter = std::mem::replace(&mut self.meter, EnergyMeter::new());
        let carry_latency = std::mem::replace(&mut self.spike_latency, Histogram::new(4000, 250));
        let carry_reissued = self.reissued_packets;
        let carry_writebacks = self.weight_writebacks;
        let mut carry_telemetry = std::mem::take(&mut self.telemetry);
        let carry_chip_events = std::mem::take(&mut self.chip_events);
        let carry_link_flux = std::mem::take(&mut self.link_flux);
        let carry_par = self.par_stats.take();
        let dma_free_at = self.dma_free_at.clone();
        let cfg = self.cfg;
        let per = cfg.cores_per_chip as usize;
        let mut shards: Vec<NeuralMachine> = (0..threads)
            .map(|s| {
                let mut m = NeuralMachine::new(cfg);
                m.fabric = self.fabric.clone();
                m.fabric
                    .set_partition(Partition::new(owner.clone(), s as u32));
                m.stdp = self.stdp;
                m.duration_ms = target;
                m.dma_free_at = dma_free_at.clone();
                m
            })
            .collect();
        for (idx, slot) in self.cores.iter_mut().enumerate() {
            if let Some(core) = slot.take() {
                shards[owner[idx / per] as usize].cores[idx] = Some(core);
            }
        }
        for (s, m) in shards.iter_mut().enumerate() {
            // Each shard's coalesced timer services exactly its owned
            // loaded cores; the shard-scoped telemetry handles replace
            // the ones `new` wired up against the replaced fabric —
            // both only computable now that the cores have moved in,
            // and both needed before the engines are built (which
            // capture the phase probe).
            m.rebuild_timer_cores();
            m.install_observability(s as u32);
        }

        let start = Self::segment_start_ns(from_ms);
        let mut par: ParEngine<NeuralMachine, Q> =
            ParEngine::resume_in(shards, SimTime::new(start));
        for shard in 0..threads {
            par.schedule(
                shard,
                SimTime::new((from_ms as u64 + 1) * MS),
                MachineEvent::Timer,
            );
        }
        // Carried-over events go to the shard owning their chip; events
        // that mutate replicated state (link failures, the coalesced
        // timer) are broadcast, exactly as a fresh schedule would be.
        for p in pending {
            let at = SimTime::new(p.at_ns);
            match event_chip(&p.event) {
                Some(chip) => par.schedule(owner[chip as usize] as usize, at, p.event),
                None => {
                    for shard in 0..threads {
                        par.schedule(shard, at, p.event);
                    }
                }
            }
        }
        for (t, chip, key) in stimuli {
            par.schedule(
                owner[chip as usize] as usize,
                SimTime::new(t),
                MachineEvent::InjectSpike { chip, key },
            );
        }
        // Link failures and repairs mutate every shard's fabric replica:
        // broadcast the schedules so all replicas stay consistent at `t`.
        for (t, chip, dir) in faults {
            for shard in 0..threads {
                par.schedule(shard, SimTime::new(t), MachineEvent::FailLink { chip, dir });
            }
        }
        for (t, chip, dir) in repairs {
            for shard in 0..threads {
                par.schedule(
                    shard,
                    SimTime::new(t),
                    MachineEvent::RepairLink { chip, dir },
                );
            }
        }
        par.run_until(SimTime::new(Self::segment_end_ns(target)), lookahead);
        let stats = par.stats().clone();
        let queue_peaks = par.queue_peaks();

        let mut parts = par.into_parts().into_iter();
        let (mut base, first_drained) = parts.next().expect("threads >= 2");
        base.obs
            .counters()
            .gauge_max(Counter::QueuePeak, queue_peaks[0] as u64);
        carry_telemetry.absorb(&mut base.obs);
        let mut drained = vec![first_drained];
        for (i, (mut m, d)) in parts.enumerate() {
            m.obs
                .counters()
                .gauge_max(Counter::QueuePeak, queue_peaks[i + 1] as u64);
            carry_telemetry.absorb(&mut m.obs);
            base.fabric.adopt_owned(&mut m.fabric, (i + 1) as u32);
            for (idx, slot) in m.cores.iter_mut().enumerate() {
                if let Some(core) = slot.take() {
                    base.cores[idx] = Some(core);
                }
            }
            base.spikes.extend(m.spikes);
            base.meter.merge(&m.meter);
            base.spike_latency.merge(&m.spike_latency);
            base.reissued_packets += m.reissued_packets;
            base.weight_writebacks += m.weight_writebacks;
            for (a, b) in base.chip_events.iter_mut().zip(&m.chip_events) {
                *a += *b;
            }
            for (a, b) in base.link_flux.iter_mut().zip(&m.link_flux) {
                *a += *b;
            }
            // Only a chip's owner advances its DMA port clock; everyone
            // else still holds the segment-start value.
            for (a, b) in base.dma_free_at.iter_mut().zip(&m.dma_free_at) {
                *a = (*a).max(*b);
            }
            drained.push(d);
        }
        base.fabric.clear_partition();
        base.duration_ms = target;
        // Window counters accumulate across segments (rebalance epochs
        // included), like every other run statistic.
        base.par_stats = Some(match carry_par {
            Some(prev) => spinn_par::ParStats {
                windows: prev.windows + stats.windows,
                events: prev.events + stats.events,
                exchanged: prev.exchanged + stats.exchanged,
            },
            None => stats,
        });
        base.rebuild_timer_cores();
        for (a, b) in base.chip_events.iter_mut().zip(&carry_chip_events) {
            *a += *b;
        }
        for (a, b) in base.link_flux.iter_mut().zip(&carry_link_flux) {
            *a += *b;
        }
        base.spikes.extend(carry_spikes);
        base.meter.merge(&carry_meter);
        base.spike_latency.merge(&carry_latency);
        base.reissued_packets += carry_reissued;
        base.weight_writebacks += carry_writebacks;
        base.telemetry = carry_telemetry;
        let pending_out = canonical_pending(drained);
        base.finalize();
        (base, pending_out)
    }

    /// All recorded spikes, in canonical `(time_ms, key)` order.
    pub fn spikes(&self) -> &[SpikeRecord] {
        &self.spikes
    }

    /// Drains the recorded spikes, leaving the machine's recording
    /// buffer empty — the per-job readout of warm multi-run serving
    /// (one resident machine, many [`NeuralMachine::run_segment`]
    /// calls). Note that drained spikes are gone from later
    /// checkpoints.
    pub fn take_spikes(&mut self) -> Vec<SpikeRecord> {
        std::mem::take(&mut self.spikes)
    }

    /// Histogram of spike fabric latency (injection to core delivery),
    /// ns.
    pub fn spike_latency(&self) -> &Histogram {
        &self.spike_latency
    }

    /// Total real-time violations (timer ticks that arrived while the
    /// previous tick was still being processed).
    pub fn realtime_violations(&self) -> u64 {
        self.cores.iter().flatten().map(|c| c.overruns).sum()
    }

    /// Packets whose synaptic row was missing (mapping errors).
    pub fn row_misses(&self) -> u64 {
        self.cores.iter().flatten().map(|c| c.row_misses).sum()
    }

    /// The energy meter (populated by [`NeuralMachine::run`]).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Wall-clock duration of the completed run, ns.
    pub fn duration_ns(&self) -> u64 {
        self.duration_ms as u64 * MS
    }

    /// Aggregated router statistics.
    pub fn router_stats(&self) -> RouterStats {
        self.fabric.total_stats()
    }

    /// Per-chip memory occupancy and drop counters: loaded cores, DTCM
    /// bytes in use (against `cores × 64 KB`), synaptic-arena SDRAM
    /// bytes in use (against the chip's shared SDRAM) and packets the
    /// chip's router dropped. The run report and the benchmark
    /// pipeline's structured occupancy section both read from here.
    pub fn chip_occupancy(&self) -> Vec<ChipOccupancy> {
        let per = self.cfg.cores_per_chip as usize;
        (0..self.cfg.chips())
            .map(|chip| {
                let coord = self.fabric.torus().coord_of(chip);
                let mut occ = ChipOccupancy {
                    chip: coord,
                    loaded_cores: 0,
                    dtcm_bytes: 0,
                    dtcm_capacity: (per.saturating_sub(1) as u64) * self.cfg.dtcm_bytes as u64,
                    sdram_bytes: 0,
                    sdram_capacity: self.cfg.sdram_bytes,
                    dropped_packets: self.fabric.router(coord).stats.dropped,
                };
                for c in self.cores[chip * per..(chip + 1) * per].iter().flatten() {
                    occ.loaded_cores += 1;
                    occ.dtcm_bytes += c.dtcm_bytes() as u64;
                    occ.sdram_bytes += c.matrix.sdram_bytes();
                }
                occ
            })
            .collect()
    }

    /// Whole-machine SDRAM in use by synaptic matrices, bytes (the sum
    /// of every core's arena — must equal the loader's total).
    pub fn total_sdram_bytes(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.sdram_bytes())
            .sum()
    }

    /// Whole-machine *host-resident* synaptic bytes: arenas, row
    /// tables, key blocks and compressed lazy recipes actually held in
    /// memory. For a lazily loaded machine this is far below
    /// [`NeuralMachine::total_sdram_bytes`] (the modelled DMA
    /// footprint) until spikes touch rows.
    pub fn total_resident_bytes(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.resident_bytes())
            .sum()
    }

    /// Whole-machine count of synaptic rows still stored compressed
    /// (generator recipe only, no materialized words). Falls as DMA
    /// touches materialize rows during a run.
    pub fn total_lazy_rows(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.lazy_rows())
            .sum()
    }

    /// Whole-machine synapse count across every loaded core's matrix.
    pub fn total_synapses(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.total_synapses())
            .sum()
    }

    /// Direct fabric access (advanced inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    // ------------------------------------------------------------------

    fn core_index(&self, chip: NodeCoord, core: u8) -> usize {
        self.fabric.torus().id_of(chip) * self.cfg.cores_per_chip as usize + core as usize
    }

    fn finalize(&mut self) {
        // Canonical spike order: `(time_ms, key)` is unique (a neuron
        // fires at most once per tick), so serial and sharded runs
        // produce bit-identical streams whenever they record the same
        // spikes.
        self.spikes.sort_unstable_by_key(|s| (s.time_ms, s.key));
        let duration = self.duration_ns();
        let loaded = self.cores.iter().flatten().count() as u64;
        let busy = self.meter.core_active_ns;
        self.meter.core_sleep_ns = (loaded * duration).saturating_sub(busy);
        self.meter.chip_overhead_ns = self.cfg.chips() as u64 * duration;
        let stats = self.fabric.total_stats();
        self.meter.packets_routed =
            stats.mc_table_hits + stats.mc_default_routed + stats.p2p_forwarded;
    }

    fn charge(&mut self, instructions: u64) -> u64 {
        self.meter.instructions += instructions;
        let ns = self.cfg.instr_ns(instructions);
        self.meter.core_active_ns += ns;
        ns
    }

    fn dispatch(&mut self, chip: u32, core: u8, ctx: &mut Context<MachineEvent>) {
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        if c.current.is_some() {
            return;
        }
        let costs = self.cfg.costs;
        // Priority: packet received > DMA complete > timer (Fig. 7).
        if let Some(key) = c.q_packets.pop_front() {
            c.current = Some(WorkItem::Packet(key));
            let ns = self.charge(costs.packet_isr_instr);
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        } else if let Some(row) = c.q_rows.pop_front() {
            let len = c.matrix.row_len(row) as u64;
            c.current = Some(WorkItem::Row(row));
            let ns = self.charge(costs.dma_isr_instr + costs.per_synapse_instr * len);
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        } else if c.timer_pending > 0 {
            c.timer_pending -= 1;
            // Advance the neural dynamics now; emit the spikes when the
            // handler's compute time has elapsed. The ring-slot snapshot
            // reuses a machine-level buffer (allocation-free per tick).
            let tick_ms = (ctx.now().ticks() / MS) as u32;
            let mut inputs = std::mem::take(&mut self.tick_inputs);
            let c = self.cores[idx].as_mut().expect("checked above");
            inputs.clear();
            inputs.extend_from_slice(c.ring.tick());
            debug_assert!(c.pending_spikes.is_empty());
            // The SoA pool walks flat state arrays; the split borrow
            // keeps the spike/bias buffers out of the pool's way.
            let AppCore {
                neurons,
                bias_na,
                pending_spikes,
                last_post_ms,
                base_key,
                ..
            } = &mut **c;
            let base_key = *base_key;
            let tok = self.obs.phases().start();
            neurons.step_tick(
                |i| bias_na[i] + inputs[i] as f32 / 256.0,
                |i| {
                    pending_spikes.push(base_key + i as u32);
                    last_post_ms[i] = tick_ms as f64;
                },
            );
            self.obs.phases().record(Phase::NeuronTick, tok);
            c.spikes_emitted += c.pending_spikes.len() as u64;
            let n_neurons = c.neurons.len() as u64;
            let n_spikes = c.pending_spikes.len() as u64;
            self.obs.counters().add(Counter::NeuronsTicked, n_neurons);
            self.obs.counters().add(Counter::Spikes, n_spikes);
            c.current = Some(WorkItem::Timer);
            let now_ns = ctx.now().ticks();
            let tracing = self.obs.tracing();
            let c = self.cores[idx].as_ref().expect("checked above");
            for &key in &c.pending_spikes {
                self.spikes.push(SpikeRecord {
                    time_ms: tick_ms,
                    key,
                });
                if tracing {
                    self.obs.trace(now_ns, TraceKind::Spike, key, tick_ms);
                }
            }
            self.tick_inputs = inputs;
            let ns = self.charge(
                costs.timer_fixed_instr
                    + costs.per_neuron_instr * n_neurons
                    + costs.spike_emit_instr * n_spikes,
            );
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        }
        // Else: nothing to do — wait-for-interrupt sleep.
    }

    fn on_core_done(&mut self, chip: u32, core: u8, ctx: &mut Context<MachineEvent>) {
        let now = ctx.now().ticks();
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        match c.current.take() {
            Some(WorkItem::Packet(key)) => {
                // Master-population-table lookup: binary search over
                // the (key, mask) entries, neuron bits select the row.
                if let Some(row) = c.matrix.lookup(key) {
                    let bytes = c.matrix.row_bytes(row) as u64;
                    // The DMA controller transfers in the background; the
                    // chip's SDRAM port serializes transfers.
                    let start = now.max(self.dma_free_at[chip as usize]);
                    let done = start + self.cfg.dma_ns(bytes);
                    self.dma_free_at[chip as usize] = done;
                    self.meter.sdram_bytes += bytes;
                    self.obs.counters().add(Counter::DmaBytes, bytes);
                    ctx.schedule_at(
                        SimTime::new(done),
                        MachineEvent::DmaDone { chip, core, key },
                    );
                } else {
                    c.row_misses += 1;
                }
            }
            Some(WorkItem::Row(row)) => {
                let stdp = self.stdp;
                let now_ms = now as f64 / MS as f64;
                let mut writeback_bytes = None;
                let row_events = c.matrix.row_len(row) as u64;
                let tok = self.obs.phases().start();
                {
                    let mut modified = false;
                    if let Some(p) = stdp {
                        // Deferred pair-based STDP, applied at row fetch
                        // (pre-spike time): depress against the target's
                        // most recent post-spike; potentiate the
                        // *previous* pre-spike against any post that
                        // followed it. Weights are rewritten in place in
                        // the arena, as on hardware.
                        let last_pre =
                            std::mem::replace(&mut c.row_last_pre_ms[row as usize], now_ms);
                        let last_post_ms = &c.last_post_ms;
                        // `ensure_row_mut`: a lazily stored row is
                        // materialized on this first write touch, so
                        // STDP keeps rewriting arena words in place.
                        for w in c.matrix.ensure_row_mut(row) {
                            let n = w.target() as usize;
                            let last_post = last_post_ms[n];
                            let mut dw = 0i16;
                            if last_post.is_finite() && last_post <= now_ms {
                                let dt = (now_ms - last_post) as f32;
                                dw -= (p.a_minus * (-dt / p.tau_minus_ms).exp()).round() as i16;
                            }
                            if last_post.is_finite() && last_pre.is_finite() && last_post > last_pre
                            {
                                let dt = (last_post - last_pre) as f32;
                                dw += (p.a_plus * (-dt / p.tau_plus_ms).exp()).round() as i16;
                            }
                            if dw != 0 {
                                let updated = apply_bounded(w.weight_raw(), dw, &p);
                                if updated != w.weight_raw() {
                                    *w = w.with_weight_raw(updated);
                                    modified = true;
                                }
                            }
                        }
                    }
                    if modified {
                        c.dirty_rows.push(row);
                    }
                    let AppCore { matrix, ring, .. } = &mut **c;
                    // The DMA touch: a compressed (lazily stored) row is
                    // regenerated into the arena here, on first fetch.
                    for w in matrix.ensure_row(row) {
                        ring.deposit(w.delay_ms(), w.target() as usize, w.weight_raw() as i32);
                    }
                    if modified {
                        writeback_bytes = Some(matrix.row_bytes(row) as u64);
                    }
                }
                self.obs.phases().record(Phase::RowWalk, tok);
                self.obs.counters().add(Counter::SynapticEvents, row_events);
                if let Some(bytes) = writeback_bytes {
                    // §5.3: modified connectivity data is DMAed back.
                    self.weight_writebacks += 1;
                    self.meter.sdram_bytes += bytes;
                    self.obs.counters().add(Counter::DmaBytes, bytes);
                    let start = now.max(self.dma_free_at[chip as usize]);
                    self.dma_free_at[chip as usize] = start + self.cfg.dma_ns(bytes);
                }
            }
            Some(WorkItem::Timer) => {
                // The comms controller serializes packet emission: spikes
                // leave one per emit interval, not as an instantaneous
                // burst (which would overflow the output link queue).
                let gap = self.cfg.instr_ns(self.cfg.costs.spike_emit_instr).max(1);
                for (i, &key) in c.pending_spikes.iter().enumerate() {
                    ctx.schedule_in(i as u64 * gap, MachineEvent::InjectSpike { chip, key });
                }
                // Clear (not take): the buffer's capacity is reused on
                // the next tick.
                c.pending_spikes.clear();
            }
            None => {}
        }
        self.dispatch(chip, core, ctx);
    }

    /// The coalesced 1 ms timer: services every *loaded* core in
    /// `self.timer_cores` in ascending `(chip, core)` order — the same
    /// order per-chip timer events used to pop in (their tie rank was
    /// the chip id, then cores ascending within the chip), so the
    /// replay is bit-identical while the per-tick cost tracks loaded
    /// cores, not mesh size: a million-core mesh with ten loaded cores
    /// pays for ten, not for 1.3 M empty `Option` probes.
    fn on_timer(&mut self, ctx: &mut Context<MachineEvent>) {
        let tick_ms = ctx.now().ticks() / MS;
        for i in 0..self.timer_cores.len() {
            let (chip, core) = self.timer_cores[i];
            let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
            if let Some(c) = self.cores[idx].as_mut() {
                c.timer_pending += 1;
                if c.timer_pending > 1 {
                    // The previous tick has not even started: a
                    // real-time violation.
                    c.overruns += 1;
                }
                self.dispatch(chip, core, ctx);
            }
        }
        if tick_ms < self.duration_ms as u64 {
            ctx.schedule_in(MS, MachineEvent::Timer);
        }
    }

    fn drain_deliveries(&mut self, now: u64, ctx: &mut Context<MachineEvent>) {
        // §5.3: the monitor is informed of dropped packets and "can
        // recover the packet and re-issue it if appropriate". The 2-bit
        // timestamp field bounds the retries. Drains swap reusable
        // buffers with the fabric, so polling is allocation-free.
        let mut dropped_buf = std::mem::take(&mut self.dropped_scratch);
        self.fabric.swap_dropped(&mut dropped_buf);
        for dropped in dropped_buf.drain(..) {
            if self.obs.tracing() {
                let chip = self.fabric.torus().id_of(dropped.node) as u32;
                self.obs
                    .trace(dropped.time_ns, TraceKind::Drop, dropped.packet.key, chip);
            }
            if dropped.packet.kind == PacketKind::Multicast && dropped.packet.timestamp < 3 {
                let chip = self.fabric.torus().id_of(dropped.node) as u32;
                ctx.schedule_in(
                    20_000,
                    MachineEvent::ReissueSpike {
                        chip,
                        key: dropped.packet.key,
                        timestamp: dropped.packet.timestamp + 1,
                    },
                );
            }
        }
        self.dropped_scratch = dropped_buf;
        let _ = now;
        let now = ctx.now().ticks();
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.fabric.swap_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            if d.packet.kind != PacketKind::Multicast {
                continue; // p2p/nn system traffic is not used mid-run
            }
            self.obs.trace(now, TraceKind::Packet, d.packet.key, d.hops);
            self.spike_latency.record(now - d.injected_at_ns);
            self.meter.packet_hops += d.hops as u64;
            let chip = self.fabric.torus().id_of(d.node) as u32;
            for core in 1..self.cfg.cores_per_chip {
                if d.cores & (1 << core) != 0 {
                    let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
                    if let Some(c) = self.cores[idx].as_mut() {
                        c.q_packets.push_back(d.packet.key);
                        self.dispatch(chip, core, ctx);
                    }
                }
            }
        }
        self.delivery_scratch = deliveries;
    }
}

impl ShardModel for NeuralMachine {
    fn drain_outbox(&mut self) -> Vec<RemoteEvent<MachineEvent>> {
        self.fabric
            .take_remote()
            .into_iter()
            .map(|(at, dest, ev)| RemoteEvent {
                at: SimTime::new(at),
                dest: dest as usize,
                event: MachineEvent::Noc(ev),
            })
            .collect()
    }
}

impl Model for NeuralMachine {
    type Event = MachineEvent;

    fn phase_probe(&self) -> PhaseProbe {
        self.obs.phases().clone()
    }

    /// Content-derived same-instant ordering.
    ///
    /// Two events scheduled for the same nanosecond are handled in rank
    /// order rather than insertion order. Deriving the rank from the
    /// event's content makes the order identical between the serial
    /// engine and a sharded run — cross-shard arrivals are inserted at
    /// window barriers, so their insertion order differs, but their
    /// content does not. Events with equal rank at the same instant are
    /// identical packets (or duplicate interrupts) and commute.
    fn tie_rank(ev: &MachineEvent) -> u128 {
        // Layout: [tag:8 | a:56 | b:64].
        fn pack(tag: u8, a: u64, b: u64) -> u128 {
            ((tag as u128) << 120) | (((a & 0x00FF_FFFF_FFFF_FFFF) as u128) << 64) | b as u128
        }
        // The low 64 wire bits carry header + key + 24 payload bits;
        // multicast spikes (the only mid-run traffic) fit entirely, so
        // bits 56.. are free for the hop count.
        fn packet_bits(f: &spinn_noc::fabric::InFlight) -> u64 {
            (f.packet.encode() as u64 & 0x00FF_FFFF_FFFF_FFFF) | ((f.hops as u64) << 56)
        }
        match ev {
            MachineEvent::Noc(NocEvent::Arrive { node, port, flight }) => {
                pack(1, ((*node as u64) << 8) | *port as u64, packet_bits(flight))
            }
            MachineEvent::Noc(NocEvent::LinkFree { node, dir }) => {
                pack(2, ((*node as u64) << 8) | *dir as u64, 0)
            }
            MachineEvent::Noc(NocEvent::Retry {
                node,
                dir,
                phase,
                left,
                flight,
            }) => pack(
                3,
                ((*node as u64) << 24)
                    | ((*dir as u64) << 16)
                    | ((*phase as u64) << 8)
                    | *left as u64,
                packet_bits(flight),
            ),
            // Link failures and repairs sort before all same-instant
            // traffic (tag 0) so a packet routed at exactly the
            // transition time sees the new link state in serial and
            // sharded runs alike. A repair at the same instant as a
            // failure of the same cable ranks after it (b = 1): the link
            // ends the nanosecond repaired, deterministically.
            MachineEvent::FailLink { chip, dir } => pack(0, ((*chip as u64) << 8) | *dir as u64, 0),
            MachineEvent::RepairLink { chip, dir } => {
                pack(0, ((*chip as u64) << 8) | *dir as u64, 1)
            }
            MachineEvent::Timer => pack(4, 0, 0),
            MachineEvent::CoreDone { chip, core } => {
                pack(5, ((*chip as u64) << 8) | *core as u64, 0)
            }
            MachineEvent::DmaDone { chip, core, key } => {
                pack(6, ((*chip as u64) << 8) | *core as u64, *key as u64)
            }
            MachineEvent::InjectSpike { chip, key } => pack(7, *chip as u64, *key as u64),
            MachineEvent::ReissueSpike {
                chip,
                key,
                timestamp,
            } => pack(8, ((*chip as u64) << 8) | *timestamp as u64, *key as u64),
        }
    }

    fn handle(&mut self, ctx: &mut Context<MachineEvent>, ev: MachineEvent) {
        let now = ctx.now().ticks();
        self.obs.counters().add(Counter::Events, 1);
        if let Some(chip) = event_chip(&ev) {
            // Measured per-chip load, seeding the next segment's
            // event-weighted partition.
            self.chip_events[chip as usize] += 1;
        }
        match ev {
            MachineEvent::Noc(ev) => {
                if let NocEvent::Arrive { node, port, .. } = &ev {
                    self.link_flux[*node as usize * 6 + *port as usize] += 1;
                }
                let tok = self.obs.phases().start();
                self.fabric
                    .handle(now, ev, &mut CtxScheduler::new(ctx, MachineEvent::Noc));
                self.obs.phases().record(Phase::RouterLookup, tok);
            }
            MachineEvent::Timer => self.on_timer(ctx),
            MachineEvent::FailLink { chip, dir } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.fail_link(coord, dir);
                self.obs
                    .trace(now, TraceKind::Fault, chip, dir.index() as u32);
            }
            MachineEvent::RepairLink { chip, dir } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.repair_link(coord, dir);
                self.obs
                    .trace(now, TraceKind::Repair, chip, dir.index() as u32);
            }
            MachineEvent::CoreDone { chip, core } => self.on_core_done(chip, core, ctx),
            MachineEvent::DmaDone { chip, core, key } => {
                let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
                if let Some(c) = self.cores[idx].as_mut() {
                    // The row existed when the DMA was scheduled and
                    // rows are never removed mid-run, so the lookup
                    // re-resolves to the same row.
                    if let Some(row) = c.matrix.lookup(key) {
                        c.q_rows.push_back(row);
                        self.dispatch(chip, core, ctx);
                    }
                }
            }
            MachineEvent::InjectSpike { chip, key } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.inject(
                    now,
                    coord,
                    Packet::multicast(key),
                    &mut CtxScheduler::new(ctx, MachineEvent::Noc),
                );
            }
            MachineEvent::ReissueSpike {
                chip,
                key,
                timestamp,
            } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                let mut packet = Packet::multicast(key);
                packet.timestamp = timestamp;
                self.reissued_packets += 1;
                self.fabric.inject(
                    now,
                    coord,
                    packet,
                    &mut CtxScheduler::new(ctx, MachineEvent::Noc),
                );
            }
        }
        self.drain_deliveries(now, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::synapse::SynapticWord;
    use spinn_noc::direction::Direction;
    use spinn_noc::table::{McTableEntry, RouteSet};

    fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// Two chips: a driven source population on (0,0) core 1 projecting
    /// to a quiet target population on (1,0) core 1.
    fn two_chip_machine(weight_raw: i16, delay_ms: u8) -> NeuralMachine {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(1, 0);
        m.load_core(src, 1, rs_neurons(10), vec![12.0; 10], 0x1000)
            .unwrap();
        m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
            .unwrap();
        // Route source keys east then into the target core.
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        // All-to-all rows: every source neuron excites every target.
        for i in 0..10u32 {
            let row: SynapticRow = (0..10)
                .map(|t| SynapticWord::new(weight_raw, delay_ms, t as u16))
                .collect();
            m.set_row(dst, 1, 0x1000 + i, row);
        }
        m
    }

    #[test]
    fn driven_population_spikes_and_propagates() {
        let m = two_chip_machine(1200, 1).run(200);
        let src_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x1000)
            .count();
        let dst_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x2000)
            .count();
        assert!(src_spikes > 50, "driven sources must fire: {src_spikes}");
        assert!(
            dst_spikes > 10,
            "targets must be driven to fire: {dst_spikes}"
        );
        assert_eq!(m.row_misses(), 0);
        assert_eq!(m.realtime_violations(), 0);
    }

    #[test]
    fn spike_latency_well_within_one_ms() {
        // §5.3: "The communications fabric is designed to deliver mc
        // packets in significantly under 1 ms, whatever the distance."
        let m = two_chip_machine(800, 1).run(100);
        assert!(m.spike_latency().count() > 0);
        let worst = m.spike_latency().max();
        assert!(
            worst < MS / 10,
            "worst fabric latency {worst} ns not well within 1 ms"
        );
    }

    #[test]
    fn synaptic_delays_shift_response() {
        // With a 10 ms synaptic delay the target's first spike happens
        // later than with 1 ms.
        let first_dst_spike = |delay: u8| {
            let m = two_chip_machine(1500, delay).run(150);
            m.spikes()
                .iter()
                .find(|s| s.key & 0xF000 == 0x2000)
                .map(|s| s.time_ms)
                .expect("target fired")
        };
        let early = first_dst_spike(1);
        let late = first_dst_spike(10);
        assert!(
            late >= early + 5,
            "10 ms delays should shift the response: {early} vs {late}"
        );
    }

    #[test]
    fn no_input_no_spikes_and_cores_sleep() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        m.load_core(NodeCoord::new(0, 0), 1, rs_neurons(50), vec![0.0; 50], 0)
            .unwrap();
        let m = m.run(100);
        assert!(m.spikes().is_empty());
        // The core only runs its timer handler: it must sleep most of
        // the time (energy frugality, §3.3).
        let meter = m.meter();
        assert!(
            meter.core_sleep_ns > 9 * meter.core_active_ns,
            "active {} ns vs sleep {} ns",
            meter.core_active_ns,
            meter.core_sleep_ns
        );
    }

    #[test]
    fn external_stimulus_reaches_target() {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let dst = NodeCoord::new(2, 2);
        m.load_core(dst, 1, rs_neurons(5), vec![0.0; 5], 0x9000)
            .unwrap();
        let row: SynapticRow = (0..5)
            .map(|t| SynapticWord::new(2000, 1, t as u16))
            .collect();
        m.set_row(dst, 1, 0x42, row);
        // Route key 0x42 from (0,0) to (2,2): inject at the destination's
        // own chip for simplicity of the table.
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x42,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        for t in 1..50 {
            m.queue_stimulus(t * MS + 500, dst, 0x42);
        }
        let m = m.run(100);
        assert!(!m.spikes().is_empty(), "stimulated population must fire");
    }

    #[test]
    fn dtcm_overflow_rejected() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let err = m
            .load_core(
                NodeCoord::new(0, 0),
                1,
                rs_neurons(2000),
                vec![0.0; 2000],
                0,
            )
            .unwrap_err();
        assert!(err.required > err.available);
        assert!(err.to_string().contains("DTCM"));
    }

    #[test]
    #[should_panic(expected = "not an application core")]
    fn monitor_core_rejected() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let _ = m.load_core(NodeCoord::new(0, 0), 0, rs_neurons(1), vec![0.0], 0);
    }

    #[test]
    fn eviction_and_migration_preserve_function() {
        // Monitor-style functional migration: move a loaded core to a
        // different chip, fix the routing tables, and the target still
        // fires.
        let mut m = two_chip_machine(1200, 1);
        let dst_old = NodeCoord::new(1, 0);
        let dst_new = NodeCoord::new(0, 1);
        let payload = m.evict_core(dst_old, 1).expect("core was loaded");
        m.install_core(dst_new, 1, payload).unwrap();
        // Re-point the routes: source now sends north.
        let src = NodeCoord::new(0, 0);
        *m.router_mut(src) = spinn_noc::router::Router::new(Default::default());
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::North),
            })
            .unwrap();
        m.router_mut(dst_new)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        let m = m.run(200);
        let dst_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x2000)
            .count();
        assert!(dst_spikes > 10, "migrated core must keep functioning");
    }

    #[test]
    fn determinism() {
        let run = || {
            let m = two_chip_machine(1000, 2).run(100);
            m.spikes().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn segmented_run_is_bit_exact() {
        // run(100) == run_segment(0..37) + run_segment(37..100), with
        // in-flight packets and handler completions carried across the
        // cut in the pending list.
        let whole = two_chip_machine(1200, 3).run(100);
        let (m, pending) = two_chip_machine(1200, 3).run_segment(Vec::new(), 0, 37, 1);
        let (m, _) = m.run_segment(pending, 37, 63, 1);
        assert_eq!(whole.spikes(), m.spikes());
        assert_eq!(
            whole.meter().instructions,
            m.meter().instructions,
            "energy accounting must survive the cut"
        );
        assert_eq!(whole.spike_latency().count(), m.spike_latency().count());
    }

    #[test]
    fn segmented_run_is_bit_exact_across_thread_counts() {
        let whole = two_chip_machine(1200, 1).run(80);
        // Cut at 29 ms; first segment sharded, second serial.
        let (m, pending) = two_chip_machine(1200, 1).run_segment(Vec::new(), 0, 29, 4);
        let (m, _) = m.run_segment(pending, 29, 51, 2);
        assert_eq!(whole.spikes(), m.spikes());
    }

    #[test]
    fn snapshot_restores_bit_exactly_onto_a_fresh_build() {
        let whole = two_chip_machine(1200, 2).run(90);
        let (m, pending) = two_chip_machine(1200, 2).run_segment(Vec::new(), 0, 40, 1);
        let bytes = m.snapshot(&pending);
        // Restore onto a freshly built (identical) machine and finish.
        let mut fresh = two_chip_machine(1200, 2);
        let restored = fresh.install_snapshot(&bytes).expect("snapshot installs");
        assert_eq!(restored.elapsed_ms, 40);
        let (done, _) = fresh.run_segment(restored.pending, 40, 50, 1);
        assert_eq!(whole.spikes(), done.spikes());
        assert_eq!(whole.meter().sdram_bytes, done.meter().sdram_bytes);
    }

    #[test]
    fn snapshot_with_stdp_carries_weight_deltas() {
        let run_with_stdp = || {
            let mut m = two_chip_machine(1500, 1);
            m.enable_stdp(StdpParams::default());
            m
        };
        let whole = run_with_stdp().run(200);
        let (m, pending) = run_with_stdp().run_segment(Vec::new(), 0, 80, 1);
        assert!(m.weight_writebacks() > 0, "plasticity must have fired");
        let bytes = m.snapshot(&pending);
        let mut fresh = run_with_stdp();
        let restored = fresh.install_snapshot(&bytes).unwrap();
        let (done, _) = fresh.run_segment(restored.pending, 80, 120, 1);
        assert_eq!(whole.spikes(), done.spikes());
        // The final weights match too, not just the raster.
        let at = NodeCoord::new(1, 0);
        for target in 0..10u16 {
            assert_eq!(
                whole.weight_of(at, 1, 0x1000, target),
                done.weight_of(at, 1, 0x1000, target)
            );
        }
        assert_eq!(whole.weight_writebacks(), done.weight_writebacks());
    }

    #[test]
    fn snapshot_rejects_out_of_range_event_ids() {
        // A crafted/corrupt snapshot naming a chip the machine does not
        // have must fail at install time, not panic mid-run later.
        let (m, mut pending) = two_chip_machine(1000, 1).run_segment(Vec::new(), 0, 10, 1);
        pending.push(PendingEvent {
            at_ns: 999 * MS,
            event: MachineEvent::InjectSpike { chip: 9999, key: 1 },
        });
        let bytes = m.snapshot(&pending);
        let mut fresh = two_chip_machine(1000, 1);
        assert!(matches!(
            fresh.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Wire(_))
        ));
    }

    #[test]
    fn snapshot_rejects_mismatched_machines() {
        let (m, pending) = two_chip_machine(1000, 1).run_segment(Vec::new(), 0, 10, 1);
        let bytes = m.snapshot(&pending);
        // Different mesh size.
        let mut other = NeuralMachine::new(MachineConfig::new(2, 2));
        assert!(matches!(
            other.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Mismatch(_))
        ));
        // Same config, different cores loaded.
        let mut empty = NeuralMachine::new(MachineConfig::new(4, 4));
        assert!(matches!(
            empty.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Mismatch(_))
        ));
        // Truncated bytes.
        let mut same = two_chip_machine(1000, 1);
        assert!(matches!(
            same.install_snapshot(&bytes[..bytes.len() / 2]),
            Err(crate::snapshot::SnapshotError::Wire(_))
        ));
    }

    #[test]
    fn stdp_potentiates_causal_pathway_and_writes_back() {
        // Driven source reliably precedes target firing (pre -> post):
        // with STDP on, weights should grow toward the bound and rows be
        // written back.
        let mut m = two_chip_machine(1500, 1);
        m.enable_stdp(StdpParams::default());
        let before = m
            .weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0)
            .expect("synapse exists");
        let m = m.run(400);
        let after = m
            .weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0)
            .expect("synapse exists");
        assert!(m.weight_writebacks() > 0, "modified rows must write back");
        assert!(m.meter().sdram_bytes > 0);
        assert_ne!(before, after, "plastic weights must change");
    }

    #[test]
    fn stdp_depresses_uncorrelated_input() {
        // Target silent (no post spikes after the start): every pre
        // arrival only sees stale post history -> depression dominates.
        let mut m = two_chip_machine(200, 1); // weak: target rarely fires
        m.enable_stdp(StdpParams {
            a_minus: 20.0,
            ..Default::default()
        });
        let before = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 3).unwrap();
        let m = m.run(300);
        let after = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 3).unwrap();
        assert!(
            after <= before,
            "uncorrelated input must not potentiate: {before} -> {after}"
        );
    }

    #[test]
    fn without_stdp_weights_are_immutable() {
        let m = two_chip_machine(1500, 1);
        let before = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0).unwrap();
        let m = m.run(300);
        let after = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0).unwrap();
        assert_eq!(before, after);
        assert_eq!(m.weight_writebacks(), 0);
    }

    /// A congested two-chip stream whose East link dies mid-run: cap-1
    /// queues and short waits make the burst drop packets, and from
    /// 50 ms the dead link forces emergency detours (second legs that
    /// cross shard boundaries once sharded). Shared by the monitor
    /// re-issue and shard-merge regression tests.
    fn congested_faulted_machine() -> NeuralMachine {
        let mut cfg = MachineConfig::new(4, 4);
        cfg.fabric.out_queue_cap = 1;
        cfg.fabric.router.wait1_ns = 100;
        cfg.fabric.router.wait2_ns = 100;
        cfg.force_shards = true;
        let mut m = NeuralMachine::new(cfg);
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(1, 0);
        m.load_core(src, 1, rs_neurons(80), vec![14.0; 80], 0x1000)
            .unwrap();
        m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
            .unwrap();
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        for i in 0..80u32 {
            let row: SynapticRow = (0..10)
                .map(|t| SynapticWord::new(100, 1, t as u16))
                .collect();
            m.set_row(dst, 1, 0x1000 + i, row);
        }
        m.queue_fail_link(50 * MS, src, Direction::East);
        m
    }

    #[test]
    fn monitor_reissues_dropped_spikes() {
        // Emergency routing stays enabled and composes with the mid-run
        // East-link failure: the congested burst drops packets, the
        // dead link forces emergency detours, and the monitor re-issues
        // what was dropped — with bit-identical spikes at every thread
        // count even though the detour legs cross shard boundaries.
        let m = congested_faulted_machine()
            .run_segment(Vec::new(), 0, 100, 1)
            .0;
        let stats = m.router_stats();
        assert!(stats.dropped > 0, "setup should produce drops (got none)");
        assert!(
            m.reissued_packets() > 0,
            "monitor must re-issue dropped spikes"
        );
        assert!(
            stats.emergency_reroutes > 0,
            "the dead East link must invoke emergency routing"
        );
        assert!(
            stats.emergency_second_legs > 0,
            "emergency detours must complete their second leg"
        );
        for threads in [4, 16] {
            let p = congested_faulted_machine()
                .run_segment(Vec::new(), 0, 100, threads)
                .0;
            assert_eq!(
                p.spikes(),
                m.spikes(),
                "{threads}-shard spikes must match serial"
            );
        }
    }

    #[test]
    fn parallel_merge_preserves_router_stats() {
        // Regression guard for the shard merge: `adopt_owned` must
        // count every chip's router exactly once, so a multi-shard
        // report's emergency/drop counters equal the serial run's.
        let serial = congested_faulted_machine()
            .run_segment(Vec::new(), 0, 100, 1)
            .0
            .router_stats();
        assert!(serial.emergency_reroutes > 0, "no reroutes to undercount");
        for threads in [2, 4, 16] {
            let sharded = congested_faulted_machine()
                .run_segment(Vec::new(), 0, 100, threads)
                .0
                .router_stats();
            assert_eq!(
                sharded, serial,
                "{threads}-shard RouterStats diverge from serial"
            );
        }
    }

    #[test]
    fn queued_repair_restores_delivery() {
        // Fail the only route at 30 ms; with emergency routing off the
        // target goes silent, the monitor keeps re-issuing the dropped
        // spikes, and a RepairLink at 90 ms lets the backlog and the
        // live stream through again — unlike the unrepaired control,
        // and bit-exactly at every thread count.
        fn run(repair_at: Option<u32>, threads: usize) -> NeuralMachine {
            let mut cfg = MachineConfig::new(4, 4);
            cfg.fabric.router.emergency_enabled = false;
            cfg.force_shards = true;
            let mut m = NeuralMachine::new(cfg);
            let src = NodeCoord::new(0, 0);
            let dst = NodeCoord::new(1, 0);
            m.load_core(src, 1, rs_neurons(10), vec![12.0; 10], 0x1000)
                .unwrap();
            m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
                .unwrap();
            m.router_mut(src)
                .table
                .insert(McTableEntry {
                    key: 0x1000,
                    mask: 0xFFFF_F000,
                    route: RouteSet::EMPTY.with_link(Direction::East),
                })
                .unwrap();
            m.router_mut(dst)
                .table
                .insert(McTableEntry {
                    key: 0x1000,
                    mask: 0xFFFF_F000,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
            for i in 0..10u32 {
                let row: SynapticRow = (0..10)
                    .map(|t| SynapticWord::new(1200, 1, t as u16))
                    .collect();
                m.set_row(dst, 1, 0x1000 + i, row);
            }
            m.queue_fail_link(30 * MS, src, Direction::East);
            if let Some(at) = repair_at {
                m.queue_repair_link(at as u64 * MS, src, Direction::East);
            }
            m.run_segment(Vec::new(), 0, 150, threads).0
        }
        let dst_spikes = |m: &NeuralMachine| {
            m.spikes()
                .iter()
                .filter(|s| s.key & 0xF000 == 0x2000)
                .count()
        };
        let control = run(None, 1);
        let repaired = run(Some(90), 1);
        assert!(
            dst_spikes(&repaired) > dst_spikes(&control),
            "repair must recover deliveries ({} vs {})",
            dst_spikes(&repaired),
            dst_spikes(&control)
        );
        assert!(
            repaired
                .spikes()
                .iter()
                .any(|s| s.key & 0xF000 == 0x2000 && s.time_ms >= 95),
            "target must fire again after the repair lands"
        );
        assert!(
            control
                .spikes()
                .iter()
                .all(|s| s.key & 0xF000 != 0x2000 || s.time_ms < 40),
            "unrepaired control must stay silent past the failure"
        );
        for threads in [4, 16] {
            let p = run(Some(90), threads);
            assert_eq!(
                p.spikes(),
                repaired.spikes(),
                "{threads}-shard repair run must match serial"
            );
        }
    }

    #[test]
    fn install_routing_plan_loads_tables_and_reports_overflow() {
        use spinn_map::graph::{Connector, NetworkGraph, NeuronKind, Synapses};
        use spinn_map::place::{Placement, Placer};
        use spinn_map::route::RoutingPlan;
        use spinn_neuron::izhikevich::IzhikevichParams;

        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let a = net.population("a", 40, kind, 0.0);
        let b = net.population("b", 40, kind, 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(10, 1), 0);
        let placement = Placement::compute(&net, 4, 4, 20, 64, Placer::Random { seed: 3 }).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 4, 4).minimized();

        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let installed = m.install_routing_plan(&plan).unwrap();
        assert_eq!(installed, plan.total_entries());
        let stats = m.router_stats();
        assert_eq!(
            stats.table_peak_entries,
            plan.stats().max_entries_per_chip as u64
        );
        assert_eq!(stats.table_capacity, 1024);

        // A 1-entry CAM must overflow through the fallible path.
        let mut cfg = MachineConfig::new(4, 4);
        cfg.fabric.router.table_capacity = 0;
        let mut tiny = NeuralMachine::new(cfg);
        let err = tiny.install_routing_plan(&plan).unwrap_err();
        assert_eq!(err.capacity, 0);
    }

    #[test]
    fn energy_meter_populated() {
        let m = two_chip_machine(1000, 1).run(100);
        let meter = m.meter();
        assert!(meter.instructions > 0);
        assert!(meter.core_active_ns > 0);
        assert!(meter.sdram_bytes > 0);
        assert!(meter.packet_hops > 0);
        let joules = meter.total_joules(&m.config().energy);
        assert!(joules > 0.0);
        let watts = meter.mean_watts(&m.config().energy, m.duration_ns());
        // 16 chips at ~120 mW overhead: a couple of watts, far from a
        // PC's hundreds.
        assert!(watts < 10.0, "{watts} W");
    }
}
