//! The sharded, barrier-synchronized parallel execution engine.
//!
//! See the crate-level documentation for the protocol description.
//!
//! # Scheduling
//!
//! Ownership is static, the way the machine itself pins each
//! population slice to one core and never migrates it: `run_until`
//! spawns `min(shards, available_parallelism)` workers, and worker `w`
//! owns every shard `i` with `i % workers == w` for the whole call. A
//! worker holds its shards' engines exclusively; the only shared state
//! is each shard's mailbox and its published next-event time.
//!
//! The rule cannot change results. Event timestamps, tie ranks, the
//! horizon bounds below and the canonical mailbox order all depend on
//! the shard cut alone — never on which worker runs a shard or how
//! many workers there are — so a run with more shards than host cores
//! replays exactly the schedule of one worker per shard.
//!
//! # Per-shard horizons
//!
//! The classic conservative window runs every shard to
//! `global_min + lookahead`. This engine extends each shard's horizon
//! independently, bounded by the two ways an event can still reach it:
//!
//! 1. another shard's *pending* work — shard `j` only emits at
//!    `>= next_j + lookahead`, so `min(next_j, j != i) + lookahead` is
//!    safe against everything already queued elsewhere, and
//! 2. *reactions to shard `i`'s own emissions* — an event `i` sends
//!    arriving at `a` can provoke a reply no earlier than
//!    `a + lookahead`, so the horizon also stays at or below the
//!    earliest arrival `i` has staged this round plus the lookahead
//!    (before anything is staged: `next_i + 2*lookahead`).
//!
//! The window grows iteratively inside the round as bound 2 relaxes:
//! a shard whose neighbors are idle and that emits nothing runs all the
//! way to the deadline in a single barrier round — collapsing the
//! barrier count on skewed workloads from O(events) to O(interactions).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use spinn_obs::Phase;
use spinn_sim::{Engine, EventQueue, Model, Queue, SimTime};

/// Sentinel for "this shard's queue is empty".
const IDLE: u64 = u64::MAX;

/// A model that can run as one shard of a partitioned simulation.
///
/// On top of the ordinary [`Model`] contract, a shard model accumulates
/// events destined for *other* shards in an internal outbox instead of
/// scheduling them locally; the engine drains that outbox at the end of
/// every window and delivers the events through the barrier exchange.
pub trait ShardModel: Model {
    /// Drains the cross-shard events staged since the last call.
    ///
    /// Every returned event must have `at >= t + lookahead`, where `t` is
    /// the timestamp of the handler that produced it and `lookahead` is
    /// the bound passed to [`ParEngine::run_until`] — this is the
    /// conservative-synchronization contract that makes windowed
    /// execution exact.
    ///
    /// Every returned event must also target a *different* shard:
    /// same-shard events are ordinary local events and must be
    /// scheduled through the [`Context`](spinn_sim::Context) instead.
    /// (This is what lets the engine extend a shard's horizon past the
    /// global minimum — only *other* shards can still send to it.)
    fn drain_outbox(&mut self) -> Vec<RemoteEvent<Self::Event>>;
}

/// One shard's checkpoint form: the model plus its drained pending
/// events in canonical `(time, rank)` pop order (see
/// [`ParEngine::into_parts`]).
pub type ShardParts<M> = (M, Vec<(SimTime, u128, <M as Model>::Event)>);

/// A cross-shard event emitted by a [`ShardModel`].
#[derive(Debug)]
pub struct RemoteEvent<E> {
    /// Absolute delivery time.
    pub at: SimTime,
    /// Index of the destination shard.
    pub dest: usize,
    /// The event payload.
    pub event: E,
}

/// Counters describing one parallel run.
#[derive(Clone, Debug, Default)]
pub struct ParStats {
    /// Barrier rounds (conservative windows) executed.
    pub windows: u64,
    /// Events handled across all shards.
    pub events: u64,
    /// Cross-shard events exchanged at barriers.
    pub exchanged: u64,
}

/// An envelope carrying a cross-shard event through a mailbox.
///
/// `(at, src, seq)` is the canonical delivery order: `seq` counts per
/// *source shard* (not per worker thread), so sorting by it makes queue
/// insertion — and therefore FIFO tie-breaking — independent of which
/// worker thread ran the source shard or reached the mailbox first.
struct Envelope<E> {
    at: u64,
    src: u32,
    seq: u64,
    event: E,
}

/// One shard as its owning worker holds it for the length of a
/// [`ParEngine::run_until`] call.
struct Owned<'a, M: ShardModel, Q: Queue<M::Event>> {
    /// Position in the engine's shard list (the mailbox and `next` slot).
    index: usize,
    engine: &'a mut Engine<M, Q>,
    /// Per-source-shard envelope sequence (canonical tie-break order).
    seq: u64,
}

/// A sense-counting spin barrier.
///
/// Windows are typically microseconds long, so a futex-based
/// [`std::sync::Barrier`] would dominate the run; spinning with a yield
/// fallback keeps the barrier in the tens-of-nanoseconds range. The pool
/// never has more workers than the host has cores, so a spinning waiter
/// does not take a core from the worker it waits for.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Spins before a waiter falls back to yielding its time slice.
    const SPIN_LIMIT: u32 = 20_000;

    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Waits for all `n` workers.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins >= Self::SPIN_LIMIT {
                    std::thread::yield_now();
                } else {
                    spins += 1;
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// The parallel engine: one [`Engine`] per shard, advanced in lockstep
/// conservative windows by a pool of worker threads that each own a
/// fixed set of shards (see the module docs).
///
/// # Example
///
/// Two shards ping-ponging a token with a 10-tick cross-shard latency:
///
/// ```
/// use spinn_par::{ParEngine, RemoteEvent, ShardModel};
/// use spinn_sim::{Context, Model, SimTime};
///
/// struct Token { me: usize, seen: u32, outbox: Vec<RemoteEvent<u32>> }
///
/// impl Model for Token {
///     type Event = u32;
///     fn handle(&mut self, ctx: &mut Context<u32>, hops: u32) {
///         self.seen += 1;
///         if hops > 0 {
///             self.outbox.push(RemoteEvent {
///                 at: ctx.now() + 10,
///                 dest: 1 - self.me,
///                 event: hops - 1,
///             });
///         }
///     }
/// }
/// impl ShardModel for Token {
///     fn drain_outbox(&mut self) -> Vec<RemoteEvent<u32>> {
///         std::mem::take(&mut self.outbox)
///     }
/// }
///
/// let mut par = ParEngine::new(vec![
///     Token { me: 0, seen: 0, outbox: vec![] },
///     Token { me: 1, seen: 0, outbox: vec![] },
/// ]);
/// par.schedule(0, SimTime::ZERO, 5);
/// par.run_until(SimTime::new(1_000), 10);
/// let models = par.into_models();
/// assert_eq!(models[0].seen + models[1].seen, 6);
/// ```
pub struct ParEngine<M: ShardModel, Q: Queue<M::Event> = EventQueue<<M as Model>::Event>> {
    shards: Vec<Engine<M, Q>>,
    stats: ParStats,
}

impl<M> ParEngine<M>
where
    M: ShardModel + Send,
    M::Event: Send,
{
    /// Wraps one engine (on the default binary-heap queue) around each
    /// shard model.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<M>) -> Self {
        ParEngine::new_in(models)
    }
}

impl<M, Q> ParEngine<M, Q>
where
    M: ShardModel + Send,
    M::Event: Send,
    Q: Queue<M::Event> + Send,
{
    /// Wraps one engine around each shard model, on an explicitly
    /// chosen queue implementation — every shard runs the same kind
    /// (e.g. `ParEngine::<M, CalendarQueue<_>>::new_in(models)`).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new_in(models: Vec<M>) -> Self {
        assert!(!models.is_empty(), "ParEngine needs at least one shard");
        ParEngine {
            shards: models.into_iter().map(Engine::new_in).collect(),
            stats: ParStats::default(),
        }
    }

    /// Wraps one engine around each shard model with every shard clock
    /// starting at `now` instead of zero — the resume path of
    /// checkpointed runs (see [`Engine::resume_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn resume_in(models: Vec<M>, now: SimTime) -> Self {
        assert!(!models.is_empty(), "ParEngine needs at least one shard");
        ParEngine {
            shards: models
                .into_iter()
                .map(|m| Engine::resume_at(m, now))
                .collect(),
            stats: ParStats::default(),
        }
    }

    /// Consumes the engine, returning each shard's model together with
    /// its drained pending events in canonical `(time, rank)` pop order
    /// — the checkpoint form of a paused sharded run (mailboxes are
    /// always empty between [`ParEngine::run_until`] calls, so the
    /// shard queues hold the complete pending set).
    pub fn into_parts(self) -> Vec<ShardParts<M>> {
        self.shards.into_iter().map(Engine::into_parts).collect()
    }

    /// Number of shards (not necessarily the worker-thread count: the
    /// pool is clamped to the host's available parallelism).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Schedules an initial event on one shard.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: M::Event) {
        self.shards[shard].schedule_at(at, event);
    }

    /// Counters from completed [`ParEngine::run_until`] calls.
    pub fn stats(&self) -> &ParStats {
        &self.stats
    }

    /// Each shard queue's occupancy high-water mark, in shard order
    /// (see [`spinn_sim::Queue::peak_len`]). Read before
    /// [`ParEngine::into_parts`], which drains the queues.
    pub fn queue_peaks(&self) -> Vec<usize> {
        self.shards.iter().map(Engine::queue_peak).collect()
    }

    /// Consumes the engine, returning the shard models in shard order.
    pub fn into_models(self) -> Vec<M> {
        self.shards.into_iter().map(Engine::into_model).collect()
    }

    /// Runs every shard until all queues pass `deadline` (events at
    /// exactly `deadline` are processed, matching
    /// [`Engine::run_until`]).
    ///
    /// The pool is `min(shards, host cores)` workers; worker `w` owns
    /// shards `i` with `i % workers == w` for the whole call (see
    /// "Scheduling" in the module docs). Results are bit-identical for
    /// every pool size — the schedule depends only on the shard cut.
    ///
    /// `lookahead_ns` must be a strict lower bound on the delivery delay
    /// of every cross-shard event: an event handled at time `t` may only
    /// produce remote events at `t + lookahead_ns` or later.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead_ns == 0`, or (in debug builds) if a shard
    /// violates the lookahead contract.
    pub fn run_until(&mut self, deadline: SimTime, lookahead_ns: u64) {
        assert!(lookahead_ns > 0, "conservative windows need lookahead > 0");
        let n = self.shards.len();
        let workers = n.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
        let barrier = SpinBarrier::new(workers);
        let next: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
        let mailboxes: Vec<Mutex<Vec<Envelope<M::Event>>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let deadline_ns = deadline.ticks();

        let mut owned: Vec<Vec<Owned<'_, M, Q>>> = (0..workers).map(|_| Vec::new()).collect();
        for (index, engine) in self.shards.iter_mut().enumerate() {
            owned[index % workers].push(Owned {
                index,
                engine,
                seq: 0,
            });
        }

        let per_worker: Vec<ParStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = owned
                .into_iter()
                .map(|shards| {
                    let (barrier, next, mailboxes) = (&barrier, &next, &mailboxes);
                    scope.spawn(move || {
                        worker_loop(shards, barrier, next, mailboxes, deadline_ns, lookahead_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        // Every worker counts the same barrier rounds, so add this
        // call's rounds once (not per worker).
        self.stats.windows += per_worker.iter().map(|s| s.windows).max().unwrap_or(0);
        for s in &per_worker {
            self.stats.events += s.events;
            self.stats.exchanged += s.exchanged;
        }
    }
}

/// One pool worker: advances its owned shards phase by phase until the
/// run drains, returning its share of the run's counters (`windows` is
/// identical across workers — they exit the loop together).
fn worker_loop<M: ShardModel, Q: Queue<M::Event>>(
    mut shards: Vec<Owned<'_, M, Q>>,
    barrier: &SpinBarrier,
    next: &[AtomicU64],
    mailboxes: &[Mutex<Vec<Envelope<M::Event>>>],
    deadline_ns: u64,
    lookahead_ns: u64,
) -> ParStats {
    let mut stats = ParStats::default();
    // Barrier waits are where shard imbalance shows up: a worker whose
    // shards finish early burns the difference here. Time both waits
    // into this worker's first shard's probe (inert unless telemetry is
    // on; every worker owns at least one shard because the pool is
    // clamped to the shard count).
    let probe = shards[0].engine.probe().clone();
    let mut times: Vec<u64> = vec![IDLE; next.len()];
    loop {
        // Deliver phase: drain each owned shard's mailbox in canonical
        // order and publish its earliest pending timestamp.
        for shard in &mut shards {
            let mut mail =
                std::mem::take(&mut *mailboxes[shard.index].lock().expect("mailbox poisoned"));
            if !mail.is_empty() {
                mail.sort_by_key(|e| (e.at, e.src, e.seq));
                for env in mail {
                    shard.engine.schedule_at(SimTime::new(env.at), env.event);
                }
            }
            next[shard.index].store(
                shard.engine.next_event_time().map_or(IDLE, |t| t.ticks()),
                Ordering::Release,
            );
        }
        let tok = probe.start();
        barrier.wait();
        probe.record(Phase::BarrierWait, tok);

        // All publishes happened before the barrier, so every worker
        // reads the same snapshot and computes the same minimum.
        for (t, a) in times.iter_mut().zip(next.iter()) {
            *t = a.load(Ordering::Acquire);
        }
        let min = *times.iter().min().expect("at least one shard");
        if min == IDLE || min > deadline_ns {
            // All queues drained or past the deadline — and mailboxes
            // are empty, because delivery happens before the minimum is
            // recomputed. Every worker sees the same minimum and exits
            // together.
            return stats;
        }

        // Run phase: advance each owned shard through its window (see
        // "Per-shard horizons" in the module docs for the safety
        // argument behind the two horizon bounds).
        for shard in &mut shards {
            let i = shard.index;
            // Bound 1: everything already pending at other shards.
            let base = times
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &t)| t)
                .min()
                .unwrap_or(IDLE)
                .saturating_add(lookahead_ns)
                .min(deadline_ns.saturating_add(1));
            // Bound 2 (before anything is staged): the earliest event
            // this shard could emit is `next + lookahead`, so the
            // earliest reply is `next + 2*lookahead`.
            let my_next = times[i];
            let mut horizon = base.min(my_next.saturating_add(lookahead_ns.saturating_mul(2)));
            if my_next >= horizon {
                // Nothing pending inside this shard's window: skip the
                // engine entirely (its clock catches up lazily).
                continue;
            }
            let engine = &mut *shard.engine;
            let before = engine.processed();
            // Earliest arrival staged by this shard this round; replies
            // to it land at >= this + lookahead.
            let mut staged_min = IDLE;
            loop {
                engine.run_before(SimTime::new(horizon));
                for r in engine.model_mut().drain_outbox() {
                    debug_assert!(
                        r.at.ticks() >= my_next.saturating_add(lookahead_ns),
                        "lookahead violation: remote event at {} from window starting {}",
                        r.at,
                        my_next
                    );
                    debug_assert!(r.dest != i, "shard {i} routed an event to itself");
                    staged_min = staged_min.min(r.at.ticks());
                    stats.exchanged += 1;
                    let env = Envelope {
                        at: r.at.ticks(),
                        src: i as u32,
                        seq: shard.seq,
                        event: r.event,
                    };
                    shard.seq += 1;
                    mailboxes[r.dest]
                        .lock()
                        .expect("mailbox poisoned")
                        .push(env);
                }
                // Try to extend: bound 2 relaxes to the earliest staged
                // arrival (or, if nothing is staged yet, to replies
                // provoked by whatever the extension itself might emit).
                let next_now = engine.next_event_time().map_or(IDLE, |t| t.ticks());
                let reply_floor = staged_min
                    .min(next_now.saturating_add(lookahead_ns))
                    .saturating_add(lookahead_ns);
                let extended = base.min(reply_floor);
                if extended <= horizon || next_now >= extended {
                    break;
                }
                horizon = extended;
            }
            stats.events += engine.processed() - before;
        }
        let tok = probe.start();
        barrier.wait();
        probe.record(Phase::BarrierWait, tok);
        stats.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinn_sim::Context;

    /// Each shard counts its own events and forwards a share to the next
    /// shard (ring exchange) until the hop budget is spent.
    struct Ring {
        me: usize,
        n: usize,
        handled: Vec<u64>,
        outbox: Vec<RemoteEvent<u32>>,
    }

    impl Model for Ring {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, hops: u32) {
            self.handled.push(ctx.now().ticks());
            if hops > 0 {
                let dest = (self.me + 1) % self.n;
                if dest == self.me {
                    // Single-shard ring: same-shard hops are local
                    // events, per the ShardModel contract.
                    ctx.schedule_at(ctx.now() + 50, hops - 1);
                } else {
                    self.outbox.push(RemoteEvent {
                        at: ctx.now() + 50,
                        dest,
                        event: hops - 1,
                    });
                }
            }
        }
    }

    impl ShardModel for Ring {
        fn drain_outbox(&mut self) -> Vec<RemoteEvent<u32>> {
            std::mem::take(&mut self.outbox)
        }
    }

    fn ring(n: usize) -> ParEngine<Ring> {
        ParEngine::new(
            (0..n)
                .map(|me| Ring {
                    me,
                    n,
                    handled: Vec::new(),
                    outbox: Vec::new(),
                })
                .collect(),
        )
    }

    #[test]
    fn token_circulates_across_shards() {
        for n in [1usize, 2, 3, 4] {
            let mut par = ring(n);
            par.schedule(0, SimTime::ZERO, 12);
            par.run_until(SimTime::new(10_000), 50);
            let models = par.into_models();
            let total: usize = models.iter().map(|m| m.handled.len()).sum();
            assert_eq!(total, 13, "all hops handled with {n} shards");
            // Hop k fires at exactly k * 50 regardless of shard count.
            let mut times: Vec<u64> = models.iter().flat_map(|m| m.handled.clone()).collect();
            times.sort_unstable();
            assert_eq!(times, (0..13).map(|k| k * 50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn deadline_cuts_off_late_events() {
        let mut par = ring(2);
        par.schedule(0, SimTime::ZERO, 100);
        // 12 hops of 50 ticks fit below the deadline of 600 (hop at 600
        // exactly is still processed, matching Engine::run_until).
        par.run_until(SimTime::new(600), 50);
        let models = par.into_models();
        let total: usize = models.iter().map(|m| m.handled.len()).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn stats_are_populated() {
        let mut par = ring(3);
        par.schedule(0, SimTime::ZERO, 9);
        par.run_until(SimTime::new(10_000), 50);
        assert_eq!(par.stats().events, 10);
        assert_eq!(par.stats().exchanged, 9);
        assert!(par.stats().windows >= 1);
    }

    #[test]
    #[should_panic(expected = "lookahead > 0")]
    fn zero_lookahead_rejected() {
        let mut par = ring(2);
        par.run_until(SimTime::new(10), 0);
    }

    #[test]
    fn shard_count_is_result_invariant() {
        // More shards than host cores puts several shards on one
        // worker; the event times must not depend on the cut.
        let run = |shards: usize| {
            let mut par = ring(shards);
            par.schedule(0, SimTime::ZERO, 12);
            par.run_until(SimTime::new(10_000), 50);
            let models = par.into_models();
            let mut times: Vec<u64> = models.iter().flat_map(|m| m.handled.clone()).collect();
            times.sort_unstable();
            times
        };
        let baseline = run(1);
        assert_eq!(baseline.len(), 13);
        for shards in [2, 3, 4, 7] {
            assert_eq!(run(shards), baseline, "{shards} shards diverged");
        }
    }

    #[test]
    fn empty_run_terminates() {
        let mut par = ring(4);
        par.run_until(SimTime::new(1_000), 10);
        assert_eq!(par.stats().events, 0);
    }

    /// With per-shard horizons, a hot shard facing an otherwise idle
    /// machine should need only O(interactions) windows, not O(events).
    #[test]
    fn idle_neighbors_extend_horizon() {
        // Shard 0 self-schedules nothing remote: a long local cascade.
        struct Cascade {
            left: u32,
            outbox: Vec<RemoteEvent<u32>>,
        }
        impl Model for Cascade {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Context<u32>, _: u32) {
                if self.left > 0 {
                    self.left -= 1;
                    let next = ctx.now() + 1;
                    ctx.schedule_at(next, 0);
                }
            }
        }
        impl ShardModel for Cascade {
            fn drain_outbox(&mut self) -> Vec<RemoteEvent<u32>> {
                std::mem::take(&mut self.outbox)
            }
        }
        let mut par = ParEngine::new(vec![
            Cascade {
                left: 1000,
                outbox: vec![],
            },
            Cascade {
                left: 0,
                outbox: vec![],
            },
        ]);
        par.schedule(0, SimTime::ZERO, 0);
        par.run_until(SimTime::new(100_000), 2);
        assert_eq!(par.stats().events, 1001);
        // The busy shard's horizon extends to the deadline because its
        // neighbor is idle: one productive window, not ~500.
        assert!(
            par.stats().windows <= 3,
            "expected horizon extension, got {} windows",
            par.stats().windows
        );
    }
}
