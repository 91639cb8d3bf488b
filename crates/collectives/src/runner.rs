//! DAG execution over a shared simulated cluster.
//!
//! One engine per directed node pair, all over one [`SimCluster`] (one
//! virtual clock, shared NIC/core/switch state). The runner is a
//! dataflow executor: a hop is posted on its pair's engine the moment its
//! dependencies are delivered, so each hop flows through the full engine
//! decision path — rail selection, equal-completion splitting, eager/rdv
//! choice, packing — under whatever contention the rest of the schedule
//! creates.
//!
//! The clock is advanced with [`SimCluster::pump_one`], one calendar event
//! at a time; between steps every engine whose inbox filled is drained.
//! Letting any single engine's `poll` free-run the clock instead would
//! post dependent hops *after* the clock passed their true ready time,
//! deforming the schedule.
//!
//! Host cost follows the events, not the engines. A 16-node all-to-all
//! keeps 240 engines, and one calendar step concerns one or two of them:
//!
//! * the runner polls the engines on the cluster's *ready list*
//!   ([`SimCluster::take_ready_into`]) — those an event was just routed to
//!   — rather than asking every engine after every step. Same-instant
//!   deliveries leave several inboxes filled at once, and the order they
//!   are polled in decides same-instant submit order downstream: that order
//!   is the list's `(src, dst)` sort and nothing else
//!   (`tests/schedule_pin.rs` holds digests of every delivery time);
//! * an engine with nothing queued tells its driver so and is sent no
//!   NIC idle events ([`nm_core::transport::Transport::set_idle_interest`]):
//!   the n−2 sibling engines of a busy node are left alone instead of each
//!   being polled to interrogate an empty queue. Healing engines (fault
//!   tolerance on) keep receiving them — their polls also run timeouts;
//! * the watchdog looks at hop deadlines only once the clock has reached
//!   the earliest one.
//!
//! A healing run learns of a node death from its engines, not from a
//! clock: a chunk the death kills, or a submit a downed port rejects,
//! reaches the pair's engine as a failure at the fault instant, and the
//! drain round that folds it tears the pair's hops out when an endpoint is
//! down. The deadline stays for stalls that raise no failure.
//!
//! Per hop the runner itself then does little beyond the engine's own work:
//! engines sit in a dense table indexed by `src * n + dst`, the ready list
//! and each poll's completed ids are read into buffers the cluster keeps,
//! and a run executes the DAG it is handed in place — the compiled hops are
//! borrowed, repair grafts go to a run-local list after them, and who waits
//! on whom is one compressed table (`Dependents`) rebuilt per run and per
//! repair round.

use crate::profiles::{ProfileBank, PAIR_STRATEGY};
use crate::repair::{self, HopRole, RepairHop};
use crate::schedule::{Algorithm, Collective, Hop, HopDag};
use nm_core::driver::cluster::{PairDriver, SimCluster};
use nm_core::engine::{Engine, MsgId};
use nm_core::error::EngineError;
use nm_core::health::HealthConfig;
use nm_faults::ClusterFaultSchedule;
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// A posted hop's deadline is this many times the bank's uncontended hop
/// prediction (floored at [`MIN_HOP_TIMEOUT_US`]), doubling per retry.
const TIMEOUT_FACTOR: f64 = 8.0;

/// Deadline floor: latency-bound barrier tokens predict in single-digit
/// µs, far below honest queueing noise under contention.
const MIN_HOP_TIMEOUT_US: f64 = 2_000.0;

/// Reposts of one hop on its original pair before the hop is written off
/// and left to DAG repair.
const MAX_HOP_RETRIES: u32 = 4;

/// DAG repair rounds per run before the runner declares the operation
/// unrecoverable (each round replans from scratch, so needing many is a
/// sign the fault schedule is killing nodes faster than repair converges).
const MAX_REPAIRS: u64 = 8;

/// Hard bound on the flow-held completion queue: completions the engines
/// reported done whose in-order release is still pending. Growth past this
/// means a flow is wedged, not busy.
const DONE_QUEUE_BOUND: usize = 4096;

/// Per-node sickness EWMA: weight a failure adds, and the decay a success
/// applies. Deterministic (no RNG), bounded in `[0, 1)`.
const SICKNESS_GAIN: f64 = 0.3;
const SICKNESS_DECAY: f64 = 0.9;

/// Failure/repair observability for one executed DAG. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Hops reposted on their original pair after a watchdog teardown.
    pub hops_retried: u64,
    /// Replacement hops grafted by DAG repair (re-rooted trees, ring
    /// splices).
    pub hops_rerouted: u64,
    /// Repair rounds executed.
    pub repairs: u64,
    /// First teardown to last repair-hop delivery (µs); zero when nothing
    /// needed repair.
    pub repair_latency_us: f64,
    /// Peak length of the flow-held completion queue (satellite: bounded
    /// retry queue).
    pub retry_queue_peak: usize,
    /// Participants with every NIC port down when the run finished.
    pub dead_nodes: usize,
    /// Hops torn out in the drain round their pair's engine reported a
    /// chunk failure toward a dead endpoint (or took them with no rail
    /// left toward one).
    pub teardowns_on_evidence: u64,
    /// Hops torn out because their watchdog deadline passed.
    pub teardowns_on_deadline: u64,
}

/// Outcome of one executed hop DAG.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Virtual time the first hop was posted.
    pub started_at: SimTime,
    /// Virtual time the last hop was delivered.
    pub finished_at: SimTime,
    /// Makespan in microseconds (`finished_at - started_at`).
    pub duration_us: f64,
    /// Per-hop delivery times. The first `dag.hops.len()` entries mirror
    /// the compiled schedule; repair hops extend past them. `None` marks a
    /// hop torn out of its engine or cancelled with a lost dependency — on a
    /// fault-free run every entry is `Some`.
    pub deliveries: Vec<Option<SimTime>>,
    /// The hops actually executed, indexed like `deliveries`: the compiled
    /// schedule plus any repair hops grafted after it.
    pub hops: Vec<Hop>,
    /// Failure/repair counters.
    pub stats: RunStats,
}

/// What the executor hands its two wrappers: [`CollectiveCluster::run`],
/// which pairs it with the compiled hops into a [`RunResult`], and the
/// stack's own run, which keeps only the makespan and the stats.
pub(crate) struct Execution {
    /// Virtual time the first hop was posted.
    pub(crate) started_at: SimTime,
    /// Virtual time the last hop was delivered.
    pub(crate) finished_at: SimTime,
    /// Per-hop delivery times, indexed like [`RunResult::deliveries`].
    pub(crate) deliveries: Vec<Option<SimTime>>,
    /// The repair hops grafted after the compiled schedule, in graft order.
    pub(crate) grafts: Vec<Hop>,
    /// Failure/repair counters.
    pub(crate) stats: RunStats,
}

impl Execution {
    /// `finished_at - started_at`.
    pub(crate) fn makespan(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }
}

/// Execution state of one hop in the (growing) DAG.
#[derive(Debug, Clone)]
enum HopState {
    /// Dependencies unmet.
    Pending,
    /// Live on its pair's engine, watched by the deadline.
    Posted { id: MsgId, deadline: SimTime, attempts: u32 },
    /// Delivered.
    Done(SimTime),
    /// Torn out (retries exhausted, endpoint dead, or dependency lost);
    /// owed work is replanned by repair, never by resurrecting this index.
    Cancelled,
}

/// A posted hop as its engine knows it: `(src, dst, message id)`.
type HopKey = (usize, usize, MsgId);

/// An engine whose poll failed (it is dropped), and the error.
type Poisoned = ((usize, usize), EngineError);

/// A run's ledger of hops.
struct Watch {
    state: Vec<HopState>,
    /// Which hop each live engine message is: exactly the hops in
    /// [`HopState::Posted`], so its length is what the run still waits on.
    posted: BTreeMap<HopKey, usize>,
    /// No live deadline is earlier than this. It may lag behind (the hop
    /// that set it has since completed); the watchdog scan it then triggers
    /// finds nothing due and re-derives it from the hops still posted.
    next_deadline: SimTime,
    /// When the first hop was torn out or written off.
    first_failure: Option<SimTime>,
    /// Pairs whose engine folded a chunk failure since the last drain
    /// round acted, or took a hop with no rail left to send it on:
    /// first-hand evidence that an endpoint may be dead. Always empty
    /// unless healing.
    evidence: Vec<(usize, usize)>,
}

/// Who waits on each hop, compressed: the hops that list hop `i` among
/// their deps are `list[starts[i]..starts[i + 1]]`, ascending. Two flat
/// arrays, each allocated once at its final size, instead of one `Vec` per
/// hop.
struct Dependents {
    starts: Vec<usize>,
    list: Vec<usize>,
}

impl Dependents {
    /// The table over `compiled` followed by `grafts`.
    fn new(compiled: &[Hop], grafts: &[Hop]) -> Self {
        let count = compiled.len() + grafts.len();
        // Count each hop's dependents at its own index (deps point
        // backwards, so the last entry stays zero), then turn the counts
        // into each row's end.
        let mut starts = vec![0usize; count + 1];
        for h in compiled.iter().chain(grafts) {
            for &d in &h.deps {
                starts[d] += 1;
            }
        }
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        // Fill every row back to front, latest dependent first: the row
        // comes out ascending and its entry walks down to the row's start.
        let mut list = vec![0usize; end];
        for i in (0..count).rev() {
            for &d in &hop_at(compiled, grafts, i).deps {
                starts[d] -= 1;
                list[starts[d]] = i;
            }
        }
        Dependents { starts, list }
    }

    /// The hops that wait on hop `i`, ascending.
    fn of(&self, i: usize) -> &[usize] {
        &self.list[self.starts[i]..self.starts[i + 1]]
    }
}

/// Hop `i` of `compiled` followed by `grafts`.
fn hop_at<'h>(compiled: &'h [Hop], grafts: &'h [Hop], i: usize) -> &'h Hop {
    compiled.get(i).unwrap_or_else(|| &grafts[i - compiled.len()])
}

/// The hops one run executes, as one index space: the compiled schedule,
/// borrowed, then the repair grafts; and who waits on each.
struct RunHops<'a> {
    compiled: &'a [Hop],
    grafts: Vec<Hop>,
    dependents: Dependents,
}

impl<'a> RunHops<'a> {
    fn new(compiled: &'a [Hop]) -> Self {
        RunHops { compiled, grafts: Vec::new(), dependents: Dependents::new(compiled, &[]) }
    }

    fn len(&self) -> usize {
        self.compiled.len() + self.grafts.len()
    }

    fn get(&self, i: usize) -> &Hop {
        hop_at(self.compiled, &self.grafts, i)
    }

    /// Grafts a repair plan as fresh indices after every hop so far, its
    /// plan-relative deps rebased onto them, and rebuilds the dependents.
    /// Returns the first grafted index.
    // nm-analyzer: bounded(MAX_REPAIRS) -- a run grafts at most MAX_REPAIRS plans, and a plan
    // holds at most one hop per ordered pair of survivors
    fn graft(&mut self, plan: &[RepairHop]) -> usize {
        let base = self.len();
        self.grafts.extend(plan.iter().map(|rh| Hop {
            src: rh.src,
            dst: rh.dst,
            bytes: rh.bytes,
            deps: rh.deps.iter().map(|&d| d + base).collect(),
        }));
        self.dependents = Dependents::new(self.compiled, &self.grafts);
        base
    }
}

/// A simulated cluster plus the per-pair engines collectives run on.
///
/// Engines are created lazily per directed pair and *kept* across runs:
/// the shared clock is monotonic, so back-to-back collectives on one
/// cluster see each other's residual NIC occupancy, exactly like a real
/// application issuing a sequence of operations.
pub struct CollectiveCluster {
    cluster: SimCluster,
    spec: ClusterSpec,
    /// The `src -> dst` engine at `src * n + dst`: `None` until the pair's
    /// first hop, and again once its engine was poisoned. Boxed, so an
    /// empty slot costs a pointer — a cluster built per operation fills
    /// few of its n² slots.
    engines: Vec<Option<Box<Engine<PairDriver>>>>,
    /// Healing machinery armed: the cluster replays a non-empty fault
    /// schedule, engines run with fault tolerance, runs arm the watchdog
    /// and repair. An *empty* schedule arms none of it — inertness is a
    /// guarantee, not an optimization.
    healing: bool,
    /// Per-node failure EWMA, persisted across runs so the selector can
    /// penalize schedules through a sick hub. All zeros when healthy.
    sickness: Vec<f64>,
    /// Engine polls made so far, over every run.
    engine_polls: u64,
    /// The cluster's ready list, refilled by every drain round.
    ready_pairs: Vec<(usize, usize)>,
    /// The ids one engine poll completed.
    polled: Vec<MsgId>,
}

impl CollectiveCluster {
    /// A fresh cluster with no engines yet.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.validate().is_ok(), "invalid cluster spec");
        let cluster = SimCluster::new(spec.clone());
        CollectiveCluster::over(cluster, spec, false)
    }

    fn over(cluster: SimCluster, spec: ClusterSpec, healing: bool) -> Self {
        let nodes = spec.nodes.len();
        CollectiveCluster {
            cluster,
            spec,
            engines: std::iter::repeat_with(|| None).take(nodes * nodes).collect(),
            healing,
            sickness: vec![0.0; nodes],
            engine_polls: 0,
            ready_pairs: Vec::new(),
            polled: Vec::new(),
        }
    }

    /// A cluster that replays `schedule`: engines get fault tolerance and
    /// runs heal themselves (watchdog + DAG repair), unless the
    /// schedule is empty — then this is exactly [`CollectiveCluster::new`]
    /// over a fault-capable transport.
    pub fn with_faults(spec: ClusterSpec, schedule: &ClusterFaultSchedule) -> Result<Self, String> {
        spec.validate()?;
        let cluster = SimCluster::with_faults(spec.clone(), schedule)?;
        Ok(CollectiveCluster::over(cluster, spec, !schedule.is_empty()))
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The underlying shared cluster (switch accounting, clock).
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.now()
    }

    /// Whether runs arm the watchdog and repair around failures.
    pub fn healing(&self) -> bool {
        self.healing
    }

    /// Per-node failure EWMA (all zeros when nothing has failed).
    pub fn node_sickness(&self) -> &[f64] {
        &self.sickness
    }

    /// `Engine::poll` calls made by every run so far — the host-side work a
    /// collective costs beyond its hops; it should stay a small multiple of
    /// the hops executed.
    pub fn engine_polls(&self) -> u64 {
        self.engine_polls
    }

    /// Table index of the `src -> dst` engine.
    fn slot(&self, src: usize, dst: usize) -> usize {
        src * self.spec.nodes.len() + dst
    }

    fn engine_mut(&mut self, src: usize, dst: usize) -> Option<&mut Engine<PairDriver>> {
        let slot = self.slot(src, dst);
        self.engines.get_mut(slot)?.as_deref_mut()
    }

    fn ensure_engine(&mut self, bank: &mut ProfileBank, src: usize, dst: usize) {
        let slot = self.slot(src, dst);
        if self.engines[slot].is_some() {
            return;
        }
        let driver = self.cluster.pair_driver(NodeId(src), NodeId(dst));
        let predictor = bank.predictor_for_pair(src, dst);
        let mut engine =
            Engine::new(driver, predictor, PAIR_STRATEGY.build()).expect("engine construction");
        if self.healing {
            engine = engine
                .with_fault_tolerance(HealthConfig::default())
                .expect("default health config");
        }
        self.engines[slot] = Some(Box::new(engine));
    }

    /// One round of the drain phase: polls each engine the cluster lists as
    /// ready, in pair order, queues the ids they report done and, when
    /// healing, adds to `evidence` each pair whose poll folded a chunk
    /// failure. `None` once nothing was ready and no evidence waits (newly
    /// posted hops can fill inboxes or be evidence themselves, so callers
    /// repeat until then); otherwise the engines whose poll failed, already
    /// dropped from the table.
    fn drain_ready(
        &mut self,
        done_queue: &mut Vec<HopKey>,
        evidence: &mut Vec<(usize, usize)>,
        queue_peak: &mut usize,
    ) -> Result<Option<Vec<Poisoned>>, String> {
        self.cluster.take_ready_into(&mut self.ready_pairs);
        let n = self.spec.nodes.len();
        let failures =
            |e: &Engine<PairDriver>| e.stats().chunks_failed + e.stats().chunks_timed_out;
        let mut poisoned = Vec::new();
        for &(src, dst) in &self.ready_pairs {
            // Not ours: a driver someone else registered on `cluster()`.
            let Some(slot) = self.engines.get_mut(src * n + dst) else { continue };
            let Some(engine) = slot.as_deref_mut() else { continue };
            self.engine_polls += 1;
            self.polled.clear();
            let failed_before = self.healing.then(|| failures(engine));
            match engine.poll_into(&mut self.polled) {
                Ok(()) => {
                    done_queue.extend(self.polled.iter().map(|&id| (src, dst, id)));
                    if failed_before.is_some_and(|before| failures(engine) > before) {
                        evidence.push((src, dst));
                    }
                }
                Err(e) => {
                    *slot = None;
                    poisoned.push(((src, dst), e));
                }
            }
        }
        *queue_peak = (*queue_peak).max(done_queue.len());
        if done_queue.len() > DONE_QUEUE_BOUND {
            return Err(format!(
                "flow-held completion queue wedged at {} entries",
                done_queue.len()
            ));
        }
        Ok((!self.ready_pairs.is_empty() || !evidence.is_empty()).then_some(poisoned))
    }

    /// Acts on the evidence the drain round gathered: every posted hop of a
    /// pair with a dead endpoint is torn out now, in pair and then message
    /// order, instead of at its deadline. A failure between live endpoints
    /// (a port kill, corruption, loss) is left to the engine's failover and
    /// the deadline, so nothing is torn out on a false alarm. An engine
    /// poisoned in this round gathered no evidence: its hops are already
    /// written off.
    fn tear_out_on_evidence(
        &mut self,
        bank: &mut ProfileBank,
        hops: &RunHops,
        watch: &mut Watch,
        stats: &mut RunStats,
    ) -> Result<(), String> {
        watch.evidence.sort_unstable();
        watch.evidence.dedup();
        for (src, dst) in std::mem::take(&mut watch.evidence) {
            if !self.cluster.node_is_down(src) && !self.cluster.node_is_down(dst) {
                continue;
            }
            let on_pair = (src, dst, MsgId(0))..=(src, dst, MsgId(u64::MAX));
            let live: Vec<usize> = watch.posted.range(on_pair).map(|(_, &i)| i).collect();
            for i in live {
                if self.tear_out(bank, hops, watch, stats, i)? {
                    stats.teardowns_on_evidence += 1;
                }
            }
        }
        Ok(())
    }

    /// Executes `dag` to completion, event-ordered. Fails when the
    /// simulator's calendar drains while hops are still outstanding (a
    /// malformed schedule), an engine rejects a post, or repair cannot
    /// converge.
    ///
    /// On a healing cluster a hop is torn out of its engine as soon as the
    /// engine reports a chunk failure toward a dead endpoint, and otherwise
    /// when its deadline (watchdog) passes; a hop torn out between live
    /// endpoints is retried with backoff on its pair. When the run reaches
    /// quiescence with an obligation unmet — typically because an endpoint
    /// died — a repair round replans the owed semantics over the survivors
    /// ([`crate::repair`]), grafting the plan as fresh hop indices
    /// (exactly-once: identities are never reused). Without healing the
    /// same loop runs with no deadline armed and no evidence gathered: no
    /// hop is ever torn out, and an engine failure is fatal.
    pub fn run(&mut self, bank: &mut ProfileBank, dag: &HopDag) -> Result<RunResult, String> {
        let run = self.execute(bank, dag)?;
        let duration_us = run.makespan().as_micros_f64();
        let Execution { started_at, finished_at, deliveries, grafts, stats } = run;
        let mut hops = Vec::with_capacity(dag.hops.len() + grafts.len());
        hops.extend_from_slice(&dag.hops);
        hops.extend(grafts);
        Ok(RunResult { started_at, finished_at, duration_us, deliveries, hops, stats })
    }

    /// [`CollectiveCluster::run`] without the copy of the compiled hops.
    pub(crate) fn execute(
        &mut self,
        bank: &mut ProfileBank,
        dag: &HopDag,
    ) -> Result<Execution, String> {
        dag.check()?;
        let n = dag.nodes;
        if n > self.spec.nodes.len() {
            return Err(format!("a {n}-node schedule on a {}-node cluster", self.spec.nodes.len()));
        }
        let started_at = self.cluster.now();
        let original_count = dag.hops.len();
        let mut hops = RunHops::new(&dag.hops);
        let mut roles: Vec<HopRole> = dag
            .hops
            .iter()
            .enumerate()
            .map(|(i, h)| original_role(dag.algorithm, n, i, h))
            .collect();
        let mut watch = Watch {
            state: vec![HopState::Pending; original_count],
            posted: BTreeMap::new(),
            next_deadline: SimTime::FAR_FUTURE,
            first_failure: None,
            evidence: Vec::new(),
        };
        let mut remaining: Vec<usize> = dag.hops.iter().map(|h| h.deps.len()).collect();

        // Semantic completion tracking, fed by every delivery (original or
        // repair) and consumed by the repair planners. The compiled root
        // self-releases: it is never the dst of a release hop.
        let mut released: BTreeSet<usize> = [0].into();
        let mut holders: BTreeSet<usize> = [0].into();
        let mut block_done: BTreeSet<(usize, usize)> = BTreeSet::new();

        let mut stats = RunStats::default();
        let mut last_repair_delivery: Option<SimTime> = None;
        // Completions the engines reported whose release is still pending,
        // and the buffer a release pass reads them from: swapped each pass,
        // so both keep their capacity for the whole run.
        let mut done_queue: Vec<HopKey> = Vec::new();
        let mut releasing: Vec<HopKey> = Vec::new();
        // Hops whose last dependency was delivered in this drain round.
        let mut ready: Vec<usize> = Vec::new();

        for hop in &dag.hops {
            self.ensure_engine(bank, hop.src, hop.dst);
        }
        for (i, &rem) in remaining.iter().enumerate() {
            if rem == 0 {
                self.post_watched(bank, hops.get(i), &mut watch, i, 0)?;
            }
        }

        loop {
            // Event loop until every hop is Done or Cancelled.
            while !watch.posted.is_empty() {
                // Drain inboxes to a fixed point, processing completions.
                while let Some(poisoned) = self.drain_ready(
                    &mut done_queue,
                    &mut watch.evidence,
                    &mut stats.retry_queue_peak,
                )? {
                    for (pair, e) in poisoned {
                        if !self.healing {
                            return Err(format!("poll {pair:?}: {e}"));
                        }
                        // Poisoned engine (e.g. a chunk burned through
                        // every retry), already dropped: write off its live
                        // hops; repair re-plans the owed work and a fresh
                        // engine replaces it.
                        let mut victims = Vec::new();
                        watch.posted.retain(|k, i| {
                            (k.0, k.1) != pair || {
                                victims.push(*i);
                                false
                            }
                        });
                        victims.sort_unstable();
                        for i in victims {
                            let h = hops.get(i);
                            self.note_failure(h.src, h.dst);
                            watch.first_failure.get_or_insert(self.cluster.now());
                            cancel_cascade(&mut watch.state, &hops.dependents, i);
                        }
                    }
                    if !watch.evidence.is_empty() {
                        self.tear_out_on_evidence(bank, &hops, &mut watch, &mut stats)?;
                    }
                    std::mem::swap(&mut done_queue, &mut releasing);
                    for key in releasing.drain(..) {
                        let Some(engine) = self.engine_mut(key.0, key.1) else {
                            continue; // completion of a dropped engine
                        };
                        let Some(completion) = engine.try_completion(key.2) else {
                            done_queue.push(key);
                            continue;
                        };
                        let Some(hop_idx) = watch.posted.remove(&key) else {
                            continue; // hop was written off while held
                        };
                        if !matches!(watch.state[hop_idx], HopState::Posted { .. }) {
                            continue;
                        }
                        let at = completion.delivered_at;
                        watch.state[hop_idx] = HopState::Done(at);
                        let hop = hops.get(hop_idx);
                        self.note_success(hop.src, hop.dst);
                        match roles[hop_idx] {
                            HopRole::Arrive => {}
                            HopRole::Release => {
                                released.insert(hop.dst);
                            }
                            HopRole::Payload => {
                                holders.insert(hop.dst);
                            }
                            HopRole::Block(s, d) => {
                                block_done.insert((s, d));
                            }
                        }
                        if hop_idx >= original_count {
                            last_repair_delivery =
                                Some(last_repair_delivery.map_or(at, |t| t.max(at)));
                        }
                        for &dep in hops.dependents.of(hop_idx) {
                            remaining[dep] = remaining[dep].saturating_sub(1);
                            if remaining[dep] == 0 && matches!(watch.state[dep], HopState::Pending)
                            {
                                ready.push(dep);
                            }
                        }
                    }
                    ready.sort_unstable();
                    for hop_idx in ready.drain(..) {
                        let hop = hops.get(hop_idx);
                        self.ensure_engine(bank, hop.src, hop.dst);
                        self.post_watched(bank, hop, &mut watch, hop_idx, 0)?;
                    }
                }
                if watch.posted.is_empty() {
                    break;
                }
                if !self.cluster.pump_one() {
                    return Err(format!(
                        "calendar drained with {} hops outstanding",
                        watch.posted.len()
                    ));
                }
                // Watchdog: deadlines are pinned on the calendar, so a
                // wedged hop is noticed the moment the clock passes it —
                // and until the clock reaches the earliest one there is
                // nothing to look for.
                let now = self.cluster.now();
                if now < watch.next_deadline {
                    continue;
                }
                // Hops still in time set the next look; each deadline given
                // out below (fresh or reposted) lowers it again.
                watch.next_deadline = SimTime::FAR_FUTURE;
                let mut expired: Vec<usize> = Vec::new();
                for (i, s) in watch.state.iter().enumerate() {
                    match s {
                        HopState::Posted { deadline, .. } if *deadline <= now => expired.push(i),
                        HopState::Posted { deadline, .. } => {
                            watch.next_deadline = watch.next_deadline.min(*deadline);
                        }
                        _ => {}
                    }
                }
                for i in expired {
                    if self.tear_out(bank, &hops, &mut watch, &mut stats, i)? {
                        stats.teardowns_on_deadline += 1;
                    } else if let HopState::Posted { deadline, .. } = &mut watch.state[i] {
                        // Completing (held or already delivered): give it a
                        // fresh deadline and keep waiting.
                        *deadline = now + self.hop_timeout(bank, hops.get(i), 0);
                        self.cluster.schedule_wakeup(*deadline);
                        watch.next_deadline = watch.next_deadline.min(*deadline);
                    }
                }
            }

            // Quiescent: every hop Done or Cancelled — and without healing
            // nothing was ever cancelled, so nothing is owed.
            if !self.healing {
                break;
            }
            // Check the owed semantics over the survivors; an empty plan
            // is completion.
            let survivors: BTreeSet<usize> =
                (0..n).filter(|&i| !self.cluster.node_is_down(i)).collect();
            stats.dead_nodes = n - survivors.len();
            let plan = match dag.algorithm.collective() {
                Collective::Barrier => repair::plan_barrier(&survivors, &released),
                Collective::Broadcast => repair::plan_bcast(dag.bytes, &survivors, &holders)?,
                Collective::AllToAll => repair::plan_alltoall(dag.bytes, &survivors, &block_done),
            };
            if plan.is_empty() {
                break;
            }
            if stats.repairs >= MAX_REPAIRS {
                return Err(format!(
                    "DAG repair did not converge after {MAX_REPAIRS} rounds \
                     ({} hops still owed)",
                    plan.len()
                ));
            }
            stats.repairs += 1;
            watch.first_failure.get_or_insert(self.cluster.now());
            // The new root (min survivor) self-releases, like the compiled
            // root did.
            if dag.algorithm.collective() == Collective::Barrier {
                if let Some(&root) = survivors.iter().next() {
                    released.insert(root);
                }
            }
            // Graft the plan as fresh indices and post its roots.
            let base = hops.graft(&plan);
            for rh in &plan {
                roles.push(rh.role);
                watch.state.push(HopState::Pending);
                remaining.push(rh.deps.len());
                stats.hops_rerouted += 1;
            }
            for (i, &rem) in remaining.iter().enumerate().skip(base) {
                let hop = hops.get(i);
                self.ensure_engine(bank, hop.src, hop.dst);
                if rem == 0 {
                    self.post_watched(bank, hop, &mut watch, i, 0)?;
                }
            }
        }

        let deliveries: Vec<Option<SimTime>> = watch
            .state
            .iter()
            .map(|s| match s {
                HopState::Done(at) => Some(*at),
                _ => None,
            })
            .collect();
        let finished_at = deliveries.iter().flatten().copied().max().unwrap_or(started_at);
        if let (Some(begin), Some(end)) = (watch.first_failure, last_repair_delivery) {
            stats.repair_latency_us = end.saturating_since(begin).as_micros_f64();
        }
        Ok(Execution { started_at, finished_at, deliveries, grafts: hops.grafts, stats })
    }

    /// Posts hop `i` (`h`) on its pair's engine — on a healing cluster with
    /// a watchdog deadline pinned on the calendar (`TIMEOUT_FACTOR ×` the
    /// bank's uncontended prediction, doubled per prior attempt). An engine
    /// that already excludes every rail parks the message and will raise no
    /// failure for it, so the post itself is evidence.
    fn post_watched(
        &mut self,
        bank: &mut ProfileBank,
        h: &Hop,
        watch: &mut Watch,
        i: usize,
        attempts: u32,
    ) -> Result<(), String> {
        let timeout = self.healing.then(|| self.hop_timeout(bank, h, attempts));
        let engine = self
            .engine_mut(h.src, h.dst)
            .ok_or_else(|| format!("hop {i}: no engine for pair ({}, {})", h.src, h.dst))?;
        let id = engine
            .post_send(h.bytes)
            .map_err(|e| format!("hop {i} ({}->{}): {e}", h.src, h.dst))?;
        if engine.health().is_some_and(|t| t.selectable_count() == 0) {
            watch.evidence.push((h.src, h.dst));
        }
        let deadline = match timeout {
            Some(timeout) => {
                let deadline = self.cluster.now() + timeout;
                self.cluster.schedule_wakeup(deadline);
                deadline
            }
            None => SimTime::FAR_FUTURE,
        };
        watch.posted.insert((h.src, h.dst, id), i);
        watch.state[i] = HopState::Posted { id, deadline, attempts };
        watch.next_deadline = watch.next_deadline.min(deadline);
        Ok(())
    }

    /// Tears posted hop `i` out of its pair's engine — the one way a hop
    /// leaves an engine early, whatever noticed it was stuck. Torn out, it
    /// is reposted on its pair (≤ [`MAX_HOP_RETRIES`] times, never toward a
    /// dead endpoint) or cancelled together with everything waiting on it.
    /// `Ok(false)` when the engine says the message still completes there
    /// (held or already delivered): the hop stays posted.
    fn tear_out(
        &mut self,
        bank: &mut ProfileBank,
        hops: &RunHops,
        watch: &mut Watch,
        stats: &mut RunStats,
        i: usize,
    ) -> Result<bool, String> {
        let HopState::Posted { id, attempts, .. } = watch.state[i] else { return Ok(false) };
        let h = hops.get(i);
        let engine = self
            .engine_mut(h.src, h.dst)
            .ok_or_else(|| format!("hop {i}: no engine for pair ({}, {})", h.src, h.dst))?;
        match engine.abandon(id) {
            Ok(true) => {}
            Ok(false) => return Ok(false),
            Err(e) => return Err(format!("abandon hop {i} ({}->{}): {e}", h.src, h.dst)),
        }
        watch.posted.remove(&(h.src, h.dst, id));
        self.note_failure(h.src, h.dst);
        watch.first_failure.get_or_insert(self.cluster.now());
        let endpoint_dead = self.cluster.node_is_down(h.src) || self.cluster.node_is_down(h.dst);
        if !endpoint_dead && attempts < MAX_HOP_RETRIES {
            stats.hops_retried += 1;
            self.post_watched(bank, h, watch, i, attempts + 1)?;
        } else {
            cancel_cascade(&mut watch.state, &hops.dependents, i);
        }
        Ok(true)
    }

    /// Watchdog budget for one hop attempt.
    fn hop_timeout(&mut self, bank: &mut ProfileBank, h: &Hop, attempts: u32) -> SimDuration {
        let base =
            (TIMEOUT_FACTOR * bank.hop_time_us(h.src, h.dst, h.bytes)).max(MIN_HOP_TIMEOUT_US);
        let scaled = base * f64::from(1u32 << attempts.min(16));
        SimDuration::from_micros(scaled as u64)
    }

    fn note_failure(&mut self, src: usize, dst: usize) {
        for node in [src, dst] {
            if let Some(s) = self.sickness.get_mut(node) {
                *s += (1.0 - *s) * SICKNESS_GAIN;
            }
        }
    }

    fn note_success(&mut self, src: usize, dst: usize) {
        for node in [src, dst] {
            if let Some(s) = self.sickness.get_mut(node) {
                *s *= SICKNESS_DECAY;
            }
        }
    }
}

/// Semantic role of a *compiled* hop. Repair hops carry their role
/// explicitly; originals are classified from the algorithm's shape: both
/// barrier generators root at node 0 and only release "upward"
/// (`src < dst`), broadcast hops all carry payload, a pairwise hop *is*
/// its block, and a ring hop at step `k` homes the block that has
/// traveled `k` edges: origin `(dst - k) mod n`.
fn original_role(algorithm: Algorithm, n: usize, idx: usize, hop: &Hop) -> HopRole {
    match algorithm {
        Algorithm::BarrierFlat | Algorithm::BarrierTree => {
            if hop.src < hop.dst {
                HopRole::Release
            } else {
                HopRole::Arrive
            }
        }
        Algorithm::BcastFlat | Algorithm::BcastTree => HopRole::Payload,
        Algorithm::AlltoallPairwise => HopRole::Block(hop.src, hop.dst),
        Algorithm::AlltoallRing => {
            // Ring hops are emitted step-major, n per step, steps 1..n.
            let k = idx / n + 1;
            HopRole::Block((hop.dst + n - k) % n, hop.dst)
        }
    }
}

/// Cancels hop `i` and every transitive dependent that can no longer run
/// (a dep that will never deliver starves the whole downstream cone).
/// Descendants are always `Pending` — a dependent is posted strictly after
/// its deps deliver.
fn cancel_cascade(state: &mut [HopState], dependents: &Dependents, i: usize) {
    let mut stack = vec![i];
    while let Some(j) = stack.pop() {
        let cancellable = match state.get(j) {
            Some(HopState::Pending) => true,
            // Only the cascade root may be live on an engine (and its
            // caller has already torn it out of that engine).
            Some(HopState::Posted { .. }) => j == i,
            _ => false,
        };
        if !cancellable {
            continue;
        }
        state[j] = HopState::Cancelled;
        stack.extend(dependents.of(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Algorithm;
    use nm_model::builtin;
    use nm_model::units::{KIB, MIB};

    fn setup(n: usize) -> (CollectiveCluster, ProfileBank) {
        let spec = ClusterSpec::homogeneous(n, 4, builtin::paper_testbed());
        (CollectiveCluster::new(spec.clone()), ProfileBank::new(spec))
    }

    #[test]
    fn bcast_flat_runs_to_completion_on_four_nodes() {
        let (mut cc, mut bank) = setup(4);
        let dag = Algorithm::BcastFlat.dag(4, MIB);
        let res = cc.run(&mut bank, &dag).expect("run");
        assert_eq!(res.deliveries.len(), 3);
        assert!(res.duration_us > 0.0);
        assert_eq!(res.finished_at, *res.deliveries.iter().flatten().max().expect("nonempty"));
        assert_eq!(
            res.stats,
            RunStats { retry_queue_peak: res.stats.retry_queue_peak, ..RunStats::default() }
        );
    }

    #[test]
    fn dependencies_execute_in_virtual_time_order() {
        let (mut cc, mut bank) = setup(4);
        let dag = Algorithm::BarrierTree.dag(4, 1);
        let res = cc.run(&mut bank, &dag).expect("run");
        for (i, h) in dag.hops.iter().enumerate() {
            for &d in &h.deps {
                assert!(
                    res.deliveries[i] > res.deliveries[d],
                    "hop {i} delivered before its dependency {d}"
                );
            }
        }
    }

    #[test]
    fn tree_bcast_beats_flat_on_eight_nodes() {
        // Measured (not predicted): the simulated root serializes 7 sends
        // in flat; the tree pipelines across senders.
        let flat = {
            let (mut cc, mut bank) = setup(8);
            cc.run(&mut bank, &Algorithm::BcastFlat.dag(8, 4 * MIB)).expect("run").duration_us
        };
        let tree = {
            let (mut cc, mut bank) = setup(8);
            cc.run(&mut bank, &Algorithm::BcastTree.dag(8, 4 * MIB)).expect("run").duration_us
        };
        assert!(tree < flat, "tree {tree} vs flat {flat}");
    }

    #[test]
    fn back_to_back_runs_share_the_monotonic_clock() {
        let (mut cc, mut bank) = setup(2);
        let dag = Algorithm::BcastFlat.dag(2, 64 * KIB);
        let first = cc.run(&mut bank, &dag).expect("run");
        let second = cc.run(&mut bank, &dag).expect("run");
        assert!(second.started_at >= first.finished_at);
        let rel = (second.duration_us - first.duration_us).abs() / first.duration_us;
        assert!(
            rel < 0.05,
            "quiet-cluster repeats agree: {} vs {}",
            first.duration_us,
            second.duration_us
        );
    }

    #[test]
    fn alltoall_pairwise_completes_under_contention() {
        let (mut cc, mut bank) = setup(4);
        let dag = Algorithm::AlltoallPairwise.dag(4, 256 * KIB);
        let res = cc.run(&mut bank, &dag).expect("run");
        assert_eq!(res.deliveries.len(), 12);
        // All zero-dep hops of round 1 start together; the whole exchange
        // cannot be faster than one hop alone.
        let single = {
            let (mut cc2, mut bank2) = setup(4);
            cc2.run(&mut bank2, &Algorithm::BcastFlat.dag(2, 256 * KIB)).expect("run").duration_us
        };
        assert!(res.duration_us > single);
    }

    #[test]
    fn an_eager_sized_hop_is_no_slower_than_the_best_single_rail() {
        // The pair engines split an eager hop across both rails and copy
        // each chunk on its own idle core; were the copies serialized on
        // one core, the split would lose to the fastest rail alone.
        for bytes in [16 * KIB, 32 * KIB, 64 * KIB] {
            let (mut cc, mut bank) = setup(2);
            let hop = cc.run(&mut bank, &Algorithm::BcastFlat.dag(2, bytes)).expect("run");
            let single = builtin::paper_testbed()
                .iter()
                .map(|l| l.one_way_us(bytes).get())
                .fold(f64::INFINITY, f64::min);
            assert!(
                hop.duration_us <= single,
                "{bytes} B: hop {} vs single rail {single}",
                hop.duration_us
            );
        }
    }

    #[test]
    fn an_eager_sized_alltoall_lands_near_its_prediction() {
        // The bank predicts the equal-completion split over both rails,
        // which only an engine that offloads the chunk copies reaches; with
        // more than two nodes, only if the destination takes each incoming
        // chunk on a core its own send copy leaves free.
        for n in [2, 8, 16] {
            let (mut cc, mut bank) = setup(n);
            let dag = Algorithm::AlltoallPairwise.dag(n, 16 * KIB);
            let predicted = crate::cost::predict_dag_us(&mut bank, &dag);
            let measured = cc.run(&mut bank, &dag).expect("run").duration_us;
            let err = (measured - predicted).abs() / predicted;
            assert!(err <= 0.005, "n={n}: measured {measured} vs predicted {predicted}");
        }
    }

    #[test]
    fn polls_scale_with_hops_not_with_engines() {
        // 240 engines, 240 hops: each hop's events concern its own engine
        // (and, while something is queued there, its node's siblings).
        // Polling all 15 engines of a node on each of its NIC and core idle
        // events took 42 polls per hop.
        let (mut cc, mut bank) = setup(16);
        let dag = Algorithm::AlltoallPairwise.dag(16, 16 * KIB);
        cc.run(&mut bank, &dag).expect("run");
        let per_hop = cc.engine_polls() as f64 / dag.hops.len() as f64;
        assert!(per_hop <= 8.0, "{per_hop} engine polls per hop");
        let first = cc.engine_polls();
        cc.run(&mut bank, &dag).expect("run");
        assert!(cc.engine_polls() > first, "the count is cumulative over runs");
    }

    /// The construction `Dependents` replaced: one `Vec` per hop, filled in
    /// hop order.
    fn dependents_by_push(hops: &[Hop]) -> Vec<Vec<usize>> {
        let mut rows = vec![Vec::new(); hops.len()];
        for (i, h) in hops.iter().enumerate() {
            for &d in &h.deps {
                rows[d].push(i);
            }
        }
        rows
    }

    fn assert_rows_match(hops: &RunHops, what: &str) {
        let all: Vec<Hop> = (0..hops.len()).map(|i| hops.get(i).clone()).collect();
        for (i, row) in dependents_by_push(&all).iter().enumerate() {
            assert_eq!(hops.dependents.of(i), row.as_slice(), "{what}: hop {i}");
        }
    }

    #[test]
    fn compressed_dependents_equal_one_vec_per_hop_before_and_after_grafts() {
        for n in [2usize, 3, 8, 16] {
            let survivors: BTreeSet<usize> = (0..n).collect();
            for algorithm in crate::ALGORITHMS {
                let dag = algorithm.dag(n, 4096);
                let mut hops = RunHops::new(&dag.hops);
                assert_rows_match(&hops, &format!("{algorithm:?} n={n}"));
                // Two repair rounds: a re-barrier (releases wait on every
                // arrival), then a re-broadcast (each wave on the last).
                let barrier = repair::plan_barrier(&survivors, &[0].into());
                assert_eq!(hops.graft(&barrier), dag.hops.len());
                assert_rows_match(&hops, &format!("{algorithm:?} n={n}, one graft"));
                let bcast = repair::plan_bcast(64, &survivors, &[0].into()).expect("plan");
                assert_eq!(hops.graft(&bcast), dag.hops.len() + barrier.len());
                assert_rows_match(&hops, &format!("{algorithm:?} n={n}, two grafts"));
            }
        }
    }

    #[test]
    fn a_hop_posted_with_no_rail_left_toward_a_dead_node_is_torn_out_at_the_post() {
        const DEAD: usize = 3;
        let spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        let forever = SimDuration::from_micros(10_000_000);
        let schedule = ClusterFaultSchedule::new(1).with(nm_faults::ClusterFaultSpec::node_down(
            DEAD,
            SimTime::ZERO,
            forever,
        ));
        let mut cc = CollectiveCluster::with_faults(spec.clone(), &schedule).expect("cluster");
        let mut bank = ProfileBank::new(spec);
        // Every send from the dead node is rejected by its downed ports: one
        // failure quarantines a rail, and the retry that finds none parks.
        cc.ensure_engine(&mut bank, DEAD, 0);
        let warm = cc.engine_mut(DEAD, 0).expect("engine").post_send(MIB).expect("post");
        loop {
            let engine = cc.engine_mut(DEAD, 0).expect("engine");
            engine.poll().expect("poll");
            if engine.health().expect("healing").selectable_count() == 0 {
                assert!(engine.abandon(warm).expect("abandon"), "the warm-up is parked");
                break;
            }
            assert!(cc.cluster.pump_one(), "calendar dry with a rail still selectable");
        }

        // The flat barrier's arrival from the dead node goes onto that
        // engine, which parks it and will raise no failure for it: only the
        // post can tell. The first failure is the post instant, so repair
        // latency is the whole makespan.
        let dag = Algorithm::BarrierFlat.dag(4, 1);
        let arrival = dag.hops.iter().position(|h| h.src == DEAD).expect("arrival from DEAD");
        let res = cc.run(&mut bank, &dag).expect("barrier heals");
        assert_eq!(res.deliveries[arrival], None);
        assert_eq!(res.stats.teardowns_on_evidence, 1, "stats: {:?}", res.stats);
        assert_eq!(res.stats.teardowns_on_deadline, 0, "stats: {:?}", res.stats);
        assert_eq!(res.stats.repairs, 1);
        assert_eq!(res.stats.repair_latency_us, res.duration_us);
        assert!(res.duration_us < MIN_HOP_TIMEOUT_US, "{} us", res.duration_us);
    }

    #[test]
    fn heterogeneous_cluster_with_partial_rails_still_routes() {
        let mut spec = ClusterSpec::heterogeneous(4, builtin::paper_testbed());
        spec.nodes[2].rails = Some(vec![0]);
        spec.nodes[3].rails = Some(vec![0, 1]);
        let mut cc = CollectiveCluster::new(spec.clone());
        let mut bank = ProfileBank::new(spec);
        let dag = Algorithm::BarrierTree.dag(4, 1);
        let res = cc.run(&mut bank, &dag).expect("run");
        assert_eq!(res.deliveries.len(), dag.hops.len());
    }
}
