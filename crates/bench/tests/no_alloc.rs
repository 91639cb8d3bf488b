//! Runtime cross-check of nm-analyzer's static `no_alloc` proof: a counting
//! global allocator wraps the system allocator, and four hot paths are held
//! to what they may allocate:
//!
//! 1. the warm decision fast path (`MulticoreEager::decide` with a primed
//!    plan cache) — **exactly zero**;
//! 2. the replica read path (`DecisionReader::read` catching up on
//!    published op batches) — per-op application included, so the proof
//!    covers decode + apply, not just the caught-up fast exit — **exactly
//!    zero**;
//! 3. the whole engine cycle (`Engine::post_send` + `Engine::wait` over a
//!    simulated paper testbed under `HeteroSplit`, warm: post, decide,
//!    submit, simulate, poll, flow release, completion) — **at most one per
//!    message**, the `MsgCompletion::chunks` handed to the caller. The flow
//!    sequencer's in-order fast path is also measured on its own, from a
//!    fresh sequencer: **exactly zero**;
//! 4. a warm collective round (`Collectives::run` of a barrier, a broadcast
//!    and an all-to-all on 16 nodes: plan memo, selection, 240 engines and
//!    the runner's drain loop) — **at most two per hop** over 16 rounds
//!    (about 1.5 measured: the chunk list, plus what each run sets up once).
//!
//! The first three run 10 000 calls each.
//!
//! The static rule can only prove the absence of *named* allocation
//! patterns; this test catches anything it cannot see (untyped `.collect()`
//! that resolves to a heap container, allocation inside dependencies). The
//! target runs with `harness = false`: the libtest harness prints (and
//! allocates) from its own thread mid-measurement, so the proof owns the
//! whole process instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nm_bench::sample_predictor;
use nm_collectives::{Collective, Collectives, ALGORITHMS, BARRIER_BYTES};
use nm_core::strategy::multicore::MulticoreEager;
use nm_core::strategy::{Ctx, Strategy, StrategyKind};
use nm_model::builtin;
use nm_model::units::{KIB, MIB};
use nm_sim::{ClusterSpec, CoreId};

/// Counts every allocation; frees are irrelevant to the proof.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter increment
// is the only addition and does not affect allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: unsafe per the GlobalAlloc trait; the contract (layout
    // validity, returned-pointer semantics) is met by forwarding to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // RELAXED-OK: the counter is read on the same thread after the
        // measured section; no cross-thread ordering is required.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout unchanged to the system
        // allocator, which upholds the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: unsafe per the GlobalAlloc trait; ptr/layout pairing is the
    // caller's obligation and is forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `alloc` above, i.e. by the system
        // allocator, with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    // Setup may allocate freely: sampling, predictor, strategy, context.
    let spec = ClusterSpec::paper_testbed();
    let predictor = sample_predictor(&spec);
    let mut strategy = MulticoreEager::new();
    let queued = [64 * KIB]; // eager on every paper rail (threshold 128 KiB)
    let cores = [0, 1, 2, 3].map(CoreId);
    let ctx = Ctx::quiet(&predictor, &cores, &queued);

    // Cold call: primes the plan cache and may allocate.
    let cold = strategy.decide(&ctx);
    std::hint::black_box(&cold);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let action = strategy.decide(&ctx);
        std::hint::black_box(&action);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "warm decide() allocated {} time(s) over 10k calls; the decision \
         fast path must be allocation-free",
        after - before
    );
    println!("no_alloc proof: 0 allocations across 10000 warm decide() calls");

    // Replica read path: pre-publish health/feedback/epoch batches (setup,
    // may allocate), then prove the reader's catch-up — op decode + apply
    // per pending op, plus the caught-up fast exit — never allocates. The
    // ring holds every op (capacity 4096 > 3 * 1000), so no reader laps
    // onto the allocating master-resync path here.
    use nm_core::replicated::{CounterKind, EngineOp, SharedDecisionState};
    use nm_core::RailState;

    let shared = SharedDecisionState::new(2);
    let mut reader = shared.reader();
    std::hint::black_box(reader.read()); // drain the initial state
    for i in 0..1_000u64 {
        shared.publish_batch(&[
            EngineOp::Health {
                rail: 1,
                state: if i % 2 == 0 { RailState::Degraded } else { RailState::Healthy },
            },
            EngineOp::Feedback { rail: 0, ewma_ratio: 1.0 + (i % 7) as f64 * 0.01 },
            EngineOp::Counter { kind: CounterKind::FeedbackRecords, delta: 1 },
        ]);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    // First read applies all 3000 pending ops; the rest take the
    // caught-up fast exit. Both must be allocation-free.
    for _ in 0..10_000 {
        let facts = reader.read();
        std::hint::black_box(facts.epoch());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "replica read allocated {} time(s) catching up on 3000 ops + 10k \
         warm reads; the replica read path must be allocation-free",
        after - before
    );
    assert_eq!(reader.resyncs(), 0, "catch-up must not have lapped");
    println!("no_alloc proof: 0 allocations across 3000-op catch-up + 10000 replica reads");

    // The engine's steady state: Fig 8's nine sizes one at a time under
    // `HeteroSplit`, two chunks per message. Four rounds of the sizes grow
    // every buffer the engine, simulator and plan cache keep; the engine's
    // duplicate-detection ring (the last 4096 delivered chunk ids) takes
    // longer: it grows to its bound in the first ~2 000 messages, and its
    // hash set rehashes out its tombstones once, into its final table,
    // after ~20 000 (18 000–21 000 over 30 runs). Past that, what is left
    // per message is the completion's chunk layout.
    const FIG8_SIZES: [u64; 9] =
        [32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB, 8 * MIB];
    const CYCLES: u64 = 10_000;
    let mut engine = nm_bench::paper_engine_kind(StrategyKind::HeteroSplit);
    let cycle = |engine: &mut nm_core::Engine<_>, i: usize| {
        let id = engine.post_send(FIG8_SIZES[i % FIG8_SIZES.len()]).expect("post");
        let done = engine.wait(id).expect("wait");
        std::hint::black_box(&done);
    };
    for i in 0..4 * FIG8_SIZES.len() + 3 * CYCLES as usize {
        cycle(&mut engine, i);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..CYCLES as usize {
        cycle(&mut engine, i);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        allocs <= CYCLES,
        "{allocs} allocations over {CYCLES} warm post_send + wait cycles; the engine's \
         steady state may allocate only each completion's chunk list"
    );
    println!("no_alloc proof: {allocs} allocations across {CYCLES} warm post_send + wait cycles");

    // The flow release every completion goes through, in order with
    // nothing held, from a fresh sequencer: no reorder-buffer node, ever.
    let mut sequencer = nm_proto::Sequencer::new(16);
    let mut out = Vec::with_capacity(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for seq in 0..10_000u64 {
        out.clear();
        sequencer.accept_into(seq, seq, &mut out).expect("in order");
        std::hint::black_box(&out);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "in-order accept_into allocated {allocs} time(s) over 10k arrivals");
    println!("no_alloc proof: 0 allocations across 10000 in-order accept_into calls");

    // A collective round's steady state: a barrier, a 64 KiB broadcast and
    // a 16 KiB all-to-all on 16 nodes through `Collectives::run` — the
    // variant chosen from memoized plans, each hop posted on its pair's
    // engine and drained through the runner's kept buffers. Warm rounds
    // compile every plan, create all 240 engines, settle the selector on
    // the variants it keeps picking and grow every buffer and engine table.
    // Past that, a hop may allocate its completion's chunk list and a share
    // of what a run sets up per operation.
    const NODES: usize = 16;
    const ROUND: [(Collective, u64); 3] = [
        (Collective::Barrier, BARRIER_BYTES),
        (Collective::Broadcast, 64 * KIB),
        (Collective::AllToAll, 16 * KIB),
    ];
    const WARM_ROUNDS: usize = 16;
    const ROUNDS: usize = 16;
    let mut hops_of = [0u64; ALGORITHMS.len()];
    for (collective, bytes) in ROUND {
        for a in collective.algorithms() {
            hops_of[a.ordinal()] = a.dag(NODES, bytes).hops.len() as u64;
        }
    }
    let mut stack = Collectives::new(ClusterSpec::homogeneous(NODES, 4, builtin::paper_testbed()));
    let round = |stack: &mut Collectives| {
        let mut hops = 0;
        for (collective, bytes) in ROUND {
            let op = stack.run(collective, bytes).expect("collective");
            hops += hops_of[op.algorithm.ordinal()];
        }
        hops
    };
    for _ in 0..WARM_ROUNDS {
        round(&mut stack);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hops: u64 = (0..ROUNDS).map(|_| round(&mut stack)).sum();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        allocs <= 2 * hops,
        "{allocs} allocations over {hops} hops of {ROUNDS} warm collective rounds; a \
         collective hop may allocate at most twice"
    );
    println!("no_alloc proof: {allocs} allocations across {hops} hops of {ROUNDS} warm collective rounds");
}
