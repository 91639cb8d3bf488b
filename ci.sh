#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The machine-readable artifacts that hold host-measured numbers (analyzer
# report, scaling bench) are gated on key presence; the virtual-time BENCH
# files are byte-compared with their committed copy by `repro check`
# instead, which subsumes it.
check_bench_schema() {
    local file="$1"
    shift
    local key
    for key in "$@"; do
        grep -q "\"$key\":" "$file" || {
            echo "$file missing key: $key" >&2
            exit 1
        }
    done
}

# One simulated transport, one fault model: exactly one file in nm-core may
# step a `Simulator`, and the second shaping slot / fault state stay gone.
[ "$(grep -rlE '\.step\(' crates/core/src | wc -l)" -eq 1 ] \
    || { echo "Simulator::step is called from more than one file under crates/core/src" >&2; exit 1; }
# The calendar is a heap of what will pop: the bucket ring and the
# cancellation nothing called stay gone.
! grep -nE 'NUM_BUCKETS|migrate_far|fn cancel|struct EventId' crates/sim/src/event.rs \
    || { echo "the calendar ring or event cancellation is back in sim/src/event.rs" >&2; exit 1; }
# The simulator holds a transfer only while it is in flight: no per-transfer
# record, state enum or read-back accessor, and nm-core reads nothing back.
! grep -rnE 'struct Transfer\b|TransferState|pub fn transfer\(' crates/sim/src \
    || { echo "a per-transfer history is back in crates/sim/src" >&2; exit 1; }
! grep -rnF 'sim.transfer(' crates/core/src \
    || { echo "crates/core/src reads a transfer back from the simulator" >&2; exit 1; }
! grep -rnE 'set_rail_fault|struct FaultState' crates/*/src \
    || { echo "a second fault-shaping slot or fault state is back" >&2; exit 1; }

# A smaller engine: one function puts chunks on the wire, one releases
# messages from their flow, and the three chunk-keyed ledgers that one
# record replaced stay gone.
[ "$(grep -rF 'transport.submit(' crates/core/src/engine/ | wc -l)" -eq 1 ] \
    || { echo "Transport::submit must have exactly one caller under crates/core/src/engine/" >&2; exit 1; }
[ "$(grep -rF 'Sequencer::new(' crates/core/src/engine/ | wc -l)" -eq 1 ] \
    || { echo "the per-flow release must be written exactly once under crates/core/src/engine/" >&2; exit 1; }
! grep -rnE 'chunk_owner|chunk_prediction|chunk_meta' crates/*/src \
    || { echo "a parallel chunk-keyed ledger is back" >&2; exit 1; }

# One allocation per message in steady state: the engine reads events and
# idle cores into buffers it keeps (`poll_into`, `idle_cores_into`), never
# through the allocating forms, and a strategy borrows the idle cores.
! grep -rnE 'transport\.(poll|idle_cores)\(\)' crates/core/src/engine/ \
    || { echo "the engine calls an allocating Transport::poll/idle_cores" >&2; exit 1; }
! grep -n 'pub idle_cores: Vec' crates/core/src/strategy/mod.rs \
    || { echo "Ctx::idle_cores must stay a borrowed slice" >&2; exit 1; }

# Recovery at event speed: the engine asks its transport for a wake-up in
# one place (`arm`), and no retry re-parks itself a microsecond ahead.
[ "$(grep -rF 'transport.schedule_wakeup(' crates/core/src/engine/ | wc -l)" -eq 1 ] \
    || { echo "Transport::schedule_wakeup must have exactly one caller under crates/core/src/engine/" >&2; exit 1; }
! grep -nF 'SimDuration::from_micros(1)' crates/core/src/engine/recovery.rs \
    || { echo "a one-microsecond spin is back in engine/recovery.rs" >&2; exit 1; }

# One record per message: the id-ordered `msgs` table is the only
# `MsgId`-keyed collection under the engine, and the four parallel ledgers
# it replaced (two maps, two sets) stay gone. (`MsgCensus` has count fields
# of those names; a collection-typed one is what must not come back.)
[ "$(grep -rhoE '(HashMap|HashSet|BTreeMap)<MsgId' crates/core/src/engine/ | wc -l)" -eq 1 ] \
    || { echo "exactly one MsgId-keyed collection may live under crates/core/src/engine/" >&2; exit 1; }
! grep -rnE '^\s*(inflight|held|completions|shed): *(Hash|BTree|Vec)' crates/core/src/engine/ \
    || { echo "a parallel message-keyed ledger is back" >&2; exit 1; }

# One multicore runtime: every name `nm-runtime` re-exports is named by some
# caller outside the crate, and the thread mechanisms nobody called (with
# the deque shim only they imported) stay gone.
outside_runtime=$(ls -d crates/*/src | grep -v '^crates/runtime/')
for name in $(grep -E '^pub use ' crates/runtime/src/lib.rs | sed -E 's/.*:://; s/[{},;]/ /g'); do
    grep -rqw --include='*.rs' "$name" $outside_runtime examples tests \
        || { echo "nm-runtime re-exports $name, which nothing outside the crate names" >&2; exit 1; }
done
! grep -rnE 'StealPool|RequestList|ProgressionEngine|PeriodicPump|TaskletQueue|crossbeam::deque' crates compat examples tests \
    || { echo "an uncalled thread mechanism (or its deque shim) is back" >&2; exit 1; }

# The real-thread path is mechanism only: no ledger or checksum of its own
# under any crate, one framed wire mode (raw or integrity-framed, nothing in
# between), and a worker pool that depends on no workspace crate.
! grep -rnE 'struct (ShmemStats|ShmemCounters|OffloadStats|OffloadSnapshot)|fn checksum' crates/*/src --include='*.rs' \
    || { echo "a private stats struct or checksum is back on the real-thread path" >&2; exit 1; }
! grep -rn 'with_framing' crates compat examples tests --include='*.rs' \
    || { echo "the unauthenticated framing mode is back" >&2; exit 1; }
! grep -nE 'nm-replog|nm-sync' crates/runtime/Cargo.toml \
    || { echo "nm-runtime must depend on no workspace crate" >&2; exit 1; }

# One owner per check. Panic-freedom of the hot files is clippy's: every file
# in analyzer.toml's `[hot_paths] files` opens with the deny attribute (the
# list and the attributes cannot drift), and the analyzer's retired rule
# names cannot come back as allow comments.
hot_files=$(sed -n '/^\[hot_paths\]/,/^\]/p' analyzer.toml | grep -oE '"[^"]+\.rs"' | tr -d '"')
[ -n "$hot_files" ] || { echo "analyzer.toml lists no [hot_paths] files" >&2; exit 1; }
for f in $hot_files crates/core/src/replicated.rs crates/replog/src/lib.rs; do
    grep -qF '#![deny(clippy::indexing_slicing' "$f" \
        || { echo "$f is a hot-path file without #![deny(clippy::indexing_slicing, ...)]" >&2; exit 1; }
done
! grep -rnE 'nm-analyzer: allow\((index|unwrap|expect|panic|todo|unreachable)\)' crates compat examples tests \
    || { echo "panic-freedom escapes are #[expect(clippy::...)] attributes, not analyzer allows" >&2; exit 1; }
# The lock-order analysis left with the locks it ordered: one production
# lock field (`nm-replog`'s master) cannot form a cycle.
[ "$(grep -rnE '^\s*(pub(\([a-z]+\))? )?[a-z_0-9]+: .*\b(Mutex|RwLock)<' crates/*/src --include='*.rs' | wc -l)" -eq 1 ] \
    || { echo "a second lock: bring the order analysis back" >&2; exit 1; }

# A collective hop costs about what its engine message costs: outside its
# tests the runner keeps engines in a dense pair table (no pair-keyed map),
# who waits on whom in one compressed table (no `Vec` per hop), and reads the
# ready list and each poll's completions into buffers it keeps.
! sed '/^#\[cfg(test)\]/,$d' crates/collectives/src/runner.rs \
    | grep -nE 'BTreeMap<\(usize, usize\), Engine|Vec<Vec<usize>>|take_ready\(\)|\.poll\(\)' \
    || { echo "the collectives runner is back on a map, per-hop Vecs or an allocating poll" >&2; exit 1; }
# One tear-out path: a hop leaves its engine early through one helper,
# whether its deadline passed or its engine reported a failure toward a dead
# endpoint, so the two triggers cannot fork.
[ "$(sed '/^#\[cfg(test)\]/,$d' crates/collectives/src/runner.rs | grep -cF '.abandon(')" -eq 1 ] \
    || { echo "Engine::abandon must have exactly one caller in the collectives runner" >&2; exit 1; }

cargo build --release
cargo test -q
# `undocumented_unsafe_blocks` is promoted to deny: every unsafe block
# must carry a `// SAFETY:` comment (nm-analyzer's unsafe-audit rule
# extends the same requirement to `unsafe fn`/`unsafe impl` and to the
# vendored compat/ shims clippy never sees). The hot files' own
# `#![deny(clippy::unwrap_used, ...)]` attributes and any stale
# `#[expect(clippy::indexing_slicing)]` fail here too.
cargo clippy --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks
cargo fmt --check

# Static analysis lane: the workspace-specific rules no generic tool has —
# `.clone()` in hot-path fns, unit hygiene at public API boundaries,
# transitive no-alloc proofs, the nm-sync facade gate, blocking-call
# reachability from hot paths, atomic ordering protocols, `#[must_use]` on
# decision fns, the SAFETY-comment audit, determinism taint and bounded
# growth. Exits nonzero on any finding without a reasoned
# `nm-analyzer: allow`; stale or unknown-rule allows are findings
# themselves. The whole lane must finish in under 5 seconds so it stays a
# pre-commit-grade check.
cargo build -q -p nm-analyzer
analyzer_start_ns=$(date +%s%N)
cargo run -q -p nm-analyzer -- --root . --json ANALYZER_REPORT.json
analyzer_elapsed_ms=$(( ($(date +%s%N) - analyzer_start_ns) / 1000000 ))
if [ "$analyzer_elapsed_ms" -ge 5000 ]; then
    echo "analyzer lane took ${analyzer_elapsed_ms}ms (budget 5000ms)" >&2
    exit 1
fi
echo "ci: analyzer lane ${analyzer_elapsed_ms}ms (budget 5000ms)"
cargo test -q -p nm-analyzer
check_bench_schema ANALYZER_REPORT.json \
    tool version schema files_scanned fns_total fns_hot fns_no_alloc \
    atomic_sites_unresolved growth_sites_unresolved timings_ms total_ms status \
    counts allowed_counts findings allows atomic_protocols \
    determinism_sources growth_sites

# Dependency audit (availability-gated: needs the cargo-deny binary and a
# local advisory DB, neither of which the offline container ships; config
# lives in deny.toml).
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check licenses advisories
else
    echo "ci: cargo-deny unavailable; skipping license/advisory audit" >&2
fi

# Loom lane: exhaustively model-check the replog seqlock ring — no lost
# ops, replica convergence, no torn reads across a lap — under the vendored
# loom shim. `--cfg loom` swaps the nm-sync facade to the model types; a
# separate target dir keeps the flag from invalidating the main build
# cache. `nm-replog` is the one crate this lane compiles and the one crate
# under analyzer.toml's `[facade]`. (`WorkerPool` parks in a channel `recv`
# loom does not model: it uses `std` directly, and its protocol is pinned
# by the stress tests in `crates/runtime/src/worker.rs` and by the TSan
# lane below.)
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p nm-replog --features loom --test loom

# Miri lane: interpret the unsafe hotspot (aggregate) under the nightly
# Miri borrow/UB checker, plus the portable CRC32C kernel
# (`cfg(miri)` compiles the SSE4.2 one out, so this is the lane that runs
# slicing-by-8 against the oracle on an x86 host) and the pointer-identity
# proof of the `bytes` shim's zero-copy conversions. Scoped by test-name
# filter so the proptest suites don't crawl under the interpreter. Skipped
# when the nightly miri component is not installed (this container has no
# network to fetch it); run `rustup component add --toolchain nightly miri`
# where possible.
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -p nm-proto aggregate
    cargo +nightly miri test -p nm-proto crc
    cargo +nightly miri test -p bytes keep_the_allocation
else
    echo "ci: nightly miri component unavailable; skipping Miri lane" >&2
fi

# ThreadSanitizer lane (opt-in: NM_TSAN=1): the runtime + integration
# stress tests under TSan with an instrumented std (-Zbuild-std, needs
# the nightly rust-src component). Expensive, so not part of the default
# gate.
if [ "${NM_TSAN:-0}" = "1" ]; then
    if [ -e "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.lock" ]; then
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
            -p nm-runtime -p nm-tests
    else
        echo "ci: NM_TSAN=1 but nightly rust-src is not installed; cannot build an instrumented std" >&2
        exit 1
    fi
fi

# Long differential lane: the closed-form profile inverse and the direct
# water level against the searches they replaced (kept under test as
# oracles) — a million seeded cases each, `u64` / `Split ==`, in release
# mode so the whole lane takes a few seconds.
cargo test -q --release -p nm-model --lib -- --ignored inverse_matches_search_long
cargo test -q --release -p nm-tests --test split_differential -- --ignored matches_bisection_long
# The engine's observable stream (48 seeded fault/overload scripts) in
# release mode too: optimisation must not move a digest.
cargo test -q --release -p nm-core --test engine_stream_pin
# The collectives' per-hop delivery digests likewise: the pair engines'
# offload delays are `f64` arithmetic, which optimisation must not move —
# nor the bank's quiet-hop predictions, which price the same delays.
cargo test -q --release -p nm-collectives --test schedule_pin
cargo test -q --release -p nm-collectives --test quiet_hop_prediction
# And the shapes a pair engine meets inside a collective, each hop's
# delivery pinned to the nanosecond: the 64 KiB tree broadcast's fan-out
# and the 16 KiB pairwise all-to-all's exchange.
cargo test -q --release -p nm-collectives --test split_never_loses
# The composite strategy's small batch, its last delivery pinned to the
# nanosecond: the T_O of a copy moved off core 0 is `f64` arithmetic too.
cargo test -q --release -p nm-tests --test composite_strategy
# And the poll-count pin: one outage ridden out in a few hundred polls.
cargo test -q --release -p nm-core --test outage_polls

# Perf smoke lane: every workload of the benchmark at tiny op counts. The
# bin checks its own outputs (receiver byte-compares, conservation, golden
# splits) and exits non-zero when any check fails; no timing is gated here.
cargo run --release -p nm-bench --bin perf -- --quick

# Offload-cost smoke lane: the T_O harness on real threads. It asserts its
# own route counts (every idle probe unsignaled, every probe behind the gate
# signaled); the latencies it prints are host-measured and not gated.
cargo run --release -p nm-bench --bin repro -- table_offload

# Every deterministic artifact — the figure and table goldens, the
# ablations, the sampling tool and the four virtual-time BENCH files —
# regenerated in-process at seed 42 and byte-compared with its committed
# copy, in release mode too: optimisation must not move a byte. A diff
# means a schedule, split or fault outcome moved — never acceptable as a
# side effect (a PR that means to move one commits the new file).
cargo run --release -p nm-bench --bin repro -- check

# Every seed, not only seed 42: the seeded harnesses over a seed range, in
# a temporary directory (each run rewrites its BENCH file in the cwd). Each
# run asserts its own conservation before it writes — overload: offered =
# accepted + rejected and accepted = completed + shed + failed; resilience:
# every message completes; cluster_resilience: no hop retried, each
# node-death barrier under 10× fault-free — and must terminate. A seed known to fail is
# listed as `harness:seed`, each with a comment naming the ROADMAP item
# that removes it. The list may only shrink: a listed seed that passes
# fails the lane until its entry is deleted.
sweep_known_failures=""
sweep_dir=$(mktemp -d)
repro="$(pwd)/target/release/repro"
for lane in overload:600 resilience:300 cluster_resilience:100; do
    harness=${lane%%:*}
    for seed in $(seq 1 "${lane#*:}"); do
        case " $sweep_known_failures " in
            *" $harness:$seed "*) known=1 ;;
            *) known=0 ;;
        esac
        if (cd "$sweep_dir" && timeout 60 "$repro" "$harness" --seed "$seed" >/dev/null 2>&1); then
            [ "$known" -eq 0 ] \
                || { echo "repro $harness --seed $seed passes now: delete it from sweep_known_failures" >&2; exit 1; }
        else
            [ "$known" -eq 1 ] \
                || { echo "repro $harness --seed $seed fails or does not terminate" >&2; exit 1; }
        fi
    done
done
rm -rf "$sweep_dir"

# Multicore scaling harness: replicated decision state vs the locked
# baseline under health churn (its `decide_only_ns` reference and both
# baselines are timed in the one process, so host drift cancels).
cargo run --release -p nm-bench --bin repro -- scaling
check_bench_schema BENCH_scaling.json \
    bench msg_bytes cores_available worker_counts decide_only_ns \
    replicated_ns_per_decision_1w replica_read_overhead_pct \
    locked_ns_per_decision_1w lock_copy_ns xfer_ns_model \
    replicated_ops_per_sec locked_ops_per_sec \
    modeled_replicated_ops_per_sec modeled_locked_ops_per_sec \
    speedup_4w_vs_locked_1w speedup_source ops_appended replica_resyncs
