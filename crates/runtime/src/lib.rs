//! # nm-runtime — the multicore mechanism of Fig 7, on real threads
//!
//! The paper hands a split message to the machine's other cores: the
//! strategy "registers chunk requests in a to-be-sent list and signals idle
//! cores, which execute the PIO copies in parallel" (Fig 7), at a
//! measured cost T_O of 3 µs — 6 µs when the target core must be preempted
//! by a signal (§III-D). This crate is that mechanism and that measurement
//! on plain OS threads, and nothing else:
//!
//! * [`Tasklet`] — one deferred, run-once piece of communication work.
//! * [`WorkerPool`] — one worker thread per logical core. A worker's channel
//!   *is* its to-be-sent list; [`WorkerPool::idle_workers`] is the idle-core
//!   set that bounds the split ("min{number of idle NICs, number of idle
//!   cores} chunks at most"); a submission that finds its worker busy is
//!   flagged *signaled* — the 6 µs path.
//! * [`stats::OffloadStats`] — the measured T_O: submit → execution-start
//!   latency, per-worker sharded, with the signaled path reported on its own
//!   ([`stats::OffloadSnapshot`]).
//!
//! Three surfaces drive the pool: `nm_core`'s `ShmemDriver` (the real-thread
//! transport), the `table_offload` harness and `examples/multicore_eager`.
//! On a CI machine with one or two cores real threads cannot show wall-clock
//! speedup; the pool is validated for *semantics* (ordering, idle
//! accounting, completion on drop) here and for *timing* in the
//! discrete-event simulator, which models cores explicitly.
//!
//! ## Concurrency verification
//!
//! All shared state goes through the [`nm_sync`] facade. The pool parks in
//! `mpsc::Receiver::recv`, which the vendored loom does not model, so it
//! is covered by the unit and stress tests in `worker.rs` (the
//! idle-set/queue invariant, drain-on-drop) and by the opt-in
//! ThreadSanitizer lane in `ci.sh`. The crate contains no `unsafe` at all.

#![forbid(unsafe_code)]

pub mod stats;
pub mod tasklet;
pub mod worker;

pub use tasklet::Tasklet;
pub use worker::WorkerPool;
