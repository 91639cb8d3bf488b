//! # nm-runtime — the multicore mechanism of Fig 7, on real threads
//!
//! The paper hands a split message to the machine's other cores: the
//! strategy "registers chunk requests in a to-be-sent list and signals idle
//! cores, which execute the PIO copies in parallel" (Fig 7), at a
//! measured cost T_O of 3 µs — 6 µs when the target core must be preempted
//! by a signal (§III-D). This crate is that mechanism on plain OS threads,
//! two types and nothing else:
//!
//! * [`Tasklet`] — one deferred, run-once piece of communication work.
//! * [`WorkerPool`] — one worker thread per logical core. A worker's channel
//!   *is* its to-be-sent list; [`WorkerPool::idle_workers`] is the idle-core
//!   set that bounds the split ("min{number of idle NICs, number of idle
//!   cores} chunks at most"); [`WorkerPool::submit_to`] returns whether it
//!   found its worker busy — the *signaled*, 6 µs path.
//!
//! The crate keeps no statistics. T_O on a given host is measured by the
//! harness that reports it: the `table_offload` bin times submit →
//! execution-start with a probe tasklet, for the idle and the signaled path.
//! The engine charges the paper's 3 µs as a constant and reads no measured
//! value.
//!
//! Two surfaces drive the pool: `nm_core`'s `ShmemDriver` (the real-thread
//! transport) and `table_offload`. On a CI machine with one or two cores
//! real threads cannot show wall-clock speedup; the pool is validated for
//! *semantics* (ordering, idle accounting, completion on drop) here and for
//! *timing* in the discrete-event simulator, which models cores explicitly.
//!
//! ## Concurrency verification
//!
//! The pool is `std` atomics and `std::sync::mpsc` channels, with no
//! dependency on another workspace crate. It parks in
//! `mpsc::Receiver::recv`, which the vendored loom does not model, so it
//! is covered by the unit and stress tests in `worker.rs` (the
//! idle-set/queue invariant, drain-on-drop) and by the opt-in
//! ThreadSanitizer lane in `ci.sh`. The crate contains no `unsafe` at all.

#![forbid(unsafe_code)]

pub mod tasklet;
pub mod worker;

pub use tasklet::Tasklet;
pub use worker::WorkerPool;
