//! Minimal API-compatible shim for the `crossbeam` crate surface this
//! workspace uses. Vendored because the build environment has no registry
//! access. Functionally equivalent, not lock-free: channels wrap
//! `std::sync::mpsc` (with a `Mutex` around the receiver so `Receiver` is
//! clonable and `Sync`).

pub mod channel;
