//! Real-thread shared-memory driver.
//!
//! The correctness substrate: every chunk's payload is actually copied by a
//! worker thread (the PIO analogue), pushed through a per-rail channel to a
//! receiver thread, throttled to the rail's configured bandwidth, and
//! forwarded as it was carried. Wall-clock time is mapped onto the engine's
//! [`SimTime`] axis.
//!
//! The driver is mechanism only: it keeps no ledger and checks no bytes. The
//! one integrity check on this path is the one the wire format owns — the
//! receiving [`crate::duplex::Endpoint`] decodes every delivery with
//! `nm_proto::Packet::decode` (header self-check + CRC32C) and counts what
//! fails in `corrupt_received`. A rail thread cannot tell a raw sampling
//! buffer from a damaged frame, so it raises `ChunkDelivered` for whatever
//! it forwarded.
//!
//! Heterogeneity is configured per rail (latency + bandwidth), so the same
//! engine and strategies run unchanged on real threads — the point being
//! that nothing in the engine is simulator-shaped. Timing assertions belong
//! to the simulator; this driver's tests byte-compare what each rail
//! delivered with what was submitted (exactly once, in order).

use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use bytes::Bytes;
use nm_model::SimTime;
use nm_runtime::{Tasklet, WorkerPool};
use nm_sim::{CoreId, RailId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Per-rail configuration.
#[derive(Debug, Clone)]
pub struct ShmemRail {
    /// Rail name.
    pub name: String,
    /// One-way latency added by the receiver thread.
    pub latency: Duration,
    /// Throttled bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Rendezvous threshold: below it the *sending worker* performs the
    /// transmission delay (core busy, PIO); at or above it the rail thread
    /// does (core free, DMA).
    pub rdv_threshold: u64,
}

impl ShmemRail {
    /// A rail with `name`, `latency_us` and `mbps` (decimal MB/s).
    // nm-analyzer: allow(unit-bare) -- constructor convenience: the integer
    // µs feeds Duration::from_micros directly
    pub fn new(name: &str, latency_us: u64, mbps: f64, rdv_threshold: u64) -> Self {
        assert!(mbps > 0.0);
        ShmemRail {
            name: name.into(),
            latency: Duration::from_micros(latency_us),
            bytes_per_sec: mbps * 1e6,
            rdv_threshold,
        }
    }
}

struct WireMsg {
    chunk: ChunkId,
    payload: Bytes,
    /// Transmission delay still owed (zero when the sender already paid it).
    owed: Duration,
}

/// A payload handed to the receive side (see
/// [`ShmemDriver::take_delivery_receiver`]).
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Rail the payload arrived on.
    pub rail: RailId,
    /// The bytes the rail carried, unverified.
    pub payload: Bytes,
}

/// Real-thread multirail transport.
pub struct ShmemDriver {
    rails: Vec<ShmemRail>,
    rail_tx: Vec<Sender<WireMsg>>,
    /// Wall-clock ns (since epoch instant) until which each rail is reserved.
    rail_reserved_ns: Vec<Arc<AtomicU64>>,
    outstanding: Vec<Arc<AtomicU64>>,
    events_rx: Receiver<TransportEvent>,
    events_tx: Sender<TransportEvent>,
    pool: WorkerPool,
    epoch: Instant,
    next_chunk: u64,
    receivers: Vec<thread::JoinHandle<()>>,
    /// Kept alive so the delivery channel never disconnects while the
    /// driver exists (rail threads hold clones).
    _delivery_tx: Sender<Delivery>,
    delivery_rx: Option<Receiver<Delivery>>,
}

impl ShmemDriver {
    /// Builds a driver with one receiver thread per rail and a worker pool
    /// of `cores` senders.
    pub fn new(rails: Vec<ShmemRail>, cores: usize) -> Self {
        assert!(!rails.is_empty(), "need at least one rail");
        let epoch = Instant::now();
        let (events_tx, events_rx) = channel();
        let (delivery_tx, delivery_rx) = channel();
        let mut rail_tx = Vec::new();
        let mut rail_reserved = Vec::new();
        let mut outstanding = Vec::new();
        let mut receivers = Vec::new();
        for (i, rail) in rails.iter().enumerate() {
            let (tx, rx): (Sender<WireMsg>, Receiver<WireMsg>) = channel();
            let out = Arc::new(AtomicU64::new(0));
            let ev = events_tx.clone();
            let cfg = rail.clone();
            let out2 = out.clone();
            let sink = delivery_tx.clone();
            let handle = thread::Builder::new()
                .name(format!("shmem-rail-{i}"))
                .spawn(move || rail_loop(rx, ev, cfg, epoch, RailId(i), out2, sink))
                .expect("spawn rail thread");
            rail_tx.push(tx);
            rail_reserved.push(Arc::new(AtomicU64::new(0)));
            outstanding.push(out);
            receivers.push(handle);
        }
        ShmemDriver {
            rails,
            rail_tx,
            rail_reserved_ns: rail_reserved,
            outstanding,
            events_rx,
            events_tx,
            pool: WorkerPool::new(cores.max(1)),
            epoch,
            next_chunk: 0,
            receivers,
            _delivery_tx: delivery_tx,
            delivery_rx: Some(delivery_rx),
        }
    }

    /// Takes the receive-side payload channel: every payload a rail carried
    /// is forwarded there (in rail-delivery order). This is how a remote peer
    /// consumes what this driver's rails carried — see [`crate::duplex`].
    /// Can be taken once.
    pub fn take_delivery_receiver(&mut self) -> Option<Receiver<Delivery>> {
        self.delivery_rx.take()
    }

    /// A two-rail heterogeneous loopback reminiscent of the paper's pair
    /// (scaled down so tests run quickly).
    pub fn two_rail_demo() -> Self {
        ShmemDriver::new(
            vec![
                ShmemRail::new("fast-rail", 30, 2400.0, 256 * 1024),
                ShmemRail::new("slow-rail", 15, 1200.0, 256 * 1024),
            ],
            4,
        )
    }

    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

fn rail_loop(
    rx: Receiver<WireMsg>,
    events: Sender<TransportEvent>,
    cfg: ShmemRail,
    epoch: Instant,
    rail: RailId,
    outstanding: Arc<AtomicU64>,
    sink: Sender<Delivery>,
) {
    while let Ok(msg) = rx.recv() {
        // DMA phase (rendezvous) happens here, on the "NIC", not on a core.
        if !msg.owed.is_zero() {
            thread::sleep(msg.owed);
        }
        thread::sleep(cfg.latency);
        let _ = sink.send(Delivery { rail, payload: msg.payload });
        let at = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
        let _ = events.send(TransportEvent::ChunkDelivered { chunk: msg.chunk, at });
        if outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = events.send(TransportEvent::RailIdle { rail, at });
        }
    }
}

impl Transport for ShmemDriver {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.wall_ns())
    }

    fn rail_count(&self) -> usize {
        self.rails.len()
    }

    fn rail_name(&self, rail: RailId) -> String {
        self.rails[rail.index()].name.clone()
    }

    fn rdv_threshold(&self, rail: RailId) -> u64 {
        self.rails[rail.index()].rdv_threshold
    }

    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        SimTime::from_nanos(self.rail_reserved_ns[rail.index()].load(Ordering::Acquire))
    }

    fn core_count(&self) -> usize {
        self.pool.worker_count()
    }

    fn idle_cores(&self) -> Vec<CoreId> {
        self.pool.idle_workers().into_iter().map(CoreId).collect()
    }

    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        let id = ChunkId(self.next_chunk);
        self.next_chunk += 1;
        let cfg = &self.rails[chunk.rail.index()];
        // A size-only submission synthesizes a deterministic payload so the
        // rail always has bytes to carry.
        let payload = chunk.payload.clone().unwrap_or_else(|| {
            Bytes::from((0..chunk.bytes).map(|i| (i * 131 % 251) as u8).collect::<Vec<u8>>())
        });
        let tx_time = Duration::from_secs_f64(payload.len() as f64 / cfg.bytes_per_sec);

        // Reserve the rail (prediction view): max(now, reserved) + tx_time.
        let now_ns = self.wall_ns();
        let reserved = &self.rail_reserved_ns[chunk.rail.index()];
        let until = reserved.load(Ordering::Acquire).max(now_ns) + tx_time.as_nanos() as u64;
        reserved.store(until, Ordering::Release);

        self.outstanding[chunk.rail.index()].fetch_add(1, Ordering::AcqRel);
        let rail_tx = self.rail_tx[chunk.rail.index()].clone();
        let eager = chunk.bytes < cfg.rdv_threshold;
        let offload = Duration::from_nanos(chunk.offload_delay.as_nanos());
        let worker = chunk.send_core.index().min(self.pool.worker_count() - 1);
        let events = self.events_tx.clone();
        let epoch = self.epoch;
        self.pool.submit_to(
            worker,
            Tasklet::new("shmem-send", move || {
                if !offload.is_zero() {
                    thread::sleep(offload);
                }
                // PIO: the sending core pays the transmission time and makes
                // a real copy of the payload; DMA: the rail thread pays.
                let (payload, owed) = if eager {
                    thread::sleep(tx_time);
                    (Bytes::from(payload.to_vec()), Duration::ZERO)
                } else {
                    (payload, tx_time)
                };
                // The sender's part ends here; stamped before the hand-over
                // so it can never read later than the rail's delivery stamp.
                let at = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
                let _ = rail_tx.send(WireMsg { chunk: id, payload, owed });
                let _ = events.send(TransportEvent::ChunkSendDone { chunk: id, at });
            }),
        );
        id
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        let mut out = Vec::new();
        // Drain whatever is ready; if nothing and work is outstanding, wait
        // briefly so callers don't spin.
        while let Ok(ev) = self.events_rx.try_recv() {
            out.push(ev);
        }
        if out.is_empty() {
            let outstanding: u64 = self.outstanding.iter().map(|o| o.load(Ordering::Acquire)).sum();
            if outstanding > 0 {
                if let Ok(ev) = self.events_rx.recv_timeout(Duration::from_millis(50)) {
                    out.push(ev);
                    while let Ok(ev) = self.events_rx.try_recv() {
                        out.push(ev);
                    }
                }
            }
        }
        out
    }
}

impl Drop for ShmemDriver {
    fn drop(&mut self) {
        // Close the rail channels, then join the receiver threads.
        self.rail_tx.clear();
        for h in self.receivers.drain(..) {
            let _ = h.join();
        }
    }
}

// The driver can also be sampled, exactly like real NICs are (§III-C): a
// timed transfer per measurement.
impl nm_sampler::SampleTransport for ShmemDriver {
    fn rail_count(&self) -> usize {
        self.rails.len()
    }

    fn rail_name(&self, rail: usize) -> String {
        self.rails[rail].name.clone()
    }

    fn measure_us(&mut self, rail: usize, size: u64, mode: Option<nm_model::TransferMode>) -> f64 {
        let start = Instant::now();
        let mut submit = ChunkSubmit::new(RailId(rail), size);
        submit.mode = mode; // note: the shmem protocol switch is by size
        let id = self.submit(submit);
        loop {
            for ev in self.poll() {
                if let TransportEvent::ChunkDelivered { chunk, .. } = ev {
                    if chunk == id {
                        return start.elapsed().as_secs_f64() * 1e6;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until_delivered(d: &mut ShmemDriver, want: usize) -> Vec<TransportEvent> {
        let mut delivered = 0;
        let mut all = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while delivered < want {
            assert!(Instant::now() < deadline, "timed out waiting for deliveries");
            for ev in d.poll() {
                if matches!(ev, TransportEvent::ChunkDelivered { .. }) {
                    delivered += 1;
                }
                all.push(ev);
            }
        }
        all
    }

    /// Every chunk's `ChunkSendDone` carries a real instant, not after the
    /// chunk's delivery. A send-done event may trail the delivery in the
    /// queue, so this polls on until each chunk has one.
    fn assert_send_done_stamped(
        d: &mut ShmemDriver,
        mut events: Vec<TransportEvent>,
        ids: &[ChunkId],
    ) {
        let sent_at = |events: &[TransportEvent], id| {
            events.iter().find_map(|e| match *e {
                TransportEvent::ChunkSendDone { chunk, at } if chunk == id => Some(at),
                _ => None,
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        for &id in ids {
            let sent = loop {
                if let Some(at) = sent_at(&events, id) {
                    break at;
                }
                assert!(Instant::now() < deadline, "no ChunkSendDone for {id:?}");
                events.extend(d.poll());
            };
            let delivered = events
                .iter()
                .find_map(|e| match *e {
                    TransportEvent::ChunkDelivered { chunk, at } if chunk == id => Some(at),
                    _ => None,
                })
                .expect("drained until delivered");
            assert!(SimTime::ZERO < sent && sent <= delivered, "{id:?}: {sent:?} / {delivered:?}");
        }
    }

    /// What the rails handed to the receive side so far, in delivery order.
    /// A payload is forwarded before its `ChunkDelivered` is raised, so after
    /// `drain_until_delivered` every delivered chunk is in here.
    fn delivered(rx: &Receiver<Delivery>) -> Vec<(RailId, Bytes)> {
        rx.try_iter().map(|d| (d.rail, d.payload)).collect()
    }

    #[test]
    fn payload_integrity_end_to_end() {
        let mut d = ShmemDriver::two_rail_demo();
        let rx = d.take_delivery_receiver().expect("fresh driver");
        let payload = Bytes::from((0..100_000u32).map(|i| (i % 255) as u8).collect::<Vec<u8>>());
        let mut submit = ChunkSubmit::new(RailId(0), payload.len() as u64);
        submit.payload = Some(payload.clone());
        d.submit(submit);
        drain_until_delivered(&mut d, 1);
        assert_eq!(delivered(&rx), [(RailId(0), payload)]);
    }

    #[test]
    fn synthesized_payloads_also_verify() {
        let mut d = ShmemDriver::two_rail_demo();
        let rx = d.take_delivery_receiver().expect("fresh driver");
        let ids = [RailId(0), RailId(1)].map(|rail| d.submit(ChunkSubmit::new(rail, 4096)));
        let events = drain_until_delivered(&mut d, 2);
        // A size-only submission carries the driver's deterministic pattern.
        let pattern = Bytes::from((0..4096u64).map(|i| (i * 131 % 251) as u8).collect::<Vec<u8>>());
        let mut got = delivered(&rx);
        got.sort_by_key(|(rail, _)| rail.index());
        assert_eq!(got, [(RailId(0), pattern.clone()), (RailId(1), pattern)]);
        assert_send_done_stamped(&mut d, events, &ids);
    }

    #[test]
    fn rail_idle_fires_when_rail_drains() {
        let mut d = ShmemDriver::two_rail_demo();
        d.submit(ChunkSubmit::new(RailId(1), 1024));
        let events = drain_until_delivered(&mut d, 1);
        // The idle event may trail the delivery; poll a little more.
        let mut saw_idle = events
            .iter()
            .any(|e| matches!(e, TransportEvent::RailIdle { rail, .. } if *rail == RailId(1)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !saw_idle && Instant::now() < deadline {
            saw_idle = d
                .poll()
                .iter()
                .any(|e| matches!(e, TransportEvent::RailIdle { rail, .. } if *rail == RailId(1)));
        }
        assert!(saw_idle);
    }

    #[test]
    fn busy_until_moves_forward_on_submission() {
        let mut d = ShmemDriver::two_rail_demo();
        let before = d.rail_busy_until(RailId(0));
        let id = d.submit(ChunkSubmit::new(RailId(0), 1 << 20));
        let after = d.rail_busy_until(RailId(0));
        assert!(after > before);
        let events = drain_until_delivered(&mut d, 1);
        // A rendezvous-sized chunk: the rail thread, not the worker, pays
        // the transmission time, and the send side is stamped all the same.
        assert_send_done_stamped(&mut d, events, &[id]);
    }

    #[test]
    fn sampling_the_shmem_driver_yields_a_profile() {
        use nm_sampler::{sample_rail, Estimator, SamplingConfig};
        let mut d = ShmemDriver::two_rail_demo();
        let cfg = SamplingConfig {
            min_size: 1024,
            max_size: 64 * 1024,
            iters: 3,
            warmup: 1,
            estimator: Estimator::Min,
            mode: None,
        };
        let profile = sample_rail(&mut d, 0, &cfg).expect("sampling succeeds");
        assert_eq!(profile.name(), "fast-rail");
        // Wall-clock sanity: bigger transfers take longer (min estimator
        // smooths scheduler noise; the monotone smoothing handles the rest).
        let (lo, hi) = profile.sampled_range();
        assert!(profile.predict_us(hi) >= profile.predict_us(lo));
    }
}
