//! Ground-truth NIC/rail performance model.
//!
//! A [`LinkModel`] is what the *hardware* does — the simulator evaluates
//! transfers against it, and the sampler measures it through ping-pongs.
//! The engine itself only ever sees the sampled [`crate::PerfProfile`];
//! keeping the two separate reproduces the paper's architecture, where all
//! strategy decisions flow from sampling (§III-C), not vendor datasheets.

use crate::error::ModelError;
use crate::pio::PioModel;
use crate::regime::RegimeTable;
use crate::time::SimDuration;
use crate::units::Micros;

/// The communication paradigm a driver exposes (paper §II-B lists this among
/// the properties a strategy must know about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Two-sided message passing (MX/Myrinet, Elan tports, TCP).
    MessagePassing,
    /// One-sided put/get (Verbs/InfiniBand, Elan RDMA).
    Rdma,
}

/// Which protocol a given message size uses on a given link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferMode {
    /// Small message: sent immediately, payload copied by the host CPU (PIO).
    Eager,
    /// Large message: RTS/CTS rendezvous handshake, then zero-copy DMA.
    Rendezvous,
}

/// Complete performance description of one rail.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Human-readable name ("myri-10g", "qsnet2", ...).
    pub name: String,
    /// Driver paradigm.
    pub paradigm: Paradigm,
    /// Whether the NIC supports gather/scatter descriptors (lets the driver
    /// aggregate without an intermediate copy).
    pub gather_scatter: bool,
    /// End-to-end one-way duration of an *eager* message vs size.
    pub eager: RegimeTable,
    /// Duration of the rendezvous *data phase* (DMA) vs size, excluding the
    /// handshake.
    pub rdv: RegimeTable,
    /// Sizes `>= rdv_threshold` use the rendezvous protocol.
    pub rdv_threshold: u64,
    /// One-way latency of a control message (RTS or CTS), in microseconds.
    pub ctrl_latency_us: f64,
    /// Fixed software cost of setting up the rendezvous, in microseconds.
    pub rdv_setup_us: f64,
    /// Host copy cost charged to a core for eager sends/receives.
    pub pio: PioModel,
}

impl LinkModel {
    /// Validates cross-field invariants and returns the model.
    ///
    /// The one-way duration is allowed to *dip* at the eager→rendezvous
    /// switch — that crossing is exactly why the protocol switches — but a
    /// dip deeper than 20% indicates a miscalibrated threshold and is
    /// rejected. (Strategy-side prediction stays monotone regardless: the
    /// sampled [`crate::PerfProfile`] smooths measurements with a running
    /// maximum.)
    pub fn validated(self) -> Result<Self, ModelError> {
        if self.rdv_threshold == 0 {
            return Err(ModelError::InvalidParameter(
                "rendezvous threshold must be at least 1 byte".into(),
            ));
        }
        if self.ctrl_latency_us.is_nan()
            || self.ctrl_latency_us < 0.0
            || self.rdv_setup_us.is_nan()
            || self.rdv_setup_us < 0.0
        {
            return Err(ModelError::InvalidParameter(
                "control latency and rendezvous setup must be non-negative".into(),
            ));
        }
        let t = self.rdv_threshold;
        let eager_below = self.one_way_us_in_mode(t - 1, TransferMode::Eager).get();
        let rdv_at = self.one_way_us_in_mode(t, TransferMode::Rendezvous).get();
        if rdv_at < 0.8 * eager_below {
            return Err(ModelError::InvalidParameter(format!(
                "one-way time dips more than 20% at the rendezvous threshold {t} \
                 (eager {eager_below:.3}us -> rdv {rdv_at:.3}us); lower the threshold"
            )));
        }
        Ok(self)
    }

    /// Protocol used for `size` bytes.
    pub fn mode_for(&self, size: u64) -> TransferMode {
        if size >= self.rdv_threshold {
            TransferMode::Rendezvous
        } else {
            TransferMode::Eager
        }
    }

    /// One-way end-to-end duration of `size` bytes in a *forced* mode.
    /// For rendezvous this includes the RTS/CTS round and setup.
    #[must_use]
    pub fn one_way_us_in_mode(&self, size: u64, mode: TransferMode) -> Micros {
        Micros::new(match mode {
            TransferMode::Eager => self.eager.time_us(size),
            TransferMode::Rendezvous => {
                2.0 * self.ctrl_latency_us + self.rdv_setup_us + self.rdv.time_us(size)
            }
        })
    }

    /// One-way end-to-end duration of `size` bytes using the natural
    /// protocol for that size.
    #[must_use]
    pub fn one_way_us(&self, size: u64) -> Micros {
        self.one_way_us_in_mode(size, self.mode_for(size))
    }

    /// Same as [`Self::one_way_us`] as a [`SimDuration`].
    pub fn one_way(&self, size: u64) -> SimDuration {
        self.one_way_us(size).to_duration()
    }

    /// Asymptotic bandwidth of the link in MB/s.
    pub fn asymptotic_bandwidth_mbps(&self) -> f64 {
        self.rdv.asymptotic_bandwidth_mbps()
    }

    /// Zero-byte one-way latency.
    #[must_use]
    pub fn base_latency_us(&self) -> Micros {
        Micros::new(self.eager.base_latency_us())
    }

    /// Returns a degraded copy of this link (failure injection): bandwidth
    /// scaled by `factor` in both protocols, latency preserved.
    pub fn degraded(&self, factor: f64) -> Result<LinkModel, ModelError> {
        Ok(LinkModel {
            name: format!("{}@x{factor:.2}", self.name),
            eager: self.eager.scale_bandwidth(factor)?,
            rdv: self.rdv.scale_bandwidth(factor)?,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::units::MIB;

    #[test]
    fn mode_switches_at_threshold() {
        let m = builtin::myri_10g();
        assert_eq!(m.mode_for(m.rdv_threshold - 1), TransferMode::Eager);
        assert_eq!(m.mode_for(m.rdv_threshold), TransferMode::Rendezvous);
    }

    #[test]
    fn one_way_time_is_monotone_within_each_protocol() {
        for link in [builtin::myri_10g(), builtin::qsnet2(), builtin::gige(), builtin::ib_ddr()] {
            let mut last = 0.0;
            let mut last_mode = None;
            for p in 0..24 {
                let size = 1u64 << p;
                let mode = link.mode_for(size);
                let t = link.one_way_us(size).get();
                if last_mode == Some(mode) {
                    assert!(
                        t >= last,
                        "{}: one-way time decreased at {size} ({last:.3} -> {t:.3})",
                        link.name
                    );
                } else if last_mode.is_some() {
                    // Bounded dip at the protocol switch (validated()).
                    assert!(t >= 0.8 * last, "{}: dip too deep at {size}", link.name);
                }
                last = t;
                last_mode = Some(mode);
            }
        }
    }

    #[test]
    fn asymptotic_bandwidths_match_paper() {
        // Paper Fig 8: Myri-10G 1170 MB/s, Quadrics 837 MB/s (MB = 2^20).
        let myri = builtin::myri_10g();
        let quad = builtin::qsnet2();
        let myri_bw = myri.one_way_us(8 * MIB).to_duration().bandwidth_mibps(8 * MIB);
        let quad_bw = quad.one_way_us(8 * MIB).to_duration().bandwidth_mibps(8 * MIB);
        assert!((myri_bw - 1170.0).abs() < 35.0, "myri asymptote: {myri_bw}");
        assert!((quad_bw - 837.0).abs() < 25.0, "quadrics asymptote: {quad_bw}");
    }

    #[test]
    fn degradation_scales_throughput_not_latency() {
        let m = builtin::myri_10g();
        let d = m.degraded(0.25).unwrap();
        assert!((d.base_latency_us() - m.base_latency_us()).get().abs() < 1e-9);
        let big = 4 * MIB;
        let ratio = d.one_way_us(big) / m.one_way_us(big);
        assert!(ratio > 3.0, "quartered bandwidth should ~4x large transfers, got {ratio}");
        assert!(m.degraded(-1.0).is_err());
    }

    #[test]
    fn validation_rejects_pathological_threshold() {
        let mut m = builtin::myri_10g();
        m.rdv_threshold = 0;
        assert!(m.validated().is_err());
    }
}
