//! Interconnect model for a network of workstations.
//!
//! The paper's testbed was PVM over a 10 Mb shared Ethernet: measured
//! latency **L = 2414.5 µs** per message and bandwidth **B = 0.96 MB/s**
//! (Section 6.1). Its model consumes the network through three
//! *communication-pattern cost functions* — one-to-all (OA), all-to-one
//! (AO), and all-to-all (AA) — obtained by off-line characterization and
//! polynomial fitting (Fig. 4).
//!
//! This crate rebuilds that stack:
//!
//! * [`params::NetworkParams`] — latency, bandwidth, per-message receive
//!   overhead, and the medium kind (shared bus vs. switched);
//! * [`medium`] — a message-level event simulation of the medium: on a
//!   shared bus transmissions serialize (which is exactly why the paper's
//!   all-to-all cost grows superlinearly in P), on a switched fabric only
//!   each node's own port serializes;
//! * [`patterns`] — the three collective patterns executed on the simulated
//!   medium, plus a closed-form shared-bus approximation used as a
//!   cross-check;
//! * [`mod@polyfit`] — least-squares polynomial fitting (normal equations +
//!   Gaussian elimination, from scratch);
//! * [`charact`] — the off-line characterization pass: measure the patterns
//!   for a range of processor counts, fit polynomials, and hand the fitted
//!   [`charact::CommCostModel`] to the analytic model. This regenerates
//!   Fig. 4.

pub mod charact;
pub mod medium;
pub mod params;
pub mod patterns;
pub mod polyfit;

pub use charact::{characterize, CharacterizationReport, CommCostModel};
pub use medium::{stretch_delivery, EndpointFactors, MediumSim, Transmission};
pub use params::{MediumKind, NetworkParams};
pub use patterns::{measure_pattern, Pattern};
pub use polyfit::{polyfit, Poly};
