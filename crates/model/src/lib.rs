//! Analytic cost model and decision process for customized DLB
//! (Section 4 of the paper).
//!
//! The model predicts, for each of the four strategies, the total execution
//! time of a load-balanced loop on a described system, by solving the
//! paper's recurrences:
//!
//! * the **effective load** `λ_i(j)` of each processor over each
//!   inter-synchronization window (Section 4.2, "Effect of discrete
//!   load") — computed from the known load functions via `now-load`;
//! * **iterations left** `β_i(j)` when the first finisher triggers
//!   synchronization `j` (eq. 1 for uniform loops, eq. 2's generalization
//!   for non-uniform ones);
//! * the **new distribution** `α_i(j) ∝ S_i/λ_i(j)` (eq. 3) — the model
//!   *reuses the runtime balancer's decision code* (`dlb_core::balance`),
//!   including the minimum-work threshold and the 10 % profitability
//!   analysis, so model and runtime can never disagree on semantics;
//! * per-synchronization **overheads**: the strategy's synchronization
//!   cost `σ` (from the fitted communication-pattern polynomials of
//!   `now-net`), the calculation cost `ξ`, the instruction cost `ι(j)`
//!   (centralized only), the data-movement cost `Φ(j)` (eq. 5), and the
//!   LCDLB **delay factor** (queueing at the single balancer);
//! * termination when no work is left (eq. 4); the total cost of a local
//!   strategy is the slowest group's cost.
//!
//! [`decision`] implements the hybrid compile-/run-time decision process of
//! Section 4.3: run with the initial equal distribution until the first
//! synchronization point (at least `1/P` of the work is then done), plug
//! the now-known load behaviour into the model, and commit to the best
//! strategy.

pub mod decision;
pub mod observe;
pub mod predict;
pub mod system;

pub use decision::first_sync_progress;
pub use decision::{choose_strategy, predicted_order, rank_agreement, DecisionReport};
pub use observe::ObservedSystem;
pub use predict::{predict, predict_all, predict_no_dlb, Prediction};
pub use system::{control_comm_model, SystemModel};
