//! # quhe-mec — mobile edge computing substrate for the QuHE system
//!
//! Models the classical (non-quantum) side of the QuHE system: the wireless
//! uplink between client nodes and the edge server, and the computation costs
//! on both sides. Concretely, Sections III-C to III-F of the paper:
//!
//! * [`channel`] — 3GPP-style large-scale path loss plus Rayleigh small-scale
//!   fading, giving the channel attenuation `g_n`,
//! * [`shannon`] — the FDMA uplink rate `r_n = b_n log2(1 + p_n g_n / (N0 b_n))`
//!   (Eq. 10),
//! * [`transmission`] — uplink delay and energy (Eqs. 11–12),
//! * [`compute`] — client-side encryption delay/energy (Eqs. 7–8) and
//!   server-side computation delay/energy (Eqs. 13–14, using the CKKS cost
//!   models from `quhe-crypto`),
//! * [`cost`] — the system-level aggregates `T_total` (max over clients) and
//!   `E_total` (sum over clients and the server) (Eqs. 15–16),
//! * [`fdma`] — bandwidth-budget accounting for constraint (17f),
//! * [`scenario`] — the Section VI-A evaluation scenario: six clients placed
//!   uniformly in a 1 km disk, with the paper's workload sizes, CPU budgets
//!   and weights,
//! * [`generator`] — the [`generator::ScenarioGenerator`] trait and the
//!   named [`generator::ScenarioRegistry`], whose built-in worlds beyond the
//!   paper's (dense cells, heterogeneous fleets, far-edge deployments,
//!   bursty workloads) are seed-deterministic functions,
//! * [`dynamic`] — dynamic worlds: discrete scenario events (client churn,
//!   channel drift, load bursts, deadline tightening) and seed-deterministic
//!   event traces for the online engine in `quhe-core`.
//!
//! # Example
//!
//! ```
//! use quhe_mec::scenario::MecScenario;
//!
//! let scenario = MecScenario::paper_default(42);
//! assert_eq!(scenario.clients().len(), 6);
//! // Equal-split resources are always feasible.
//! let b = scenario.equal_bandwidth_split();
//! assert!((b.iter().sum::<f64>() - scenario.total_bandwidth_hz()).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod compute;
pub mod cost;
pub mod dynamic;
pub mod error;
pub mod fdma;
pub mod generator;
pub mod scenario;
pub mod shannon;
pub mod transmission;

pub use error::{MecError, MecResult};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::channel::{path_loss_db, rayleigh_gain, ChannelModel};
    pub use crate::compute::{
        client_encryption_cost, server_computation_cost, ClientComputeParams, ServerComputeParams,
    };
    pub use crate::cost::{ClientCostBreakdown, SystemCost};
    pub use crate::dynamic::{
        DynamicWorld, EventTrace, EventTraceConfig, ScenarioEvent, TraceStep,
    };
    pub use crate::error::{MecError, MecResult};
    pub use crate::fdma::BandwidthBudget;
    pub use crate::generator::{ScenarioGenerator, ScenarioRegistry};
    pub use crate::scenario::{ClientProfile, MecScenario};
    pub use crate::shannon::{uplink_rate, RatePoint};
    pub use crate::transmission::{transmission_cost, TransmissionCost};
}
