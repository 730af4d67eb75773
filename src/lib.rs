//! # quhe — QKD + HE enabled secure edge computing, with utility-cost optimal
//! resource allocation
//!
//! This is the facade crate of the QuHE workspace, a Rust reproduction of
//! *"QuHE: Optimizing Utility-Cost in Quantum Key Distribution and
//! Homomorphic Encryption Enabled Secure Edge Computing Networks"*
//! (ICDCS 2025). It re-exports the five underlying crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`qkd`] | `quhe-qkd` | Werner-parameter link model, SURFnet topology, secret-key fraction, QKD network utility, entanglement-protocol simulation, key pools |
//! | [`crypto`] | `quhe-crypto` | ChaCha20, negacyclic polynomial ring + NTT, simplified CKKS, transciphering, LWE-estimator surrogate, fitted cost models |
//! | [`mec`] | `quhe-mec` | Wireless channel + Shannon rate, transmission/computation delay and energy models, scenario generation |
//! | [`opt`] | `quhe-opt` | Projected gradient, Newton, log-barrier interior point, fractional programming, simulated annealing, random search |
//! | [`core`] | `quhe-core` | Problem P1, the three-stage QuHE algorithm, baselines (AA/OLAA/OCCR, GD/SA/RS), metrics and the optimality study |
//! | [`serve`] | `quhe-serve` | Solve service: JSON request/response protocol, content-addressed scenario cache, warm-start reuse, multi-worker TCP serving |
//!
//! # Quickstart
//!
//! ```
//! use quhe::prelude::*;
//!
//! // The paper's Section VI-A scenario: SURFnet QKD network + 6 MEC clients.
//! let scenario = SystemScenario::paper_default(42);
//!
//! // Every solver lives behind one registry: quhe, aa, olaa, occr.
//! let registry = SolverRegistry::builtin();
//! let result = registry
//!     .solve("quhe", &scenario, &SolveSpec::cold())
//!     .unwrap();
//! println!("objective = {:.4}", result.objective);
//! println!("{}", result.metrics);
//!
//! // Compare against the average-allocation baseline — same call, other name.
//! let aa = registry.solve("aa", &scenario, &SolveSpec::cold()).unwrap();
//! assert!(result.objective >= aa.objective - 1e-6);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios, including the full
//! cryptographic data path (QKD key distribution → ChaCha20 masking → CKKS
//! transciphering → encrypted evaluation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use quhe_core as core;
pub use quhe_crypto as crypto;
pub use quhe_mec as mec;
pub use quhe_opt as opt;
pub use quhe_qkd as qkd;
pub use quhe_serve as serve;

/// Commonly used items from every crate of the workspace.
pub mod prelude {
    pub use quhe_core::prelude::*;
    pub use quhe_crypto::prelude::*;
    pub use quhe_mec::prelude::*;
    pub use quhe_opt::prelude::*;
    pub use quhe_qkd::prelude::*;
    pub use quhe_serve::prelude::*;
}
