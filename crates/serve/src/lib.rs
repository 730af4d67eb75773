//! # quhe-serve — the solve service of the QuHE reproduction
//!
//! A long-running serving layer over the unified solver surface of
//! `quhe-core`: requests name a scenario (catalogue world, deterministic
//! drifted variant, or inline parameters), a registry solver and a
//! [`SolveSpec`](quhe_core::solver::SolveSpec); responses carry a
//! [`SolveReport`](quhe_core::solver::SolveReport) plus serving metadata.
//! Both sides are JSON through [`quhe_core::json`], the one JSON path of
//! the workspace.
//!
//! The service's core is a **content-addressed cache** keyed by the
//! canonical scenario fingerprints of [`quhe_core::fingerprint`], with LRU
//! eviction (hits refresh recency) and JSON snapshot/restore so a restarted
//! service warms from disk instead of re-solving its working set:
//!
//! * an **exact** fingerprint hit returns the cached report bit-identically
//!   with zero solver work (the report keeps the original solve's
//!   `runtime_s`; the lookup cost appears only in the response's
//!   `service_wall_s`);
//! * a **shape** hit — the same world modulo drifted channel/load fields —
//!   warm-starts the solve from the optimum of the *nearest* cached anchor
//!   (ranked by the pinned drift distance over exactly the drifted fields;
//!   see [`cache`]), guarded by the cold single-start floor, with a cold
//!   re-solve when the warm solve falls below it — the one warm-serving
//!   policy, [`quhe_core::online::solve_warm_guarded`], which the online
//!   engine runs per step;
//! * everything else solves cold and populates the cache.
//!
//! The cache keeps consistent telemetry ([`CacheStats`]) surfaced through
//! [`service::SolveService::stats`].
//!
//! In front of the cache sits a [`coalesce`] singleflight table: identical
//! requests arriving **concurrently** elect one leader that solves while
//! every follower blocks on the flight and receives the report
//! bit-identically — N identical in-flight requests cost one solve, closing
//! the window the completed-solve cache cannot cover.
//!
//! The [`net`] module puts a network front end on the service: a framed TCP
//! listener ([`wire`]: 4-byte length-prefixed JSON frames, versioned
//! `quhe-serve/v2` envelope with stable error kinds) feeding a bounded
//! admission queue drained by a worker pool, with shed-load `overloaded`
//! envelopes when the queue is full and graceful shutdown. Sizing — cache
//! capacity, worker threads, queue bound — lives in one [`ServiceConfig`]
//! builder.
//!
//! [`SolveService::handle_batch`] shards request streams across the scoped
//! worker pool with all workers sharing one cache. The repository
//! benchmark in `perfbench/` drives this service over a real [`TcpServer`];
//! `examples/serve_roundtrip.rs` walks the JSON protocol end to end and
//! `examples/tcp_client.rs` the framed TCP front end.
//!
//! ```
//! use quhe_serve::prelude::*;
//! use quhe_core::params::QuheConfig;
//!
//! let service = ServiceConfig::new(QuheConfig {
//!     max_outer_iterations: 1,
//!     max_stage3_iterations: 4,
//!     solver_threads: 1,
//!     ..QuheConfig::default()
//! })
//! .build();
//! let request = SolveRequest::catalog("paper_default", 42);
//! let cold = service.handle(&request).unwrap();
//! let hit = service.handle(&request).unwrap();
//! assert_eq!(hit.cache, CacheOutcome::Hit);
//! assert_eq!(hit.report, cold.report); // bit-identical, zero solver work
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod net;
pub mod request;
pub mod service;
pub mod wire;

pub use cache::{CacheEntry, CacheStats, ScenarioCache, MAX_ANCHORS_PER_BUCKET, SNAPSHOT_SCHEMA};
pub use net::{NetStats, TcpServer};
pub use request::{InlineScenario, ScenarioSpec, SolveRequest};
pub use service::{
    CacheOutcome, ServiceConfig, ServiceStats, SolveResponse, SolveService, DEFAULT_CACHE_CAPACITY,
    DEFAULT_QUEUE_BOUND, DRIFT_AMPLITUDE,
};
pub use wire::{Protocol, WireReply, MAX_FRAME_BYTES, PROTOCOL_V2};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::cache::{CacheStats, ScenarioCache};
    pub use crate::net::{NetStats, TcpServer};
    pub use crate::request::{InlineScenario, ScenarioSpec, SolveRequest};
    pub use crate::service::{
        CacheOutcome, ServiceConfig, ServiceStats, SolveResponse, SolveService,
    };
    pub use crate::wire::{Protocol, WireReply, PROTOCOL_V2};
}
