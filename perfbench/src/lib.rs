//! The QuHE serving benchmark.
//!
//! Three seeded workloads drive a real `TcpServer`, running in a child
//! process, over loopback; a traced run replays the same inputs through the
//! public function of each layer. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.

pub mod client;
pub mod metrics;
pub mod plan;
pub mod replay;
pub mod run;
pub mod server;
pub mod trace;
pub mod verify;
