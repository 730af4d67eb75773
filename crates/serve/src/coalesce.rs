//! In-flight request coalescing: a singleflight table in front of the
//! report cache.
//!
//! The [`ScenarioCache`](crate::cache::ScenarioCache) deduplicates
//! *completed* solves; concurrent identical requests used to each pay the
//! full cold path because none of them could see a result that did not exist
//! yet. The [`Singleflight`] table closes that gap: the first request for a
//! `(fingerprint, solver, spec key)` triple becomes the **leader** and
//! solves; every identical request arriving while the leader is in flight
//! becomes a **follower** that blocks on the leader's flight and shares the
//! leader's stored report and its rendered bytes the moment they are
//! published. N identical concurrent requests therefore trigger exactly one
//! solve and one rendering.
//!
//! The table holds only in-flight keys: a published flight is removed
//! immediately, so later identical requests are served by the cache (an
//! exact hit), not by the table. Leader failures are published too —
//! followers receive the same error the leader did — and a leader that
//! disappears without publishing (a panic on its thread) poisons the flight
//! with [`QuheError::Overloaded`] instead of blocking followers forever.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

use quhe_core::error::{QuheError, QuheResult};

use crate::cache::Stored;
use crate::service::CacheOutcome;

/// The identity under which concurrent requests coalesce: the same triple
/// that addresses the exact-hit index of the report cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlightKey {
    /// Full content fingerprint of the resolved scenario.
    pub fingerprint: u128,
    /// Registry name of the requested solver.
    pub solver: String,
    /// Canonical spec key (compact JSON of the request's `SolveSpec`).
    pub spec_key: String,
}

/// What a completed flight hands to its followers: everything a follower's
/// response needs that is not follower-specific.
#[derive(Debug, Clone)]
pub struct FlightResult {
    /// How the leader's own response was produced.
    pub leader_outcome: CacheOutcome,
    /// The leader's entry (with the scenario's fingerprints and the report)
    /// and its rendered report bytes, shared with every follower.
    pub(crate) stored: Stored,
}

/// A flight's published outcome: the leader's result or its error.
pub type FlightOutcome = QuheResult<FlightResult>;

#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<FlightOutcome>>,
    published: Condvar,
}

/// Recovers a `std` lock from a poisoned state: the data is a plain value
/// (no invariants spanning the guard), so a panicking peer cannot corrupt
/// it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The singleflight table. One per service; keys are in-flight only.
#[derive(Debug, Default)]
pub struct Singleflight {
    inner: Mutex<HashMap<FlightKey, std::sync::Arc<Flight>>>,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight").finish()
    }
}

/// The two sides of [`Singleflight::join`].
// Matched and consumed immediately at the one `join` call site; boxing the
// report-sized Coalesced outcome would add an allocation per follower.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Join<'a> {
    /// This request is the first in flight for its key: it must solve and
    /// then [`publish`](FlightToken::publish) through the token.
    Lead(FlightToken<'a>),
    /// An identical request was already in flight; this is its published
    /// outcome (the call blocked until the leader finished).
    Coalesced(FlightOutcome),
}

/// The leader's obligation: publishing exactly once. Dropping the token
/// without publishing (the leader's thread panicked) publishes a retryable
/// [`QuheError::Overloaded`] so followers never block forever.
#[derive(Debug)]
pub struct FlightToken<'a> {
    table: &'a Singleflight,
    key: Option<FlightKey>,
}

impl Singleflight {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys currently in flight.
    pub fn in_flight(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Joins the flight for `key`: the first caller becomes the leader and
    /// receives a [`FlightToken`]; every concurrent caller with the same key
    /// blocks until the leader publishes and receives the outcome.
    pub fn join(&self, key: FlightKey) -> Join<'_> {
        let flight = {
            let mut map = lock(&self.inner);
            match map.get(&key) {
                Some(flight) => std::sync::Arc::clone(flight),
                None => {
                    map.insert(key.clone(), std::sync::Arc::default());
                    return Join::Lead(FlightToken {
                        table: self,
                        key: Some(key),
                    });
                }
            }
        };
        let mut outcome = lock(&flight.outcome);
        loop {
            if let Some(published) = outcome.as_ref() {
                return Join::Coalesced(published.clone());
            }
            outcome = flight
                .published
                .wait(outcome)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Publishes `outcome` for `key` and removes the key from the table (so
    /// later identical requests go to the cache, not to a stale flight).
    fn publish_key(&self, key: &FlightKey, outcome: FlightOutcome) {
        let flight = lock(&self.inner).remove(key);
        if let Some(flight) = flight {
            *lock(&flight.outcome) = Some(outcome);
            flight.published.notify_all();
        }
    }
}

impl FlightToken<'_> {
    /// Publishes the leader's outcome to every follower and retires the
    /// flight.
    pub fn publish(mut self, outcome: FlightOutcome) {
        if let Some(key) = self.key.take() {
            self.table.publish_key(&key, outcome);
        }
    }
}

impl Drop for FlightToken<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // The leader unwound without publishing; poison the flight with
            // a retryable error rather than stranding followers.
            self.table.publish_key(
                &key,
                Err(QuheError::Overloaded {
                    reason: "coalesced leader failed before publishing; retry".to_string(),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    fn key(tag: u128) -> FlightKey {
        FlightKey {
            fingerprint: tag,
            solver: "quhe".to_string(),
            spec_key: "{}".to_string(),
        }
    }

    fn result() -> FlightResult {
        use crate::cache::{CacheEntry, ScenarioCache};
        use quhe_core::params::QuheConfig;
        use quhe_core::scenario::SystemScenario;
        use quhe_core::solver::{QuheSolver, SolveSpec, Solver};
        let scenario = SystemScenario::paper_default(1);
        let config = QuheConfig {
            max_outer_iterations: 1,
            max_stage3_iterations: 4,
            solver_threads: 1,
            ..QuheConfig::default()
        };
        let spec = SolveSpec::single_start();
        let report = QuheSolver::new(config).solve(&scenario, &spec).unwrap();
        FlightResult {
            leader_outcome: CacheOutcome::Cold,
            stored: ScenarioCache::new(1).store(
                CacheEntry {
                    fingerprint: scenario.fingerprint(),
                    shape: scenario.shape_fingerprint(),
                    scenario,
                    solver: "quhe".to_string(),
                    spec_key: spec.to_json_value().to_compact_string(),
                    report,
                    anchor: false,
                },
                None,
            ),
        }
    }

    #[test]
    fn concurrent_joins_elect_one_leader_and_share_the_outcome() {
        let table = Arc::new(Singleflight::new());
        let clients = 6;
        let barrier = Arc::new(Barrier::new(clients));
        let leaders = Arc::new(AtomicUsize::new(0));
        let followers = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (table, barrier) = (Arc::clone(&table), Arc::clone(&barrier));
                let (leaders, followers) = (Arc::clone(&leaders), Arc::clone(&followers));
                std::thread::spawn(move || {
                    barrier.wait();
                    match table.join(key(7)) {
                        Join::Lead(token) => {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            // Give followers time to pile up on the flight.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            token.publish(Ok(result()));
                        }
                        Join::Coalesced(outcome) => {
                            assert!(outcome.is_ok());
                            followers.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // Exactly one leader; everyone else followed one of the flights that
        // leader ran (a thread arriving after publication starts a new
        // flight, so leaders + followers still totals the client count).
        assert!(leaders.load(Ordering::SeqCst) >= 1);
        assert_eq!(
            leaders.load(Ordering::SeqCst) + followers.load(Ordering::SeqCst),
            clients
        );
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn published_flights_are_retired_from_the_table() {
        let table = Singleflight::new();
        let Join::Lead(token) = table.join(key(1)) else {
            panic!("first join must lead");
        };
        assert_eq!(table.in_flight(), 1);
        token.publish(Ok(result()));
        assert_eq!(table.in_flight(), 0);
        // The next identical request leads a fresh flight (the cache, not
        // the table, now owns the completed result).
        assert!(matches!(table.join(key(1)), Join::Lead(_)));
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = Singleflight::new();
        let Join::Lead(a) = table.join(key(1)) else {
            panic!("lead");
        };
        assert!(matches!(table.join(key(2)), Join::Lead(_)));
        let mut with_other_solver = key(1);
        with_other_solver.solver = "aa".to_string();
        assert!(matches!(table.join(with_other_solver), Join::Lead(_)));
        a.publish(Err(QuheError::ShuttingDown));
    }

    #[test]
    fn a_dropped_token_poisons_the_flight_with_a_retryable_error() {
        let table = Arc::new(Singleflight::new());
        let Join::Lead(token) = table.join(key(3)) else {
            panic!("lead");
        };
        let follower = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || match table.join(key(3)) {
                Join::Lead(_) => None,
                Join::Coalesced(outcome) => Some(outcome),
            })
        };
        // Wait until the follower is parked on the flight (joined the map).
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(token);
        match follower.join().unwrap() {
            Some(Err(QuheError::Overloaded { reason })) => {
                assert!(reason.contains("retry"), "{reason}");
            }
            // The follower may have arrived after the drop and led its own
            // (empty) flight — that is correct behaviour, just not the
            // scheduling this test aims for.
            other => assert!(other.is_none(), "unexpected outcome: {other:?}"),
        }
        assert_eq!(table.in_flight(), 0);
    }
}
