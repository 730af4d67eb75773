//! The content-addressed report cache behind the solve service.
//!
//! Entries are addressed three ways, the first two through the canonical
//! scenario fingerprints of [`quhe_core::fingerprint`]:
//!
//! * **exact** — the full [`Fingerprint`] plus the solver name plus the
//!   canonical spec key. A hit shares the stored entry and the report's wire
//!   bytes, which the cache renders once when the report is stored: every
//!   hit's report is bit-identical to the first response's by
//!   construction, including its original `runtime_s` (the cache never
//!   rewrites a report). Because distinct scenarios could in principle
//!   collide on a 128-bit digest, every hit also verifies full
//!   [`SystemScenario`] equality: a collision degrades to a miss, never to a
//!   wrong answer.
//! * **shape** — the shape fingerprint plus the solver name. A match
//!   nominates the *nearest* cached **anchor** (a from-scratch cold
//!   multi-start solve) of the same world shape as a warm-start donor for a
//!   near-miss request, where nearest is measured by the pinned
//!   [`SystemScenario::drift_distance`] (`QUHE-DRIFT-DIST-v1`) over exactly
//!   the fields the shape fingerprint excludes: channel gains, upload
//!   payloads, token counts and link betas. Up to
//!   [`MAX_ANCHORS_PER_BUCKET`] anchors are kept per `(shape, solver)`
//!   bucket; the least-recently-used excess anchor is *demoted* (it stays
//!   exact-hittable, it just stops donating warm starts).
//! * **request** — the canonical key of a request that resolved to the
//!   entry: the request that stored it, or one whose exact lookup matched
//!   it. A key lookup shares the same entry and bytes as an exact hit, with
//!   no scenario in hand: the service registers a key only after resolving
//!   that request and finding or storing the entry, and resolution is
//!   deterministic, so a key always names the scenario it named then. Keys
//!   are compared whole, so they add no collision case. An entry holds at
//!   most one key (the first registered), so the key index is bounded by
//!   the capacity, and an evicted entry takes its key along. Keys are not
//!   snapshotted: a restored entry gets one on its first exact hit.
//!
//! Eviction is **LRU**: exact and key hits and anchor nominations refresh
//! an entry's recency, and at capacity the least-recently-used entry is
//! evicted from every index. Every use stamps the entry from a monotonic
//! clock, and the recency order is a map from stamp to entry, so a touch,
//! insert or eviction costs O(log n) in the entry count (anchor ranking is
//! linear in the — capped — bucket, not the cache).
//!
//! The cache keeps monotonic telemetry ([`CacheStats`]: hits, misses,
//! insertions, evictions, anchor promotions/demotions) under the same mutex
//! as the indexes, so a [`ScenarioCache::stats`] snapshot is internally
//! consistent — `exact_hits + exact_misses == exact_lookups` and
//! `insertions - evictions == entries` hold for every snapshot, never just
//! eventually.
//!
//! The whole cache state serializes to a versioned JSON snapshot
//! ([`ScenarioCache::snapshot`] / [`ScenarioCache::restore`], schema
//! [`SNAPSHOT_SCHEMA`]) so a restarted service can warm from disk instead of
//! re-solving its working set; restored reports are bit-identical to the
//! originals and fingerprints are recomputed and verified on load.
//!
//! Workers share one cache behind a [`parking_lot`] mutex — lookups and
//! inserts are index operations (the heavy solver work and the report's
//! rendering happen outside the lock; a lookup clones two `Arc`s under it),
//! so contention stays negligible next to a solve. The rendered bytes are
//! about 4–16 KB per entry for the catalogue worlds, so at most about 16 MB
//! at the default capacity of 1024 entries.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use quhe_core::error::{QuheError, QuheResult};
use quhe_core::fingerprint::Fingerprint;
use quhe_core::json::JsonValue;
use quhe_core::scenario::SystemScenario;
use quhe_core::solver::SolveReport;

use crate::wire;

/// Schema tag of the cache snapshot JSON ([`ScenarioCache::snapshot`]).
/// Bump it whenever the snapshot layout changes; [`ScenarioCache::restore`]
/// rejects any other tag instead of guessing.
pub const SNAPSHOT_SCHEMA: &str = "quhe-cache-snapshot/v1";

/// Maximum anchors kept per `(shape fingerprint, solver)` bucket. When a
/// new anchor would exceed the cap, the least-recently-used anchor in the
/// bucket is demoted to a plain entry (still exact-hittable) rather than
/// evicted, so the cap can never cost an exact hit.
pub const MAX_ANCHORS_PER_BUCKET: usize = 4;

/// One cached solve: the scenario it answers (kept for hit verification),
/// its addresses, and the report.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The exact scenario this report solves.
    pub scenario: SystemScenario,
    /// Full content fingerprint of [`CacheEntry::scenario`].
    pub fingerprint: Fingerprint,
    /// Shape fingerprint of [`CacheEntry::scenario`].
    pub shape: Fingerprint,
    /// Registry name of the solver that produced the report.
    pub solver: String,
    /// Canonical spec key (compact JSON of the request's `SolveSpec`).
    pub spec_key: String,
    /// The stored report, returned bit-identically on exact hits.
    pub report: SolveReport,
    /// Whether this entry may donate warm starts: true only when the report
    /// came from a from-scratch cold multi-start solve — a plain cold
    /// request, or a warm-fallback whose cold re-solve won. Warm- and
    /// floor-served reports are cached for exact reuse but never
    /// re-anchored, so warm chains always hang off a well-converged anchor.
    pub anchor: bool,
}

/// A consistent cache telemetry snapshot: occupancy plus monotonic counters,
/// all read under one lock acquisition so the numbers can never tear
/// (`exact_hits + exact_misses == exact_lookups()` and
/// `insertions - evictions == entries` hold exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reports currently cached.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Exact lookups that returned a stored report.
    pub exact_hits: u64,
    /// Exact lookups that found nothing (or a verified-collision mismatch).
    pub exact_misses: u64,
    /// Anchor lookups that nominated a warm-start donor.
    pub anchor_hits: u64,
    /// Anchor lookups that found no eligible donor.
    pub anchor_misses: u64,
    /// Entries actually added (duplicates of a cached entry don't count).
    pub insertions: u64,
    /// Entries evicted at capacity (always the least recently used).
    pub evictions: u64,
    /// Duplicate inserts that upgraded an existing non-anchor entry to an
    /// anchor instead of being dropped.
    pub anchor_promotions: u64,
    /// Anchors demoted to plain entries by the per-bucket cap
    /// ([`MAX_ANCHORS_PER_BUCKET`]).
    pub anchor_demotions: u64,
}

impl CacheStats {
    /// Total exact lookups (`exact_hits + exact_misses`).
    pub fn exact_lookups(&self) -> u64 {
        self.exact_hits + self.exact_misses
    }

    /// Total anchor lookups (`anchor_hits + anchor_misses`).
    pub fn anchor_lookups(&self) -> u64 {
        self.anchor_hits + self.anchor_misses
    }

    /// Serializes the snapshot, with the derived lookup totals, as one JSON
    /// telemetry block.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object()
            .with("entries", JsonValue::from_usize(self.entries))
            .with("capacity", JsonValue::from_usize(self.capacity))
            .with("exact_lookups", JsonValue::from_u64(self.exact_lookups()))
            .with("exact_hits", JsonValue::from_u64(self.exact_hits))
            .with("exact_misses", JsonValue::from_u64(self.exact_misses))
            .with("anchor_lookups", JsonValue::from_u64(self.anchor_lookups()))
            .with("anchor_hits", JsonValue::from_u64(self.anchor_hits))
            .with("anchor_misses", JsonValue::from_u64(self.anchor_misses))
            .with("insertions", JsonValue::from_u64(self.insertions))
            .with("evictions", JsonValue::from_u64(self.evictions))
            .with(
                "anchor_promotions",
                JsonValue::from_u64(self.anchor_promotions),
            )
            .with(
                "anchor_demotions",
                JsonValue::from_u64(self.anchor_demotions),
            )
    }
}

/// An entry as the cache stores it: the shared entry and its report's wire
/// bytes, rendered once when the entry was stored.
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    pub(crate) entry: Arc<CacheEntry>,
    /// The entry's report rendered by [`wire::render_report`]: the bytes
    /// every `quhe-serve/v2` response for this entry carries at
    /// `result.report`.
    pub(crate) report_json: Arc<str>,
}

type NodeId = u64;

/// One cached entry with its rendered report and its last-use stamp: its
/// key in the recency order, and what ranks anchors within a bucket.
#[derive(Debug)]
struct Node {
    entry: Arc<CacheEntry>,
    report_json: Arc<str>,
    last_used: u64,
    /// The request key registered for this entry, if any (at most one).
    request_key: Option<Arc<str>>,
}

#[derive(Default)]
struct CacheInner {
    nodes: HashMap<NodeId, Node>,
    /// Every node keyed by its `last_used` stamp: the first entry is the
    /// least recently used (the eviction candidate), the last the most.
    recency: BTreeMap<u64, NodeId>,
    next_id: NodeId,
    clock: u64,
    by_full: HashMap<u128, Vec<NodeId>>,
    by_shape: HashMap<u128, Vec<NodeId>>,
    /// Every registered request key and the entry it resolved to.
    by_request: HashMap<Arc<str>, NodeId>,
    stats: CacheStats,
}

impl CacheInner {
    /// Stamps `id` as the most recently used entry.
    fn touch(&mut self, id: NodeId) {
        self.clock += 1;
        if let Some(node) = self.nodes.get_mut(&id) {
            self.recency.remove(&node.last_used);
            node.last_used = self.clock;
            self.recency.insert(self.clock, id);
        }
    }

    /// Registers `key` as the request key of `id`, unless the entry already
    /// has one or the key is taken.
    fn register(&mut self, id: NodeId, key: &str) {
        if self.by_request.contains_key(key) {
            return;
        }
        let Some(node) = self.nodes.get_mut(&id).filter(|n| n.request_key.is_none()) else {
            return;
        };
        let key: Arc<str> = key.into();
        node.request_key = Some(Arc::clone(&key));
        self.by_request.insert(key, id);
    }

    /// The first entry of the exact index matching all four fields.
    fn find_exact(
        &self,
        fingerprint: Fingerprint,
        scenario: &SystemScenario,
        solver: &str,
        spec_key: &str,
    ) -> Option<NodeId> {
        self.by_full
            .get(&fingerprint.as_u128())?
            .iter()
            .copied()
            .find(|id| {
                let e = &self.nodes[id].entry;
                e.solver == solver && e.spec_key == spec_key && e.scenario == *scenario
            })
    }

    /// The entry and rendered bytes of `id`, sharing both with the cache.
    fn stored(&self, id: NodeId) -> Stored {
        let node = &self.nodes[&id];
        Stored {
            entry: Arc::clone(&node.entry),
            report_json: Arc::clone(&node.report_json),
        }
    }

    fn remove_from_bucket(map: &mut HashMap<u128, Vec<NodeId>>, key: u128, id: NodeId) {
        if let Some(bucket) = map.get_mut(&key) {
            bucket.retain(|&other| other != id);
            if bucket.is_empty() {
                map.remove(&key);
            }
        }
    }

    /// Evicts the least-recently-used entry from the recency order and every
    /// index. In-flight holders of the entry's `Arc` keep their reference
    /// alive; the cache merely forgets its own.
    fn evict_lru(&mut self) {
        let Some((_, id)) = self.recency.pop_first() else {
            return;
        };
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        Self::remove_from_bucket(&mut self.by_full, node.entry.fingerprint.as_u128(), id);
        Self::remove_from_bucket(&mut self.by_shape, node.entry.shape.as_u128(), id);
        if let Some(key) = &node.request_key {
            self.by_request.remove(key);
        }
        self.stats.evictions += 1;
    }

    /// Enforces [`MAX_ANCHORS_PER_BUCKET`] for `(shape, solver)` after `keep`
    /// became (or stayed) an anchor: while the bucket holds more than K
    /// anchors under that solver, the least-recently-used one other than
    /// `keep` is demoted to a plain entry. Demotion swaps the stored `Arc`
    /// for a clone with `anchor: false` — the report and addresses are
    /// untouched, so exact hits on the demoted entry stay bit-identical.
    fn enforce_anchor_cap(&mut self, shape_key: u128, solver: &str, keep: NodeId) {
        loop {
            let Some(bucket) = self.by_shape.get(&shape_key) else {
                return;
            };
            let mut anchors = 0usize;
            let mut victim: Option<(NodeId, u64)> = None;
            for &id in bucket {
                let node = &self.nodes[&id];
                if !node.entry.anchor || node.entry.solver != solver {
                    continue;
                }
                anchors += 1;
                if id != keep && victim.is_none_or(|(_, stamp)| node.last_used < stamp) {
                    victim = Some((id, node.last_used));
                }
            }
            if anchors <= MAX_ANCHORS_PER_BUCKET {
                return;
            }
            let Some(node) = victim.and_then(|(id, _)| self.nodes.get_mut(&id)) else {
                return;
            };
            let mut demoted = (*node.entry).clone();
            demoted.anchor = false;
            node.entry = Arc::new(demoted);
            self.stats.anchor_demotions += 1;
        }
    }
}

/// A bounded, thread-safe, content-addressed report cache with LRU
/// eviction, distance-ranked warm-start anchors, consistent telemetry and
/// JSON snapshot/restore. See the module docs for the policy details.
pub struct ScenarioCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ScenarioCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

fn malformed_snapshot(detail: impl std::fmt::Display) -> QuheError {
    QuheError::InvalidConfig {
        reason: format!("malformed cache snapshot: {detail}"),
    }
}

impl ScenarioCache {
    /// A cache holding at most `capacity` reports (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent telemetry snapshot: counters and occupancy are read
    /// under one lock acquisition, so the returned numbers always satisfy
    /// the [`CacheStats`] invariants.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        stats.entries = inner.nodes.len();
        stats.capacity = self.capacity;
        stats
    }

    /// Exact lookup: full fingerprint, solver, spec key — and verified
    /// scenario equality. Returns a clone of the stored report, taken after
    /// the cache lock is released (the service's own lookup shares the
    /// report and its rendered bytes instead). A hit refreshes the entry's
    /// LRU recency.
    pub fn lookup_exact(
        &self,
        fingerprint: Fingerprint,
        scenario: &SystemScenario,
        solver: &str,
        spec_key: &str,
    ) -> Option<SolveReport> {
        self.lookup_stored(fingerprint, scenario, solver, spec_key, None)
            .map(|stored| stored.entry.report.clone())
    }

    /// [`ScenarioCache::lookup_exact`] without the copy: a hit clones the
    /// entry's two `Arc`s under the lock, so the report and its rendered
    /// bytes are shared with the cache. A hit refreshes the entry's LRU
    /// recency, and registers `request_key` on the entry when it has none:
    /// the caller resolved that request to `scenario`.
    pub(crate) fn lookup_stored(
        &self,
        fingerprint: Fingerprint,
        scenario: &SystemScenario,
        solver: &str,
        spec_key: &str,
        request_key: Option<&str>,
    ) -> Option<Stored> {
        let mut inner = self.inner.lock();
        let Some(id) = inner.find_exact(fingerprint, scenario, solver, spec_key) else {
            inner.stats.exact_misses += 1;
            return None;
        };
        inner.stats.exact_hits += 1;
        inner.touch(id);
        if let Some(key) = request_key {
            inner.register(id, key);
        }
        Some(inner.stored(id))
    }

    /// The entry a request key was registered on, shared as
    /// [`ScenarioCache::lookup_stored`] shares it: no scenario, fingerprint
    /// or equality check is needed, because the key was registered only
    /// once its request had resolved to this entry. A hit counts as one
    /// exact hit and refreshes the entry's LRU recency; a miss counts
    /// nothing, since the caller falls back to an exact lookup that counts
    /// it.
    pub(crate) fn lookup_request(&self, request_key: &str) -> Option<Stored> {
        let mut inner = self.inner.lock();
        let id = *inner.by_request.get(request_key)?;
        inner.stats.exact_hits += 1;
        inner.touch(id);
        Some(inner.stored(id))
    }

    /// Shape lookup: the **nearest** cached anchor of the same world shape
    /// under the same solver, ranked by the pinned
    /// [`SystemScenario::drift_distance`] from `scenario` (ties go to the
    /// more recently used anchor). A nomination refreshes the winner's LRU
    /// recency. An anchor whose stored scenario is structurally
    /// incomparable (`drift_distance` returns `None`) is skipped, so a
    /// shape-fingerprint hash collision across different world sizes
    /// degrades to a miss instead of donating warm-start variables of the
    /// wrong dimensions (same-size collisions merely donate a poor start,
    /// which the service's single-start floor guard absorbs).
    pub fn lookup_anchor(
        &self,
        shape: Fingerprint,
        solver: &str,
        scenario: &SystemScenario,
    ) -> Option<Arc<CacheEntry>> {
        let mut inner = self.inner.lock();
        let mut best: Option<(NodeId, f64, u64)> = None;
        if let Some(bucket) = inner.by_shape.get(&shape.as_u128()) {
            for &id in bucket {
                let node = &inner.nodes[&id];
                let e = &node.entry;
                if !e.anchor || e.solver != solver {
                    continue;
                }
                let Some(distance) = scenario.drift_distance(&e.scenario) else {
                    continue;
                };
                let closer = match best {
                    None => true,
                    Some((_, best_distance, best_stamp)) => {
                        distance < best_distance
                            || (distance == best_distance && node.last_used > best_stamp)
                    }
                };
                if closer {
                    best = Some((id, distance, node.last_used));
                }
            }
        }
        match best {
            Some((id, _, _)) => {
                inner.stats.anchor_hits += 1;
                inner.touch(id);
                Some(Arc::clone(&inner.nodes[&id].entry))
            }
            None => {
                inner.stats.anchor_misses += 1;
                None
            }
        }
    }

    /// Inserts a solved report at the MRU position, evicting the
    /// least-recently-used entry when full. A duplicate of an
    /// already-cached `(fingerprint, solver, spec_key, scenario)`
    /// combination is not re-inserted (two workers racing on the same
    /// request both solve it; one stored report suffices) — but a duplicate
    /// carrying `anchor: true` **promotes** the cached entry's anchor flag
    /// instead of being dropped, keeping the already-served report
    /// bit-stable while restoring anchor eligibility. The scenario equality
    /// term keeps the collision policy intact: a distinct scenario
    /// colliding on the full fingerprint still gets its own entry instead
    /// of being locked out of the cache.
    pub fn insert(&self, entry: CacheEntry) {
        self.store(entry, None);
    }

    /// [`ScenarioCache::insert`], returning `entry` shared with the cache
    /// and its report rendered for the wire. The rendering happens before
    /// the lock is taken, once per stored report. A duplicate that is not
    /// re-inserted still returns its own entry and rendering, so the caller
    /// serves the report it solved. `request_key`, the key of the request
    /// that resolved to `entry`'s scenario, is registered on the inserted
    /// entry, or on the cached duplicate when it has no key yet.
    pub(crate) fn store(&self, entry: CacheEntry, request_key: Option<&str>) -> Stored {
        let report_json: Arc<str> = wire::render_report(&entry.report).into();
        let entry = Arc::new(entry);
        let stored = Stored {
            entry: Arc::clone(&entry),
            report_json: Arc::clone(&report_json),
        };
        let mut inner = self.inner.lock();
        let duplicate = inner.find_exact(
            entry.fingerprint,
            &entry.scenario,
            &entry.solver,
            &entry.spec_key,
        );
        if let Some(id) = duplicate {
            // The duplicate was just re-solved: it is recent even if the
            // stored copy is kept.
            inner.touch(id);
            if let Some(key) = request_key {
                inner.register(id, key);
            }
            if entry.anchor {
                if let Some(node) = inner.nodes.get_mut(&id).filter(|node| !node.entry.anchor) {
                    let mut promoted = (*node.entry).clone();
                    promoted.anchor = true;
                    node.entry = Arc::new(promoted);
                    inner.stats.anchor_promotions += 1;
                    inner.enforce_anchor_cap(entry.shape.as_u128(), &entry.solver, id);
                }
            }
            return stored;
        }
        while inner.nodes.len() >= self.capacity {
            inner.evict_lru();
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let full_key = entry.fingerprint.as_u128();
        let shape_key = entry.shape.as_u128();
        inner.clock += 1;
        let stamp = inner.clock;
        inner.nodes.insert(
            id,
            Node {
                entry: Arc::clone(&entry),
                report_json,
                last_used: stamp,
                request_key: None,
            },
        );
        inner.recency.insert(stamp, id);
        inner.by_full.entry(full_key).or_default().push(id);
        inner.by_shape.entry(shape_key).or_default().push(id);
        if let Some(key) = request_key {
            inner.register(id, key);
        }
        inner.stats.insertions += 1;
        if entry.anchor {
            inner.enforce_anchor_cap(shape_key, &entry.solver, id);
        }
        stored
    }

    /// Serializes the full cache state to a versioned JSON tree
    /// ([`SNAPSHOT_SCHEMA`]). Entries are listed LRU first and MRU last, so
    /// [`ScenarioCache::restore`] — which inserts in order — reproduces the
    /// recency order exactly; reports round-trip bit-identically through
    /// [`SolveReport::to_json_value`]. Telemetry counters are *not*
    /// snapshotted: a restored cache starts fresh counters, matching a
    /// restarted service.
    pub fn snapshot(&self) -> JsonValue {
        let inner = self.inner.lock();
        let mut entries = Vec::with_capacity(inner.nodes.len());
        for id in inner.recency.values() {
            let e = &inner.nodes[id].entry;
            entries.push(
                JsonValue::object()
                    .with("fingerprint", JsonValue::String(e.fingerprint.to_hex()))
                    .with("shape", JsonValue::String(e.shape.to_hex()))
                    .with("solver", JsonValue::String(e.solver.clone()))
                    .with("spec_key", JsonValue::String(e.spec_key.clone()))
                    .with("anchor", JsonValue::Bool(e.anchor))
                    .with("scenario", e.scenario.to_json_value())
                    .with("report", e.report.to_json_value()),
            );
        }
        JsonValue::object()
            .with("schema", JsonValue::String(SNAPSHOT_SCHEMA.to_string()))
            .with("entries", JsonValue::Array(entries))
    }

    /// Loads a [`ScenarioCache::snapshot`] tree into this cache, returning
    /// how many entries were inserted. Entries are inserted in snapshot
    /// (LRU → MRU) order through the normal [`ScenarioCache::insert`] path,
    /// so recency is preserved and a snapshot larger than this cache's
    /// capacity keeps the most recently used tail. Each entry's
    /// fingerprints are recomputed from the deserialized scenario and
    /// checked against the stored digests, so a corrupted or hand-edited
    /// snapshot fails loudly instead of caching wrong answers.
    ///
    /// # Errors
    /// [`QuheError::InvalidConfig`] naming the offending entry and field
    /// for an unsupported schema, a malformed entry, or a fingerprint
    /// mismatch.
    pub fn restore(&self, snapshot: &JsonValue) -> QuheResult<usize> {
        let schema = snapshot
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| malformed_snapshot("missing 'schema' tag"))?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(malformed_snapshot(format!(
                "unsupported schema '{schema}' (expected '{SNAPSHOT_SCHEMA}')"
            )));
        }
        let entries = snapshot
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed_snapshot("missing 'entries' array"))?;
        let mut restored = 0usize;
        for (index, item) in entries.iter().enumerate() {
            let str_field = |name: &str| {
                item.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        malformed_snapshot(format!("entry {index}: missing string '{name}'"))
                    })
            };
            let scenario =
                SystemScenario::from_json_value(item.get("scenario").ok_or_else(|| {
                    malformed_snapshot(format!("entry {index}: missing 'scenario'"))
                })?)?;
            let report =
                SolveReport::from_json_value(item.get("report").ok_or_else(|| {
                    malformed_snapshot(format!("entry {index}: missing 'report'"))
                })?)?;
            let anchor = item
                .get("anchor")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| {
                    malformed_snapshot(format!("entry {index}: missing bool 'anchor'"))
                })?;
            let fingerprint = scenario.fingerprint();
            let shape = scenario.shape_fingerprint();
            if str_field("fingerprint")? != fingerprint.to_hex() {
                return Err(malformed_snapshot(format!(
                    "entry {index}: fingerprint does not match the stored scenario"
                )));
            }
            if str_field("shape")? != shape.to_hex() {
                return Err(malformed_snapshot(format!(
                    "entry {index}: shape fingerprint does not match the stored scenario"
                )));
            }
            self.insert(CacheEntry {
                scenario,
                fingerprint,
                shape,
                solver: str_field("solver")?,
                spec_key: str_field("spec_key")?,
                report,
                anchor,
            });
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quhe_core::params::QuheConfig;
    use quhe_core::solver::{QuheSolver, SolveSpec, Solver};
    use quhe_mec::scenario::MecScenario;

    fn entry_for(scenario: SystemScenario, solver: &str, anchor: bool) -> CacheEntry {
        let config = QuheConfig {
            max_outer_iterations: 1,
            max_stage3_iterations: 4,
            solver_threads: 1,
            ..QuheConfig::default()
        };
        let report = QuheSolver::new(config)
            .solve(&scenario, &SolveSpec::single_start())
            .unwrap();
        CacheEntry {
            fingerprint: scenario.fingerprint(),
            shape: scenario.shape_fingerprint(),
            scenario,
            solver: solver.to_string(),
            spec_key: SolveSpec::cold().to_json_value().to_compact_string(),
            report,
            anchor,
        }
    }

    fn entry(seed: u64, solver: &str, anchor: bool) -> CacheEntry {
        entry_for(SystemScenario::paper_default(seed), solver, anchor)
    }

    /// `base` with every client channel gain scaled by `factor` — same
    /// shape, nonzero drift distance growing with `|ln factor|`.
    fn drifted(base: &SystemScenario, factor: f64) -> SystemScenario {
        let mut clients = base.mec().clients().to_vec();
        for c in &mut clients {
            c.channel_gain *= factor;
        }
        SystemScenario::new(
            base.qkd().clone(),
            MecScenario::new(
                clients,
                base.mec().total_bandwidth_hz(),
                base.mec().total_server_frequency_hz(),
                base.mec().server_capacitance(),
                base.mec().noise_psd(),
            )
            .unwrap(),
            base.lambda_choices().to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn exact_lookup_requires_all_three_keys_and_scenario_equality() {
        let cache = ScenarioCache::new(8);
        let e = entry(1, "quhe", true);
        let (fp, scenario, spec_key) = (e.fingerprint, e.scenario.clone(), e.spec_key.clone());
        cache.insert(e);
        assert!(cache
            .lookup_exact(fp, &scenario, "quhe", &spec_key)
            .is_some());
        assert!(cache.lookup_exact(fp, &scenario, "aa", &spec_key).is_none());
        assert!(cache.lookup_exact(fp, &scenario, "quhe", "{}").is_none());
        let other = SystemScenario::paper_default(2);
        assert!(cache
            .lookup_exact(other.fingerprint(), &other, "quhe", &spec_key)
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.exact_misses, 3);
        assert_eq!(stats.exact_lookups(), 4);
    }

    #[test]
    fn exact_lookups_share_the_rendering_made_when_the_report_was_stored() {
        let cache = ScenarioCache::new(8);
        let e = entry(1, "quhe", true);
        let (fp, scenario, spec_key) = (e.fingerprint, e.scenario.clone(), e.spec_key.clone());
        let expected = wire::render_report(&e.report);
        let stored = cache.store(e, None);
        assert_eq!(&*stored.report_json, expected);
        let first = cache
            .lookup_stored(fp, &scenario, "quhe", &spec_key, None)
            .unwrap();
        let second = cache
            .lookup_stored(fp, &scenario, "quhe", &spec_key, None)
            .unwrap();
        // A hit that rendered its own bytes would hold a fresh allocation.
        assert!(Arc::ptr_eq(&first.report_json, &stored.report_json));
        assert!(Arc::ptr_eq(&second.report_json, &stored.report_json));
        assert!(Arc::ptr_eq(&first.entry, &stored.entry));
        // The copying lookup returns the same report.
        let report = cache
            .lookup_exact(fp, &scenario, "quhe", &spec_key)
            .unwrap();
        assert_eq!(wire::render_report(&report), expected);
        assert_eq!(cache.stats().exact_hits, 3);
    }

    /// The `CacheStats` invariants, and a key index no larger than the
    /// entry count.
    fn assert_consistent(cache: &ScenarioCache) {
        let stats = cache.stats();
        assert_eq!(stats.exact_hits + stats.exact_misses, stats.exact_lookups());
        assert_eq!(stats.insertions - stats.evictions, stats.entries as u64);
        let inner = cache.inner.lock();
        assert!(inner.by_request.len() <= inner.nodes.len(), "{stats:?}");
        for (key, id) in &inner.by_request {
            assert_eq!(inner.nodes[id].request_key.as_deref(), Some(&**key));
        }
    }

    #[test]
    fn a_request_key_hit_shares_the_entry_the_exact_lookup_finds() {
        let cache = ScenarioCache::new(8);
        let e = entry(1, "quhe", true);
        let (fp, scenario, spec_key) = (e.fingerprint, e.scenario.clone(), e.spec_key.clone());
        // A key miss counts nothing: the exact lookup that follows it does.
        assert!(cache.lookup_request("k").is_none());
        assert_eq!(cache.stats().exact_lookups(), 0);
        let stored = cache.store(e, Some("k"));
        let by_key = cache.lookup_request("k").unwrap();
        let exact = cache
            .lookup_stored(fp, &scenario, "quhe", &spec_key, None)
            .unwrap();
        for shared in [&by_key, &exact] {
            assert!(Arc::ptr_eq(&shared.entry, &stored.entry));
            assert!(Arc::ptr_eq(&shared.report_json, &stored.report_json));
        }
        // Each hit, by key or by fingerprint, is one exact lookup.
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.exact_misses), (2, 0));
        assert!(cache.lookup_request("other").is_none());
        assert_eq!(cache.stats(), stats);
        assert_consistent(&cache);
    }

    #[test]
    fn key_hits_refresh_recency_and_an_evicted_entry_takes_its_key() {
        let cache = ScenarioCache::new(2);
        cache.store(entry(1, "quhe", true), Some("a"));
        cache.store(entry(2, "quhe", true), Some("b"));
        // Touch A (the LRU) by key; storing C must now evict B.
        assert!(cache.lookup_request("a").is_some());
        cache.store(entry(3, "quhe", true), Some("c"));
        assert!(cache.lookup_request("b").is_none());
        assert!(cache.lookup_request("a").is_some());
        assert!(cache.lookup_request("c").is_some());
        assert_consistent(&cache);
        // Stored again, B gets its key back; the LRU entry, A, goes.
        cache.store(entry(2, "quhe", true), Some("b"));
        assert!(cache.lookup_request("b").is_some());
        assert!(cache.lookup_request("a").is_none());
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions), (4, 2));
        assert_eq!(cache.inner.lock().by_request.len(), 2);
        assert_consistent(&cache);
    }

    #[test]
    fn an_entry_holds_at_most_one_request_key() {
        let cache = ScenarioCache::new(8);
        let e = entry(1, "quhe", true);
        let (fp, scenario, spec_key) = (e.fingerprint, e.scenario.clone(), e.spec_key.clone());
        cache.store(e, Some("first"));
        // Neither a duplicate store nor a verified hit under another key
        // replaces the first key or adds a second.
        cache.store(entry(1, "quhe", true), Some("second"));
        assert!(cache
            .lookup_stored(fp, &scenario, "quhe", &spec_key, Some("third"))
            .is_some());
        assert!(cache.lookup_request("first").is_some());
        assert!(cache.lookup_request("second").is_none());
        assert!(cache.lookup_request("third").is_none());
        // An entry stored without a key takes the first key that finds it.
        let plain = entry(2, "quhe", true);
        let (fp2, scenario2) = (plain.fingerprint, plain.scenario.clone());
        cache.insert(plain);
        assert!(cache
            .lookup_stored(fp2, &scenario2, "quhe", &spec_key, Some("fourth"))
            .is_some());
        assert!(cache.lookup_request("fourth").is_some());
        assert_eq!(cache.inner.lock().by_request.len(), 2);
        assert_consistent(&cache);
    }

    #[test]
    fn a_restored_entry_is_found_by_fingerprint_and_then_by_key() {
        let cache = ScenarioCache::new(8);
        let e = entry(1, "quhe", true);
        let (fp, scenario, spec_key) = (e.fingerprint, e.scenario.clone(), e.spec_key.clone());
        cache.store(e, Some("k"));
        // The snapshot carries the entry's seven fields and no key.
        let snapshot = cache.snapshot();
        let fields: Vec<&str> = snapshot
            .get("entries")
            .and_then(JsonValue::as_array)
            .unwrap()[0]
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            fields,
            [
                "fingerprint",
                "shape",
                "solver",
                "spec_key",
                "anchor",
                "scenario",
                "report"
            ]
        );
        let restored = ScenarioCache::new(8);
        restored.restore(&snapshot).unwrap();
        assert!(restored.lookup_request("k").is_none());
        let exact = restored
            .lookup_stored(fp, &scenario, "quhe", &spec_key, Some("k"))
            .unwrap();
        let by_key = restored.lookup_request("k").unwrap();
        assert!(Arc::ptr_eq(&exact.entry, &by_key.entry));
        assert!(Arc::ptr_eq(&exact.report_json, &by_key.report_json));
        assert_eq!(restored.stats().exact_hits, 2);
        assert_consistent(&restored);
    }

    #[test]
    fn anchor_lookup_returns_the_nearest_anchor_not_the_most_recent() {
        let cache = ScenarioCache::new(8);
        let base = SystemScenario::paper_default(1);
        let near = drifted(&base, 1.01);
        let far = drifted(&base, 1.5);
        let shape = base.shape_fingerprint();
        assert_eq!(shape, near.shape_fingerprint());
        assert_eq!(shape, far.shape_fingerprint());
        // The far anchor is inserted last, so recency policy would pick it;
        // distance policy must pick the near one.
        cache.insert(entry_for(near.clone(), "quhe", true));
        cache.insert(entry_for(far, "quhe", true));
        let nominated = cache.lookup_anchor(shape, "quhe", &base).unwrap();
        assert_eq!(nominated.fingerprint, near.fingerprint());
        // A non-anchor entry is never nominated, nor is another solver's.
        assert!(cache.lookup_anchor(shape, "aa", &base).is_none());
        let stats = cache.stats();
        assert_eq!(stats.anchor_hits, 1);
        assert_eq!(stats.anchor_misses, 1);
    }

    #[test]
    fn anchor_lookup_skips_structurally_incomparable_entries() {
        // A cross-size shape collision cannot be constructed for real, so
        // plant one: store an anchor under the wrong shape key by reusing
        // the small scenario's shape fingerprint for a larger world.
        let small = SystemScenario::paper_default(1);
        let large = SystemScenario::new(
            quhe_qkd::topology::synthetic_scenario(12, 3),
            MecScenario::paper_with_num_clients(12, 3),
            small.lambda_choices().to_vec(),
        )
        .unwrap();
        let cache = ScenarioCache::new(8);
        let mut fake = entry_for(large, "quhe", true);
        fake.shape = small.shape_fingerprint();
        cache.insert(fake);
        assert!(cache
            .lookup_anchor(small.shape_fingerprint(), "quhe", &small)
            .is_none());
    }

    #[test]
    fn exact_and_anchor_hits_refresh_lru_recency() {
        let cache = ScenarioCache::new(2);
        let a = entry(1, "quhe", true);
        let b = entry(2, "quhe", true);
        let (a_fp, a_scn, spec_key) = (a.fingerprint, a.scenario.clone(), a.spec_key.clone());
        let b_shape = b.shape;
        let b_scn = b.scenario.clone();
        cache.insert(a);
        cache.insert(b);
        // Touch A (the LRU) via an exact hit; inserting C must now evict B.
        assert!(cache
            .lookup_exact(a_fp, &a_scn, "quhe", &spec_key)
            .is_some());
        cache.insert(entry(3, "quhe", true));
        assert_eq!(cache.len(), 2);
        assert!(cache
            .lookup_exact(a_fp, &a_scn, "quhe", &spec_key)
            .is_some());
        assert!(cache.lookup_anchor(b_shape, "quhe", &b_scn).is_none());
        // Anchor nominations refresh recency too: nominate A, insert D —
        // C (untouched since insert) is evicted, A survives.
        let a_shape = a_scn.shape_fingerprint();
        assert!(cache.lookup_anchor(a_shape, "quhe", &a_scn).is_some());
        cache.insert(entry(4, "quhe", true));
        assert!(cache
            .lookup_exact(a_fp, &a_scn, "quhe", &spec_key)
            .is_some());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_entry_from_both_indexes() {
        let cache = ScenarioCache::new(2);
        let entries: Vec<CacheEntry> = (1..=3).map(|s| entry(s, "quhe", true)).collect();
        let first = (entries[0].fingerprint, entries[0].scenario.clone());
        let first_shape = entries[0].shape;
        let spec_key = entries[0].spec_key.clone();
        for e in entries {
            cache.insert(e);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache
            .lookup_exact(first.0, &first.1, "quhe", &spec_key)
            .is_none());
        assert!(cache.lookup_anchor(first_shape, "quhe", &first.1).is_none());
    }

    #[test]
    fn duplicate_triples_are_inserted_once() {
        let cache = ScenarioCache::new(8);
        cache.insert(entry(1, "quhe", true));
        cache.insert(entry(1, "quhe", true));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.anchor_promotions, 0);
    }

    #[test]
    fn duplicate_insert_promotes_the_anchor_flag() {
        // Regression: a racing cold multi-start result used to be dropped
        // when a warm-served (non-anchor) entry already held the slot,
        // silently losing anchor eligibility for the whole shape.
        let cache = ScenarioCache::new(8);
        let plain = entry(1, "quhe", false);
        let shape = plain.shape;
        let scenario = plain.scenario.clone();
        let (fp, spec_key) = (plain.fingerprint, plain.spec_key.clone());
        let first_report_json = plain.report.to_json();
        cache.insert(plain);
        assert!(cache.lookup_anchor(shape, "quhe", &scenario).is_none());

        let mut cold = entry(1, "quhe", true);
        cold.report.runtime_s += 1.0; // a racing solve's report differs
        cache.insert(cold);
        assert_eq!(cache.len(), 1);
        let nominated = cache.lookup_anchor(shape, "quhe", &scenario).unwrap();
        assert!(nominated.anchor);
        // Promotion keeps the originally stored report, so exact hits stay
        // bit-identical to what was already served.
        let report = cache
            .lookup_exact(fp, &scenario, "quhe", &spec_key)
            .unwrap();
        assert_eq!(report.to_json(), first_report_json);
        assert_eq!(cache.stats().anchor_promotions, 1);
    }

    #[test]
    fn anchor_cap_demotes_the_least_recently_used_anchor() {
        let base = SystemScenario::paper_default(1);
        let cache = ScenarioCache::new(16);
        let shape = base.shape_fingerprint();
        let mut scenarios = vec![base.clone()];
        for i in 0..MAX_ANCHORS_PER_BUCKET {
            scenarios.push(drifted(&base, 1.0 + 0.01 * (i + 1) as f64));
        }
        for s in &scenarios {
            assert_eq!(s.shape_fingerprint(), shape);
            cache.insert(entry_for(s.clone(), "quhe", true));
        }
        // K+1 anchors inserted: the oldest (base) must have been demoted,
        // but it is still exact-hittable.
        let stats = cache.stats();
        assert_eq!(stats.anchor_demotions, 1);
        assert_eq!(stats.entries, MAX_ANCHORS_PER_BUCKET + 1);
        let spec_key = SolveSpec::cold().to_json_value().to_compact_string();
        assert!(cache
            .lookup_exact(base.fingerprint(), &base, "quhe", &spec_key)
            .is_some());
        // The nearest *remaining* anchor to base is the 1.01 drift.
        let nominated = cache.lookup_anchor(shape, "quhe", &base).unwrap();
        assert_eq!(nominated.fingerprint, scenarios[1].fingerprint());
    }

    #[test]
    fn snapshot_restore_round_trips_entries_and_recency() {
        let cache = ScenarioCache::new(8);
        for seed in 1..=3 {
            cache.insert(entry(seed, "quhe", seed != 2));
        }
        // Touch seed 1 so the recency order differs from insertion order.
        let e1 = entry(1, "quhe", true);
        assert!(cache
            .lookup_exact(e1.fingerprint, &e1.scenario, "quhe", &e1.spec_key)
            .is_some());

        let snapshot = cache.snapshot();
        assert_eq!(
            snapshot.get("schema").and_then(JsonValue::as_str),
            Some(SNAPSHOT_SCHEMA)
        );
        let restored = ScenarioCache::new(8);
        assert_eq!(restored.restore(&snapshot).unwrap(), 3);
        assert_eq!(restored.len(), 3);
        // Reports are bit-identical and anchor flags survive.
        for seed in 1..=3 {
            let e = entry(seed, "quhe", true);
            let report = restored
                .lookup_exact(e.fingerprint, &e.scenario, "quhe", &e.spec_key)
                .unwrap();
            let original = cache
                .lookup_exact(e.fingerprint, &e.scenario, "quhe", &e.spec_key)
                .unwrap();
            assert_eq!(report.to_json(), original.to_json());
        }
        let e2 = entry(2, "quhe", true);
        assert!(restored
            .lookup_anchor(e2.shape, "quhe", &e2.scenario)
            .is_none());
        // Recency survived: in a capacity-2 restore, the snapshot's LRU
        // entry (seed 2 — seed 1 was touched after insertion) drops first.
        let small = ScenarioCache::new(2);
        small.restore(&snapshot).unwrap();
        assert_eq!(small.len(), 2);
        assert!(small
            .lookup_exact(e2.fingerprint, &e2.scenario, "quhe", &e2.spec_key)
            .is_none());
        assert!(small
            .lookup_exact(e1.fingerprint, &e1.scenario, "quhe", &e1.spec_key)
            .is_some());
    }

    #[test]
    fn restore_rejects_bad_schema_and_tampered_fingerprints() {
        let cache = ScenarioCache::new(4);
        cache.insert(entry(1, "quhe", true));
        let snapshot = cache.snapshot();

        // `JsonValue::with` appends (it never overwrites), so rebuild the
        // tampered trees field by field.
        let entries = snapshot
            .get("entries")
            .and_then(JsonValue::as_array)
            .unwrap();
        let wrong_schema = JsonValue::object()
            .with("schema", JsonValue::String("quhe-cache-snapshot/v0".into()))
            .with("entries", JsonValue::Array(entries.to_vec()));
        let err = ScenarioCache::new(4).restore(&wrong_schema).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "{err}");

        // Tamper with the stored fingerprint: restore must refuse.
        let mut tampered_entry = JsonValue::object().with(
            "fingerprint",
            JsonValue::String("00000000000000000000000000000000".into()),
        );
        for key in [
            "shape", "solver", "spec_key", "anchor", "scenario", "report",
        ] {
            tampered_entry.set(key, entries[0].get(key).unwrap().clone());
        }
        let tampered = JsonValue::object()
            .with("schema", JsonValue::String(SNAPSHOT_SCHEMA.into()))
            .with("entries", JsonValue::Array(vec![tampered_entry]));
        let err = ScenarioCache::new(4).restore(&tampered).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn eviction_does_not_orphan_in_flight_anchor_references() {
        // A warm solve holds the nominated anchor's Arc while the cache
        // churns past capacity underneath it. The held entry must stay
        // valid (Arc keeps it alive) and re-inserting the warm result must
        // not resurrect or corrupt the evicted anchor's slot.
        let cache = ScenarioCache::new(2);
        let anchor_entry = entry(1, "quhe", true);
        let shape = anchor_entry.shape;
        let scenario = anchor_entry.scenario.clone();
        cache.insert(anchor_entry);
        let in_flight = cache.lookup_anchor(shape, "quhe", &scenario).unwrap();

        // Fill the cache until the anchor is evicted.
        cache.insert(entry(2, "quhe", true));
        cache.insert(entry(3, "quhe", true));
        cache.insert(entry(4, "quhe", true));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_anchor(shape, "quhe", &scenario).is_none());

        // The in-flight reference still reads fine.
        assert!(in_flight.anchor);
        assert_eq!(in_flight.scenario, scenario);

        // The warm result derived from the evicted anchor inserts cleanly.
        let mut warm = CacheEntry::clone(&in_flight);
        warm.spec_key = "warm".to_string();
        warm.anchor = false;
        cache.insert(warm);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.insertions as i64 - stats.evictions as i64, 2);
    }
}
