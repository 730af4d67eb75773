//! Content-addressed scenario fingerprints.
//!
//! The serve layer (`quhe-serve`) dedupes repeated solve requests by hashing
//! the *content* of a [`SystemScenario`] into a [`Fingerprint`]: two
//! scenarios carry the same fingerprint exactly when their canonical byte
//! encodings agree. Two fingerprints are exposed:
//!
//! * [`SystemScenario::fingerprint`] — the **full** fingerprint over every
//!   scenario field. Equal full fingerprints identify candidates for exact
//!   cache hits (a cached [`crate::solver::SolveReport`] can be returned
//!   bit-identically with zero solver work).
//! * [`SystemScenario::shape_fingerprint`] — the **shape** fingerprint, which
//!   skips exactly the fields the dynamic-world machinery of
//!   [`crate::online`] drifts continuously: the MEC per-client channel gains
//!   (`channel_drift` events), the per-client upload payloads and token
//!   counts (`load_burst` events) and the QKD per-link rate coefficients
//!   (key-rate drift). Two scenarios with equal shape fingerprints are the
//!   *same world shape* — same clients, same routes, same budgets, same
//!   degree choices — observed under different channel/load conditions, so a
//!   solution of one is a sound warm start for the other
//!   ([`crate::solver::StartMode::WarmFrom`] needs matching variable
//!   dimensions, which the shape guarantees).
//!
//! # Canonical byte encoding
//!
//! The hash input is a deterministic byte stream, defined field by field so
//! the fingerprint is stable across process runs and platforms:
//!
//! * the stream opens with the ASCII tag `QUHE-SCN-v1` followed by one mode
//!   byte (`0x00` full, `0x01` shape);
//! * every `u64`/`usize` is appended as 8 little-endian bytes (`usize` via
//!   `u64`);
//! * every `f64` is appended as the 8 little-endian bytes of its IEEE-754
//!   representation (`f64::to_bits`), so `0.1 + 0.2 != 0.3` at the bit level
//!   stays distinguishable and `-0.0 != 0.0`;
//! * every string is appended as its byte length (`u64`) followed by its
//!   UTF-8 bytes;
//! * every list is appended as its element count (`u64`) followed by its
//!   elements in order.
//!
//! Scenario fields are streamed in declaration order: the QKD side
//! (key-center name; nodes as `(id, name)`; links as `(id, length_km,
//! beta*)`; routes as `(id, source, destination, link_ids)`), the MEC side
//! (clients as `(distance_m, channel_gain*, upload_bits*, tokens*,
//! tokens_per_sample, encryption_cycles, client_capacitance,
//! max_client_frequency_hz, max_power_w, privacy_weight)`; then
//! `total_bandwidth_hz`, `total_server_frequency_hz`, `server_capacitance`,
//! `noise_psd`), and finally `lambda_choices`. Fields marked `*` are the
//! drift fields skipped in shape mode. The link-route incidence matrix is
//! derived from the routes at construction and therefore not hashed.
//!
//! The stream is digested with 128-bit FNV-1a. Fingerprints are cache
//! *lookup keys*, not equality proofs: the serve-layer cache stores the full
//! scenario next to each entry, verifies equality on every exact hit, and
//! checks dimension compatibility (plus the cold single-start floor) on
//! every warm anchor nomination — so a hash collision can only cost a cache
//! miss or a discarded warm start, never a wrong answer.

use crate::scenario::SystemScenario;

/// The pinned tag of the canonical scenario byte encoding. Any change to the
/// stream layout, the hashed field set or the hash function must bump this
/// tag; the pinned-digest test below makes a silent change loud.
pub const SCENARIO_FMT: &str = "QUHE-SCN-v1";

/// The pinned tag of the [`SystemScenario::drift_distance`] definition. The
/// metric is part of the cache's warm-start contract — anchors ranked under
/// one definition must not be compared against distances computed under
/// another — so a change to the formula must bump this tag.
pub const DRIFT_DIST_FMT: &str = "QUHE-DRIFT-DIST-v1";

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content fingerprint of a [`SystemScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// The canonical 32-character lowercase hex rendering (what the serve
    /// protocol carries).
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Fingerprint::to_hex`] rendering: exactly 32 hex digits
    /// (either case). Sign prefixes and other `from_str_radix` leniencies
    /// are rejected, so distinct wire strings never alias one fingerprint.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Fingerprint)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming FNV-1a canonicalizer. `shape_only` switches the drift fields
/// off, producing the shape fingerprint.
struct Canonicalizer {
    state: u128,
    shape_only: bool,
}

impl Canonicalizer {
    fn new(shape_only: bool) -> Self {
        let mut canon = Self {
            state: FNV128_OFFSET,
            shape_only,
        };
        canon.bytes(SCENARIO_FMT.as_bytes());
        canon.bytes(&[u8::from(shape_only)]);
        canon
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn f64(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    /// A drift field: hashed in full mode, skipped in shape mode.
    fn drift_f64(&mut self, value: f64) {
        if !self.shape_only {
            self.f64(value);
        }
    }

    fn str(&mut self, value: &str) {
        self.usize(value.len());
        self.bytes(value.as_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

fn canonicalize(scenario: &SystemScenario, shape_only: bool) -> Fingerprint {
    let mut canon = Canonicalizer::new(shape_only);

    // QKD side.
    let qkd = scenario.qkd();
    canon.str(qkd.key_center());
    canon.usize(qkd.nodes().len());
    for node in qkd.nodes() {
        canon.usize(node.id);
        canon.str(&node.name);
    }
    canon.usize(qkd.links().len());
    for link in qkd.links() {
        canon.usize(link.id);
        canon.f64(link.length_km);
        canon.drift_f64(link.beta);
    }
    canon.usize(qkd.routes().len());
    for route in qkd.routes() {
        canon.usize(route.id);
        canon.str(&route.source);
        canon.str(&route.destination);
        canon.usize(route.link_ids.len());
        for &link_id in &route.link_ids {
            canon.usize(link_id);
        }
    }

    // MEC side.
    let mec = scenario.mec();
    canon.usize(mec.num_clients());
    for client in mec.clients() {
        canon.f64(client.distance_m);
        canon.drift_f64(client.channel_gain);
        canon.drift_f64(client.upload_bits);
        canon.drift_f64(client.tokens);
        canon.f64(client.tokens_per_sample);
        canon.f64(client.encryption_cycles);
        canon.f64(client.client_capacitance);
        canon.f64(client.max_client_frequency_hz);
        canon.f64(client.max_power_w);
        canon.f64(client.privacy_weight);
    }
    canon.f64(mec.total_bandwidth_hz());
    canon.f64(mec.total_server_frequency_hz());
    canon.f64(mec.server_capacitance());
    canon.f64(mec.noise_psd());

    // Degree choices.
    canon.usize(scenario.lambda_choices().len());
    for &lambda in scenario.lambda_choices() {
        canon.u64(lambda);
    }

    canon.finish()
}

impl SystemScenario {
    /// The full content fingerprint: a deterministic 128-bit digest of every
    /// scenario field under the canonical byte encoding documented in
    /// [`crate::fingerprint`]. Equal scenarios always produce equal
    /// fingerprints; the serve-layer cache uses this as its exact-hit lookup
    /// key (and verifies scenario equality on hit, so collisions are
    /// harmless).
    pub fn fingerprint(&self) -> Fingerprint {
        canonicalize(self, false)
    }

    /// The shape fingerprint: the canonical digest with the continuously
    /// drifting fields (per-client channel gains, upload payloads and token
    /// counts; per-link rate coefficients) skipped. Scenarios sharing a shape
    /// fingerprint are the same world observed under different channel/load
    /// conditions — warm-start compatible by construction.
    pub fn shape_fingerprint(&self) -> Fingerprint {
        canonicalize(self, true)
    }

    /// The **drift distance** between two scenarios of the same shape — the
    /// similarity metric the serve-layer cache ranks warm-start anchors by.
    ///
    /// The definition is pinned ([`DRIFT_DIST_FMT`], `QUHE-DRIFT-DIST-v1`):
    /// the Euclidean norm
    /// of the log-ratios of *exactly* the drift fields that
    /// [`SystemScenario::shape_fingerprint`] excludes, accumulated in
    /// declaration order —
    ///
    /// ```text
    /// d(a, b)^2 =   Σ_clients [ ln²(gₐ/g_b) + ln²(dₐ/d_b) + ln²(tokₐ/tok_b) ]
    ///             + Σ_links     ln²(βₐ/β_b)
    /// ```
    ///
    /// where `g` is the channel gain, `d` the upload payload in bits, `tok`
    /// the token count and `β` the link rate coefficient. Log-ratios make
    /// the metric scale-free (a 1 % gain fade counts the same as a 1 % beta
    /// fade), symmetric up to floating-point rounding of the quotient and
    /// logarithm, and exact-zero for equal scenarios; every field is
    /// validated positive at construction, so the logarithms are finite.
    /// Clients are visited in index order, then links in id order, each
    /// field in declaration order, so the accumulated sum is
    /// bit-deterministic across runs.
    ///
    /// Returns `None` when the scenarios are structurally incomparable
    /// (different client or link counts) — for same-shape scenarios, which
    /// is the only way the cache calls it, the distance always exists.
    pub fn drift_distance(&self, other: &SystemScenario) -> Option<f64> {
        if self.num_clients() != other.num_clients() || self.num_links() != other.num_links() {
            return None;
        }
        let log_ratio_sq = |a: f64, b: f64| {
            let r = (a / b).ln();
            r * r
        };
        let mut sum = 0.0;
        for (a, b) in self.mec().clients().iter().zip(other.mec().clients()) {
            sum += log_ratio_sq(a.channel_gain, b.channel_gain);
            sum += log_ratio_sq(a.upload_bits, b.upload_bits);
            sum += log_ratio_sq(a.tokens, b.tokens);
        }
        for (a, b) in self.qkd().links().iter().zip(other.qkd().links()) {
            sum += log_ratio_sq(a.beta, b.beta);
        }
        Some(sum.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quhe_mec::scenario::MecScenario;

    #[test]
    fn fingerprints_are_deterministic_and_seed_sensitive() {
        let a = SystemScenario::paper_default(42);
        let b = SystemScenario::paper_default(42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.shape_fingerprint(), b.shape_fingerprint());
        let c = SystemScenario::paper_default(43);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Different placements are different shapes too (distances differ).
        assert_ne!(a.shape_fingerprint(), c.shape_fingerprint());
    }

    #[test]
    fn canonical_encoding_is_pinned() {
        // The byte-level canonicalization is a protocol: the serve cache and
        // its artifacts address scenarios by these exact digests. Any change
        // to the stream layout, the hashed field set or the hash function
        // must bump the `QUHE-SCN-v1` tag — this pin makes such a change
        // loud.
        let scenario = SystemScenario::paper_default(42);
        assert_eq!(
            scenario.fingerprint().to_hex(),
            "d1754e0e7bef7df87cb4e53ecf124fd4"
        );
        assert_eq!(
            scenario.shape_fingerprint().to_hex(),
            "d857dbd36944c3b64c095a45ade9dd3a"
        );
    }

    #[test]
    fn drift_fields_change_full_but_not_shape() {
        let base = SystemScenario::paper_default(7);

        // QKD key-rate drift.
        let mut betas = base.qkd().betas();
        for beta in &mut betas {
            *beta *= 1.01;
        }
        let drifted_qkd = SystemScenario::new(
            base.qkd().with_betas(&betas).unwrap(),
            base.mec().clone(),
            base.lambda_choices().to_vec(),
        )
        .unwrap();
        assert_ne!(base.fingerprint(), drifted_qkd.fingerprint());
        assert_eq!(base.shape_fingerprint(), drifted_qkd.shape_fingerprint());

        // MEC channel drift + load burst.
        let mut clients = base.mec().clients().to_vec();
        clients[0].channel_gain *= 0.97;
        clients[1].upload_bits *= 2.0;
        clients[2].tokens *= 2.0;
        let drifted_mec = SystemScenario::new(
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
        .unwrap();
        assert_ne!(base.fingerprint(), drifted_mec.fingerprint());
        assert_eq!(base.shape_fingerprint(), drifted_mec.shape_fingerprint());
    }

    #[test]
    fn shape_fields_change_both_fingerprints() {
        let base = SystemScenario::paper_default(7);

        let swapped_budget = base
            .with_mec(base.mec().clone().with_total_bandwidth(5e6))
            .unwrap();
        assert_ne!(base.fingerprint(), swapped_budget.fingerprint());
        assert_ne!(base.shape_fingerprint(), swapped_budget.shape_fingerprint());

        let swapped_lambda = SystemScenario::new(
            base.qkd().clone(),
            base.mec().clone(),
            vec![1 << 14, 1 << 15],
        )
        .unwrap();
        assert_ne!(base.fingerprint(), swapped_lambda.fingerprint());
        assert_ne!(base.shape_fingerprint(), swapped_lambda.shape_fingerprint());
    }

    #[test]
    fn hex_rendering_round_trips() {
        let fp = SystemScenario::paper_default(1).fingerprint();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(fp.to_string(), hex);
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..31]), None);
        // from_str_radix leniencies (sign prefixes) must not slip through
        // the "32 hex characters" contract.
        assert_eq!(
            Fingerprint::from_hex("+000000000000000000000000000000ff"),
            None
        );
        assert_eq!(Fingerprint::from_hex(&hex.to_uppercase()), Some(fp));
    }

    #[test]
    fn drift_distance_is_zero_symmetric_and_drift_sensitive() {
        let base = SystemScenario::paper_default(7);
        assert_eq!(base.drift_distance(&base), Some(0.0));

        // A known single-field drift has a closed-form distance: |ln 1.02|.
        let mut clients = base.mec().clients().to_vec();
        clients[0].channel_gain *= 1.02;
        let drifted = SystemScenario::new(
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
        .unwrap();
        let d = base.drift_distance(&drifted).unwrap();
        assert!((d - 1.02f64.ln()).abs() < 1e-12, "{d}");
        // Symmetric up to floating-point rounding of quotient and log.
        let d_back = drifted.drift_distance(&base).unwrap();
        assert!((d - d_back).abs() < 1e-12, "{d} vs {d_back}");

        // A larger drift of the same field is strictly farther.
        let mut far_clients = base.mec().clients().to_vec();
        far_clients[0].channel_gain *= 1.5;
        let far = base
            .with_mec(
                MecScenario::new(
                    far_clients,
                    base.mec().total_bandwidth_hz(),
                    base.mec().total_server_frequency_hz(),
                    base.mec().server_capacitance(),
                    base.mec().noise_psd(),
                )
                .unwrap(),
            )
            .unwrap();
        assert!(base.drift_distance(&far).unwrap() > d);

        // Beta drift counts too (the QKD-side drift field).
        let mut betas = base.qkd().betas();
        for beta in &mut betas {
            *beta *= 1.01;
        }
        let beta_drift = SystemScenario::new(
            base.qkd().with_betas(&betas).unwrap(),
            base.mec().clone(),
            base.lambda_choices().to_vec(),
        )
        .unwrap();
        let expected = (18.0f64 * 1.01f64.ln().powi(2)).sqrt();
        let d_beta = base.drift_distance(&beta_drift).unwrap();
        assert!((d_beta - expected).abs() < 1e-12, "{d_beta} vs {expected}");
    }

    #[test]
    fn drift_distance_requires_matching_dimensions() {
        let six = SystemScenario::paper_default(3);
        let four = SystemScenario::new(
            quhe_qkd::topology::synthetic_scenario(4, 3),
            MecScenario::paper_with_num_clients(4, 3),
            six.lambda_choices().to_vec(),
        )
        .unwrap();
        assert_eq!(six.drift_distance(&four), None);
        assert_eq!(four.drift_distance(&six), None);
        // Same client count but different link structure: also incomparable.
        let synthetic_six = SystemScenario::new(
            quhe_qkd::topology::synthetic_scenario(6, 3),
            MecScenario::paper_with_num_clients(6, 3),
            six.lambda_choices().to_vec(),
        )
        .unwrap();
        assert_ne!(synthetic_six.num_links(), six.num_links());
        assert_eq!(six.drift_distance(&synthetic_six), None);
    }

    #[test]
    fn client_count_changes_the_shape() {
        let six = SystemScenario::paper_default(3);
        let four = SystemScenario::new(
            quhe_qkd::topology::synthetic_scenario(4, 3),
            MecScenario::paper_with_num_clients(4, 3),
            six.lambda_choices().to_vec(),
        )
        .unwrap();
        assert_ne!(six.shape_fingerprint(), four.shape_fingerprint());
    }
}
