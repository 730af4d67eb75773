//! Seeded request plans of the three workloads.
//!
//! A plan is a pure function of `(workload, seed, seconds)`: the same seed
//! gives byte-identical request frames. The program under test only ever
//! sees these frames.

use std::collections::HashSet;

use quhe_core::json::JsonValue;
use quhe_serve::{SolveRequest, PROTOCOL_V2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The catalogue worlds, in the catalogue's registration order. Per-world
/// metrics are named after these.
pub const WORLDS: [&str; 5] = [
    "paper_default",
    "dense_cell",
    "heterogeneous_devices",
    "far_edge",
    "bursty_workload",
];

/// Zipf exponent of the popularity draws (the `load_bench` mix).
const ZIPF_EXPONENT: f64 = 1.1;
/// Catalogue seeds per world in the `hit_storm` population.
const POPULATION_SEEDS: usize = 3;
/// Anchored `(world, seed)` pairs per world in `drift_track`.
const DRIFT_ANCHORS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Closed loop, 1 client, every request a never-seen catalogue world.
    ColdCatalogue,
    /// Closed loop, 2 clients, Zipf draws over a population solved in set-up.
    HitStorm,
    /// Closed loop, 1 client, never-seen drift steps of anchored worlds.
    DriftTrack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCatalogue,
        Workload::HitStorm,
        Workload::DriftTrack,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCatalogue => "cold_catalogue",
            Workload::HitStorm => "hit_storm",
            Workload::DriftTrack => "drift_track",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_s` reports: the highest of p50, p75, p90,
    /// p95, p99 that leaves at least ten samples beyond it in every run of
    /// the default length. It is fixed per workload so that a run that
    /// serves a few more requests does not jump to the next rung; a shorter
    /// run with fewer samples beyond it says so in its notes. `hit_storm`
    /// stops at p99: beyond it, hit latencies on a two-core machine are
    /// scheduler preemptions, which vary by a third from run to run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ColdCatalogue | Workload::DriftTrack => 0.9,
            Workload::HitStorm => 0.99,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::ColdCatalogue => 0xc01d_ca7a,
            Workload::HitStorm => 0x4175_7021,
            Workload::DriftTrack => 0xd21f_7ac4,
        }
    }
}

/// What a request asks for, in catalogue terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// A catalogue world at a seed.
    Catalog {
        /// Index into [`WORLDS`].
        world: usize,
        /// Generation seed.
        seed: u64,
    },
    /// A drift step of a catalogue world.
    Drifted {
        /// Index into [`WORLDS`].
        world: usize,
        /// Generation seed of the anchored world.
        seed: u64,
        /// Drift steps away from the anchored world.
        step: usize,
    },
}

impl Key {
    /// Index into [`WORLDS`].
    pub fn world(&self) -> usize {
        match *self {
            Key::Catalog { world, .. } | Key::Drifted { world, .. } => world,
        }
    }

    /// The service request for this key.
    pub fn request(&self) -> SolveRequest {
        match *self {
            Key::Catalog { world, seed } => SolveRequest::catalog(WORLDS[world], seed),
            Key::Drifted { world, seed, step } => SolveRequest::drifted(WORLDS[world], seed, step),
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id echoed by the server.
    pub id: String,
    /// What is asked for.
    pub key: Key,
    /// The complete frame: 4-byte big-endian length, then the body.
    pub frame: Vec<u8>,
}

impl Request {
    /// Builds the request and its frame.
    pub fn new(id: String, key: Key) -> Self {
        let body = key
            .request()
            .with_id(&id)
            .to_json_value()
            .with("proto", JsonValue::String(PROTOCOL_V2.to_string()))
            .to_compact_string();
        let len = u32::try_from(body.len()).expect("a request body is a few hundred bytes");
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        Self { id, key, frame }
    }

    /// The request body: a `quhe-serve/v2` JSON envelope.
    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.frame[4..]).expect("the frame was built from a string")
    }
}

/// The inputs of one run. Requests are stored once and referenced by index,
/// so a stream that repeats keys repeats frames without copying them.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Every distinct request of the run.
    pub requests: Vec<Request>,
    /// Set-up phases, run in order before the timed window; the requests of
    /// a phase are spread over two connections.
    pub setup: Vec<Vec<usize>>,
    /// The timed requests, one stream per client connection, each longer
    /// than any run gets through.
    pub streams: Vec<Vec<usize>>,
    /// Requests at the head of each stream whose responses make
    /// `objective_mean`; every run must get through them.
    pub objective_prefix: usize,
}

/// Catalogue seeds come from `0..SEED_POOL`, screened world by world with
/// a cold solve under the benchmark's solver configuration.
const SEED_POOL: u64 = 640;

/// `dense_cell` seeds of the pool left out of every workload. On the first
/// six the cold multi-start solve fails with `DidNotConverge` after
/// allocating hundreds of MB (a failing request fails the run); on the rest
/// it runs over 1.5× the world's median time or allocates over 5 MB
/// transiently, so a single one moves a run's throughput or the server's
/// peak RSS. No seed of the pool fails on the other worlds.
const EXCLUDED_DENSE_SEEDS: [u64; 17] = [
    51, 67, 173, 193, 457, 460, // DidNotConverge
    23, 45, 89, 168, 276, 313, 395, 459, 532, 582, 609, // slow or memory-heavy
];

/// Draws catalogue seeds from the screened pool, never the same `(world,
/// seed)` twice in one plan.
struct Seeds {
    rng: StdRng,
    used: HashSet<(usize, u64)>,
}

impl Seeds {
    fn fresh(&mut self, world: usize) -> u64 {
        loop {
            let seed = self.rng.gen_range(0..SEED_POOL);
            let excluded = WORLDS[world] == "dense_cell" && EXCLUDED_DENSE_SEEDS.contains(&seed);
            if !excluded && self.used.insert((world, seed)) {
                return seed;
            }
        }
    }
}

/// Zipf popularity over a ranked population.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(len: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..len)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
                total
            })
            .collect();
        Self { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty population");
        let u = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// One screened catalogue seed per world, drawn from `seed` — the worlds the
/// traced run's probes solve.
pub fn probe_seeds(seed: u64) -> Vec<u64> {
    let mut seeds = Seeds {
        rng: StdRng::seed_from_u64(seed ^ 0x7072_6f62_6573_0000),
        used: HashSet::new(),
    };
    (0..WORLDS.len()).map(|world| seeds.fresh(world)).collect()
}

/// `seeds[world][i]`: fresh catalogue seeds per world.
fn world_seeds(seeds: &mut Seeds, per_world: usize) -> Vec<Vec<u64>> {
    (0..WORLDS.len())
        .map(|world| (0..per_world).map(|_| seeds.fresh(world)).collect())
        .collect()
}

/// A population ranked world-interleaved: rank `r` is world `r % 5`, so every
/// seed gives each world the same popularity.
fn catalogue_population(pop_seeds: &[Vec<u64>]) -> Vec<Key> {
    (0..POPULATION_SEEDS)
        .flat_map(|i| {
            (0..WORLDS.len()).map(move |world| Key::Catalog {
                world,
                seed: pop_seeds[world][i],
            })
        })
        .collect()
}

/// The scored prefix of a one-client closed loop: `per_second` world cycles
/// per second of window — about half of what a run gets through, so every
/// run completes it and the prefix is fixed by the plan alone.
fn scored_cycles(seconds: f64, per_second: f64) -> usize {
    (seconds * per_second).ceil() as usize * WORLDS.len()
}

fn shuffled_worlds(rng: &mut StdRng) -> [usize; 5] {
    let mut order = [0, 1, 2, 3, 4];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Accumulates the distinct requests of a plan.
#[derive(Default)]
struct Requests(Vec<Request>);

impl Requests {
    /// Adds a request and returns its index.
    fn add(&mut self, id: String, key: Key) -> usize {
        self.0.push(Request::new(id, key));
        self.0.len() - 1
    }
}

impl Plan {
    /// The plan of `workload` for `seed`, sized for a `seconds`-long window.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ workload.salt().rotate_left(32));
        let mut seeds = Seeds {
            rng: StdRng::seed_from_u64(rng.gen()),
            used: HashSet::new(),
        };
        let seconds = seconds.max(1.0);
        let mut requests = Requests::default();
        let (setup, streams, objective_prefix) = match workload {
            Workload::ColdCatalogue => {
                // Set-up warms each world once on seeds the window never uses.
                let warmup = (0..WORLDS.len())
                    .map(|world| {
                        let key = Key::Catalog {
                            world,
                            seed: seeds.fresh(world),
                        };
                        requests.add(format!("s-{world}"), key)
                    })
                    .collect();
                // Worlds cycle in a seeded order, one fresh seed each.
                let cycles = (seconds * 12.0).ceil() as usize;
                let mut stream = Vec::with_capacity(cycles * WORLDS.len());
                for _ in 0..cycles {
                    for world in shuffled_worlds(&mut rng) {
                        let key = Key::Catalog {
                            world,
                            seed: seeds.fresh(world),
                        };
                        stream.push(requests.add(format!("c-{}", stream.len()), key));
                    }
                }
                (vec![warmup], vec![stream], scored_cycles(seconds, 1.4))
            }
            Workload::HitStorm => {
                let pop_seeds = world_seeds(&mut seeds, POPULATION_SEEDS);
                let catalogue: Vec<usize> = catalogue_population(&pop_seeds)
                    .into_iter()
                    .enumerate()
                    .map(|(rank, key)| requests.add(format!("h-{rank}"), key))
                    .collect();
                // Drift keys hang off distinct anchors, so set-up solves each
                // against exactly one anchor whatever the interleaving.
                let drifted: Vec<usize> = (1..POPULATION_SEEDS)
                    .flat_map(|i| (0..WORLDS.len()).map(move |world| (world, i)))
                    .map(|(world, i)| {
                        let key = Key::Drifted {
                            world,
                            seed: pop_seeds[world][i],
                            step: rng.gen_range(1..=4),
                        };
                        let rank = catalogue.len() + world + (i - 1) * WORLDS.len();
                        requests.add(format!("h-{rank}"), key)
                    })
                    .collect();
                let population: Vec<usize> = catalogue.iter().chain(&drifted).copied().collect();
                let zipf = Zipf::new(population.len());
                let per_client = (seconds * 12_000.0).ceil() as usize;
                let streams = (0..2)
                    .map(|_| {
                        (0..per_client)
                            .map(|_| population[zipf.sample(&mut rng)])
                            .collect()
                    })
                    .collect();
                (vec![catalogue, drifted], streams, 1000)
            }
            Workload::DriftTrack => {
                let anchors = world_seeds(&mut seeds, DRIFT_ANCHORS);
                let setup = (0..DRIFT_ANCHORS)
                    .flat_map(|i| (0..WORLDS.len()).map(move |world| (world, i)))
                    .map(|(world, i)| {
                        let key = Key::Catalog {
                            world,
                            seed: anchors[world][i],
                        };
                        requests.add(format!("s-{world}-{i}"), key)
                    })
                    .collect();
                // The j-th request of a world drifts anchor j % A by
                // j / A + 1 steps: never seen, and a small step.
                let cycles = (seconds * 8.0).ceil() as usize;
                let mut served = [0usize; 5];
                let mut stream = Vec::with_capacity(cycles * WORLDS.len());
                for _ in 0..cycles {
                    for world in shuffled_worlds(&mut rng) {
                        let j = served[world];
                        served[world] += 1;
                        let key = Key::Drifted {
                            world,
                            seed: anchors[world][j % DRIFT_ANCHORS],
                            step: j / DRIFT_ANCHORS + 1,
                        };
                        stream.push(requests.add(format!("d-{}", stream.len()), key));
                    }
                }
                (vec![setup], vec![stream], scored_cycles(seconds, 1.0))
            }
        };
        Self {
            workload,
            requests: requests.0,
            setup,
            streams,
            objective_prefix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_stay_in_range() {
        let zipf = Zipf::new(7);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn cold_catalogue_never_repeats_a_key() {
        let plan = Plan::new(Workload::ColdCatalogue, 9, 2.0);
        let mut keys = HashSet::new();
        for &i in plan.setup.iter().flatten().chain(&plan.streams[0]) {
            let key = plan.requests[i].key;
            assert!(keys.insert(key), "repeated key {key:?}");
        }
    }

    #[test]
    fn drift_track_steps_are_never_seen_and_anchored() {
        let plan = Plan::new(Workload::DriftTrack, 5, 3.0);
        let anchors: HashSet<(usize, u64)> = plan.setup[0]
            .iter()
            .map(|&i| match plan.requests[i].key {
                Key::Catalog { world, seed } => (world, seed),
                Key::Drifted { .. } => panic!("set-up anchors are catalogue keys"),
            })
            .collect();
        let mut seen = HashSet::new();
        for &i in &plan.streams[0] {
            let key = plan.requests[i].key;
            let Key::Drifted { world, seed, step } = key else {
                panic!("drift_track sends drift steps only");
            };
            assert!(anchors.contains(&(world, seed)));
            assert!(step >= 1);
            assert!(seen.insert(key));
        }
    }
}
