//! Scenario-layer coverage: every registry built-in and every event kind
//! produces a `SystemScenario` that passes `SystemScenario::new` validation,
//! across seeds — no generator or event can silently emit an inconsistent
//! world, and no constraint name regresses. `WORLD_GOLDENS` pins the
//! `QUHE-SCN-v1` fingerprints of every generated world, so a refactor of a
//! world cannot move one bit of it unnoticed; regenerate it only after an
//! intentional change to a world, with
//! `cargo test --test scenario_validation -- --ignored --nocapture regenerate`.

use quhe::prelude::*;

const SEEDS: [u64; 3] = [1, 42, 2026];

/// Rebuilds the scenario through `SystemScenario::new`, proving it passes
/// the named consistency checks rather than merely existing.
fn revalidate(scenario: &SystemScenario) -> SystemScenario {
    SystemScenario::new(
        scenario.qkd().clone(),
        scenario.mec().clone(),
        scenario.lambda_choices().to_vec(),
    )
    .expect("a generated scenario must pass full validation")
}

#[test]
fn every_builtin_world_validates_across_seeds() {
    let catalog = ScenarioCatalog::builtin();
    assert!(catalog.names().len() >= 5, "the catalogue shrank");
    for name in catalog.names() {
        for seed in SEEDS {
            let scenario = catalog.generate(name, seed).unwrap();
            let rebuilt = revalidate(&scenario);
            assert_eq!(rebuilt, scenario, "{name} seed {seed}");
        }
    }
}

#[test]
fn every_event_kind_yields_a_valid_system_scenario_on_every_world() {
    let catalog = ScenarioCatalog::builtin();
    for name in catalog.names() {
        for seed in SEEDS {
            let base = catalog.generate(name, seed).unwrap();
            let world = DynamicWorld::new(base.mec().clone());
            let n = world.scenario.num_clients();
            let events = [
                ScenarioEvent::ClientJoin {
                    client: world.scenario.clients()[0],
                },
                ScenarioEvent::ClientLeave { index: n - 1 },
                ScenarioEvent::ChannelDrift {
                    factors: (0..n).map(|i| 0.9 + 0.02 * i as f64).collect(),
                },
                ScenarioEvent::LoadBurst {
                    index: n / 2,
                    factor: 2.5,
                },
                ScenarioEvent::DeadlineTighten { factor: 1.15 },
            ];
            // The kinds exercised here must cover the whole enum.
            let kinds: Vec<&str> = events.iter().map(ScenarioEvent::kind).collect();
            assert_eq!(kinds, ScenarioEvent::KINDS);
            for event in &events {
                let evolved = world
                    .apply(event)
                    .unwrap_or_else(|e| panic!("{name} seed {seed} {}: {e}", event.kind()));
                let count = evolved.scenario.num_clients();
                // Pair with a network of the matching size, exactly as the
                // trace generator does after a structural change.
                let qkd = if count == base.qkd().num_clients() {
                    base.qkd().clone()
                } else {
                    synthetic_scenario(count, seed)
                };
                let system =
                    SystemScenario::new(qkd, evolved.scenario, base.lambda_choices().to_vec())
                        .unwrap_or_else(|e| panic!("{name} seed {seed} {}: {e}", event.kind()));
                assert_eq!(system.num_clients(), count);
            }
        }
    }
}

#[test]
fn generated_traces_validate_at_every_step() {
    let catalog = ScenarioCatalog::builtin();
    let config = OnlineTraceConfig {
        steps: 5,
        event_probability: 0.9,
        ..OnlineTraceConfig::default()
    };
    for name in catalog.names() {
        for seed in SEEDS {
            let trace = SystemTrace::generate(&catalog, name, seed, &config)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(trace.len(), 6);
            for step in trace.steps() {
                revalidate(&step.scenario);
                assert!(step.delay_weight_factor >= 1.0);
                assert_eq!(step.key_pool_bits.len(), step.scenario.num_clients());
            }
        }
    }
}

/// `(key, full digest, shape digest)` of every world [`world_digests`]
/// builds, captured before the catalogue worlds became plain functions. The
/// rows stay one per line, as `regenerate_world_goldens` prints them.
#[rustfmt::skip]
const WORLD_GOLDENS: [(&str, &str, &str); 48] = [
    ("catalog paper_default/0", "b2831d026a4cd22c50eedc57d3fec809", "7f831ac22e469d2e04efde0486b24d74"),
    ("catalog paper_default/1", "504718dc53e207cde3bb678f7860ca2e", "2ced6e7876dc79a79e702b11aacc9ee9"),
    ("catalog paper_default/7", "6e57054dbe3fb1841c3ae1c1828201c8", "8adc4d30d5f2027740aec07f0c8a9eec"),
    ("catalog paper_default/42", "d1754e0e7bef7df87cb4e53ecf124fd4", "d857dbd36944c3b64c095a45ade9dd3a"),
    ("catalog paper_default/2026", "cd2cf75e6ad39c772aedbe6e1be21a8f", "fdbf32dfe9fa9a14ebecf05bb327910d"),
    ("catalog dense_cell/0", "f29d1704a71f553fd3a781a652674c40", "5f60754275af4030505ce0358c973ce3"),
    ("catalog dense_cell/1", "cc39fe173258dff8617d8220fc3f4300", "72a2fec6b8dada6d345c5daccacd7648"),
    ("catalog dense_cell/7", "5e385f8ff12ada23dd5101715e95a53c", "f57dfcfdadeecf8f8482a6ded8902370"),
    ("catalog dense_cell/42", "483609cecd07ff8adf41f8a93a738c7a", "a9ac4e6de3dfa368ffbe1a77a9394dd5"),
    ("catalog dense_cell/2026", "d93fa8c744c1a5cb25044f7e85c6a4d9", "3926e937f8442802a9ca7cdf419dd9d6"),
    ("catalog heterogeneous_devices/0", "391e2fba1137cffda4d931fa05d940fa", "70de5acae8d3bda95f57ee5bcbac0fc4"),
    ("catalog heterogeneous_devices/1", "dc946bfc749c66843321a629e545a6f8", "b5ea31a6d7aa38c0bd745711ec3bea02"),
    ("catalog heterogeneous_devices/7", "66d3f39c36171e5832e4390aa2240a3d", "1ca553e8f50ab55be12a97205bf27826"),
    ("catalog heterogeneous_devices/42", "aadfa6c33fde1d8277b8497a5fd7bdfd", "a5acc79d01f11cd1f2ec0ea01cb78e94"),
    ("catalog heterogeneous_devices/2026", "e243696742c7f34b676f32057d158e4a", "ab50ba7ae17ddeed0b60911ea3e21683"),
    ("catalog far_edge/0", "7b85cefe32baa3dba411dbe875c3edfe", "2accb4157f961ebad00c45d410ba54fb"),
    ("catalog far_edge/1", "3d67e1be6624480eadb0abd94e7008bf", "22fcaa0fde142dc0a0e67481f9cd99d0"),
    ("catalog far_edge/7", "a692383374c1da785573ff52f3d276ca", "d04f739d38dbc3b8b25656d126bac533"),
    ("catalog far_edge/42", "798db3f80c2b1a0d1dc10a2ab11a0689", "95ee45ba62b2a17ae4a48a7163b95e0b"),
    ("catalog far_edge/2026", "5e65412aea0b4b7a50f3155e69339b75", "d747ac9b797b3c2428d97e0c58914f8a"),
    ("catalog bursty_workload/0", "ab4089e0e2407778162173e0c80a96b3", "161dacdde96073e4a9d4ce86e9271700"),
    ("catalog bursty_workload/1", "0b36d3fc1d7e96dd56b99a7f6ef86ec2", "ae73f2316070e00ab02e110835022689"),
    ("catalog bursty_workload/7", "ff0b3374fe339774d3123dee840e1141", "059783ffd25742fb4195f426627b4848"),
    ("catalog bursty_workload/42", "e5b2ed95915258a9cda845800ea26978", "8ae9105d10edcaafff9966176a5c22cc"),
    ("catalog bursty_workload/2026", "199738e112bb95d36c51cb40b3302077", "8eda2e7f993bcbff89402c78388b8f97"),
    ("inline 1/1", "4d73094f7c4d280223ffc8dbb7c9dbd7", "b8c8fdec96db9ccb9d804fdabb52f67b"),
    ("inline 1/9", "b08773914031b3bab6582467870f6a2e", "eb59825a80d7d960bb1797275e0169d1"),
    ("inline 6/1", "0c7e7dbb9519424c4d196f7d796dda37", "aa94ae79a44ebcaa5f595fea31355e7e"),
    ("inline 6/9", "143cc995d0468f270a24692effca00e1", "ed86afd964c0c23c54426fe0d6ea277a"),
    ("inline 13/1", "ce8dd105256f4c3eb1923927517fd1a2", "e4ba4e13fd38949955eece1b1193c70f"),
    ("inline 13/9", "3306e1160fb0ac31392d09043ee3cb56", "f0382e25c2f9f26bcff33e2655c782b6"),
    ("inline 20/1", "d370820c2dfc2e272dd47ecb7193a53d", "6efba77a00a220acb14780915ce8f4ae"),
    ("inline 20/9", "cf8d16bd596550bc378cbc7c6802b69d", "343b36a99fd2f6dd7977a8216d53a0a9"),
    ("drift paper_default/7 step 1", "1007d5c657d96df223151d984149cdcf", "8adc4d30d5f2027740aec07f0c8a9eec"),
    ("drift paper_default/7 step 3", "0c31ef7a701b1a119e47790bce2ab847", "8adc4d30d5f2027740aec07f0c8a9eec"),
    ("drift dense_cell/7 step 1", "0966e87eb83c0990285d19115768e8a9", "f57dfcfdadeecf8f8482a6ded8902370"),
    ("drift dense_cell/7 step 3", "1fe861dd127a5c80b42a6ea5c0c0f23d", "f57dfcfdadeecf8f8482a6ded8902370"),
    ("drift heterogeneous_devices/7 step 1", "c73143f132acf8f2d5292c0b215e544f", "1ca553e8f50ab55be12a97205bf27826"),
    ("drift heterogeneous_devices/7 step 3", "878121f212a19397b621bca8fe5423ef", "1ca553e8f50ab55be12a97205bf27826"),
    ("drift far_edge/7 step 1", "0d9b5d0202281f4a707252894d968945", "d04f739d38dbc3b8b25656d126bac533"),
    ("drift far_edge/7 step 3", "92e0a57876d4238a2bbfc9e94daa7bd1", "d04f739d38dbc3b8b25656d126bac533"),
    ("drift bursty_workload/7 step 1", "7589833e5676c85b5c36ee187b80c06d", "059783ffd25742fb4195f426627b4848"),
    ("drift bursty_workload/7 step 3", "f45434dd335a6871f73cdf2349e8c337", "059783ffd25742fb4195f426627b4848"),
    ("trace paper_default/5", "0f07111164250654", "56b5612214d8a25c"),
    ("trace dense_cell/5", "b45b0373ec00136e", "dfc76c79b6539190"),
    ("trace heterogeneous_devices/5", "956589c3d0eda8ae", "f3962cad20b2dd40"),
    ("trace far_edge/5", "7bf0a99dad13764a", "5ed1a3524eb158a8"),
    ("trace bursty_workload/5", "b44c22f841fc2f65", "60fabe239fc898e1"),
];

/// The built-in registry's `(name, client count, description)`, in
/// registration order.
#[rustfmt::skip]
const WORLD_CATALOGUE: [(&str, usize, &str); 5] = [
    ("paper_default", 6, "the paper's Section VI-A world: 6 clients uniform in a 1 km cell, NLP workload"),
    ("dense_cell", 32, "dense small cell: 32+ clients in a 500 m radius, budgets scaled with the population"),
    ("heterogeneous_devices", 12, "mixed device fleet: phone / laptop / edge-gateway classes with distinct CPU, power and privacy weights"),
    ("far_edge", 8, "far-edge deployment: 2–5 km clients with weak channels and 0.5 W amplifiers"),
    ("bursty_workload", 10, "heavy-tailed workload: bounded-Pareto upload sizes and token counts (few clients carry most load)"),
];

/// Seeds at which every catalogue world's fingerprints are pinned.
const WORLD_SEEDS: [u64; 5] = [0, 1, 7, 42, 2026];

/// FNV-1a (64-bit) over 128-bit fingerprints, each eaten as its
/// little-endian bytes — one digest for a whole trace.
fn fold_fingerprints(fingerprints: impl IntoIterator<Item = Fingerprint>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fingerprint in fingerprints {
        for byte in fingerprint.as_u128().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `(key, full digest, shape digest)` of every generated world, in the order
/// [`world_digests`] builds them: each catalogue world at each of
/// [`WORLD_SEEDS`]; `inline` requests at 1, 6, 13 and 20 clients and seeds
/// 1 and 9; drift steps 1 and 3 of each world at seed 7; and one event
/// trace per world (seed 5, 12 steps, an event every step), folded over its
/// steps' fingerprints. Scenario digests are `QUHE-SCN-v1` fingerprints.
fn world_digests() -> Vec<(String, String, String)> {
    let catalog = ScenarioCatalog::builtin();
    let service = ServiceConfig::new(QuheConfig::default()).build();
    let resolve = |spec: &ScenarioSpec| service.resolve_scenario(spec).unwrap();
    let digests = |key: String, scenario: &SystemScenario| {
        (
            key,
            scenario.fingerprint().to_hex(),
            scenario.shape_fingerprint().to_hex(),
        )
    };
    let mut rows = Vec::new();
    for name in catalog.names() {
        for seed in WORLD_SEEDS {
            let scenario = catalog.generate(name, seed).unwrap();
            rows.push(digests(format!("catalog {name}/{seed}"), &scenario));
        }
    }
    for num_clients in [1, 6, 13, 20] {
        for seed in [1, 9] {
            let scenario = resolve(&ScenarioSpec::Inline(InlineScenario::new(
                num_clients,
                seed,
            )));
            rows.push(digests(format!("inline {num_clients}/{seed}"), &scenario));
        }
    }
    for name in catalog.names() {
        for step in [1, 3] {
            let scenario = resolve(&SolveRequest::drifted(name, 7, step).scenario);
            rows.push(digests(format!("drift {name}/7 step {step}"), &scenario));
        }
    }
    let config = OnlineTraceConfig {
        steps: 12,
        event_probability: 1.0,
        ..OnlineTraceConfig::default()
    };
    let mut joins = 0;
    for name in catalog.names() {
        let trace = SystemTrace::generate(&catalog, name, 5, &config).unwrap();
        let steps = trace.steps();
        joins += steps
            .iter()
            .flat_map(|s| &s.event_kinds)
            .filter(|k| *k == "client_join")
            .count();
        rows.push((
            format!("trace {name}/5"),
            fold_fingerprints(steps.iter().map(|s| s.scenario.fingerprint())),
            fold_fingerprints(steps.iter().map(|s| s.scenario.shape_fingerprint())),
        ));
    }
    // The rows must cover the placement of joining clients too.
    assert!(joins > 0, "no trace has a joining client");
    rows
}

/// The registry's `(name, client count, description)`, in registration
/// order.
fn world_catalogue() -> Vec<(String, usize, String)> {
    ScenarioRegistry::builtin()
        .iter()
        .map(|g| {
            (
                g.name().to_string(),
                g.num_clients(),
                g.description().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_generated_world_matches_its_golden() {
    let rows = world_digests();
    assert_eq!(rows.len(), WORLD_GOLDENS.len());
    for ((key, full, shape), (golden_key, golden_full, golden_shape)) in
        rows.iter().zip(WORLD_GOLDENS)
    {
        assert_eq!(key, golden_key);
        assert_eq!(
            (full.as_str(), shape.as_str()),
            (golden_full, golden_shape),
            "{key}: the generated world changed"
        );
    }
    let catalogue = world_catalogue();
    let expected: Vec<(String, usize, String)> = WORLD_CATALOGUE
        .iter()
        .map(|&(name, clients, description)| (name.to_string(), clients, description.to_string()))
        .collect();
    assert_eq!(catalogue, expected);
}

/// Prints the world tables for pasting into `WORLD_GOLDENS` and
/// `WORLD_CATALOGUE`. Run with
/// `cargo test --test scenario_validation -- --ignored --nocapture regenerate`.
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn regenerate_world_goldens() {
    for (key, full, shape) in world_digests() {
        println!("    (\"{key}\", \"{full}\", \"{shape}\"),");
    }
    for (name, clients, description) in world_catalogue() {
        println!("    (\"{name}\", {clients}, {description:?}),");
    }
}
