//! Cold-solve parity pins for the fast-path optimizations.
//!
//! The workspace/allocation/pruning work in `quhe-opt` and `quhe-core` is
//! required to be **bit-identical** to the solver it optimizes: every
//! transformation either reuses a value that was already computed (same
//! inputs, same accumulation order) or abandons a multi-start candidate that
//! provably cannot win. A change that moves numerics on purpose (Stage 1's
//! exact derivatives, which replaced central differences) is held to a
//! frozen tolerance reference instead, and only then re-pins the bits. This
//! suite pins that contract five ways:
//!
//! 1. Against **frozen goldens**: objective bits and a fingerprint of every
//!    decision variable across the full scenario catalogue × 2 seeds
//!    (experiment-grade budgets, serial). Any arithmetic drift in the cold
//!    path fails here on the exact world and seed.
//! 2. **Pruning on vs off**: dominated-start early termination must never
//!    change the multi-start winner — the two runs must agree bit-for-bit.
//! 3. Against **warm-path goldens**: the serving path and objective bits and
//!    the variable fingerprint of drifted requests that one `SolveService`
//!    answers off its cached anchors, so a change to the warm solve, the
//!    single-start floor guard or the cold fallback must serve the same
//!    bits.
//! 4. Against **Stage-1 goldens**: the P3 objective bits, the barrier's
//!    iteration count and a fingerprint of the rates, Werner parameters and
//!    Fig. 4(a) trace of Stage 1 solved alone, so a change to the P3
//!    evaluation or the barrier solver that is meant to be bit-identical
//!    must keep every bit of its output.
//! 5. Against the **finite-difference era**: the objectives of the three
//!    tables above as the solver served them while Stage 1 differentiated P3
//!    by central differences. Every objective stays within 1e-12 relative of
//!    its frozen value, no warm request changes its serving path and no
//!    Stage-1 iteration count changes.
//!
//! Regenerate the golden tables after an *intentional* numeric change, with
//! the finite-difference-era check green, with
//! `cargo test --test cold_parity -- --ignored --nocapture regenerate` and
//! paste the printed rows over `GOLDENS`, `WARM_GOLDENS` and
//! `STAGE1_GOLDENS`.

use quhe::prelude::*;

/// The experiment-grade budgets of `quhe-bench` (`experiment_config()` with
/// its env defaults), serial so the pins are independent of machine width.
fn config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 5,
        max_stage3_iterations: 20,
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

const SEEDS: [u64; 2] = [42, 7];

/// FNV-1a over 64-bit words, each eaten as its little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// FNV-1a over the bit patterns of every decision variable, in declaration
/// order — a stable 64-bit fingerprint of the full assignment.
fn fingerprint(vars: &DecisionVariables) -> u64 {
    let blocks = [
        &vars.phi,
        &vars.w,
        &vars.power,
        &vars.bandwidth,
        &vars.client_frequency,
        &vars.server_frequency,
    ];
    fnv1a(
        blocks
            .into_iter()
            .flatten()
            .map(|value| value.to_bits())
            .chain(vars.lambda.iter().copied())
            .chain([vars.delay_bound.to_bits()]),
    )
}

/// FNV-1a over the bit patterns of a Stage-1 result's rates, Werner
/// parameters and objective trace, in that order.
fn stage1_fingerprint(result: &Stage1Result) -> u64 {
    fnv1a(
        result
            .phi
            .iter()
            .chain(&result.w)
            .chain(&result.trace)
            .map(|value| value.to_bits()),
    )
}

/// `(world, seed, objective bits, variable fingerprint)` of cold solves,
/// captured with Stage 1's exact derivatives. The readable objective is in
/// the comment.
const GOLDENS: [(&str, u64, u64, u64); 10] = [
    // paper_default/42: objective -0.15213349769591583
    ("paper_default", 42, 0xbfc3791c469d7246, 0x37985cb27c48a253),
    // paper_default/7: objective -0.04823692542033192
    ("paper_default", 7, 0xbfa8b282a247a328, 0xcdb455393614a338),
    // dense_cell/42: objective 7.160405980110134
    ("dense_cell", 42, 0x401ca441771a9f98, 0x93260f3f3b5dc206),
    // dense_cell/7: objective 7.3421505677389325
    ("dense_cell", 7, 0x401d5e5cb7eafc77, 0x11a1e6d4c5bb3ca9),
    // heterogeneous_devices/42: objective -0.1499065437442152
    (
        "heterogeneous_devices",
        42,
        0xbfc330233b6b3cf4,
        0x13832328b26ee2bf,
    ),
    // heterogeneous_devices/7: objective 2.047037684415321
    (
        "heterogeneous_devices",
        7,
        0x400060554b21f26d,
        0x425c1d5d84d4bacd,
    ),
    // far_edge/42: objective -33.43459624466706
    ("far_edge", 42, 0xc040b7a0d988e79c, 0x5410a4198f0a4e05),
    // far_edge/7: objective -12.427062277456205
    ("far_edge", 7, 0xc028daa7e8260f32, 0xa26f550857364842),
    // bursty_workload/42: objective 1.2066515572241079
    (
        "bursty_workload",
        42,
        0x3ff34e71dcff1ec9,
        0x113dfb35a1840859,
    ),
    // bursty_workload/7: objective 0.09374999676979101
    ("bursty_workload", 7, 0x3fb7fffff2205900, 0x189e2f1b4646de37),
];

/// `(world, seed, drift step, cache tag, objective bits, variable
/// fingerprint)` of the drifted requests of [`warm_responses`], captured
/// with Stage 1's exact derivatives. The readable objective is in the
/// comment, and the rows stay one per line, as
/// `regenerate_warm_goldens` prints them.
#[rustfmt::skip]
const WARM_GOLDENS: [(&str, u64, usize, &str, u64, u64); 20] = [
    // paper_default/42 step 1: objective -0.15193485955510322
    ("paper_default", 42, 1, "warm", 0xbfc37299fa74acbc, 0xf4a64454a78c88db),
    // paper_default/42 step 2: objective -0.15231701030775785
    ("paper_default", 42, 2, "warm", 0xbfc37f1fb0f2ba72, 0xb5597ad3cb911251),
    // paper_default/7 step 1: objective -0.0484818081555059
    ("paper_default", 7, 1, "warm", 0xbfa8d29b88f52b08, 0xe4364653ddd96d30),
    // paper_default/7 step 2: objective -0.04288784015414837
    ("paper_default", 7, 2, "warm_fallback", 0xbfa5f5651db75e80, 0xf7aa695a30693fe2),
    // dense_cell/42 step 1: objective 7.160487711641193
    ("dense_cell", 42, 1, "warm", 0x401ca456e403a29d, 0x29adf88025580fce),
    // dense_cell/42 step 2: objective 7.160807481809662
    ("dense_cell", 42, 2, "warm", 0x401ca4aab76d4c67, 0x47532ad4c1b2eabe),
    // dense_cell/7 step 1: objective 7.341929839272648
    ("dense_cell", 7, 1, "warm", 0x401d5e22db14cf6c, 0xe1f5156effce3dd0),
    // dense_cell/7 step 2: objective 7.341509339918501
    ("dense_cell", 7, 2, "warm", 0x401d5db49fd8e9fe, 0xe812d912ebb97c69),
    // heterogeneous_devices/42 step 1: objective -0.11496853999776446
    ("heterogeneous_devices", 42, 1, "warm_fallback", 0xbfbd6e94075bf8e0, 0x12d80e364582c18d),
    // heterogeneous_devices/42 step 2: objective -0.11508768250640378
    ("heterogeneous_devices", 42, 2, "warm", 0xbfbd7662e8899560, 0x8f13f73149a9c2bb),
    // heterogeneous_devices/7 step 1: objective 2.044033459581688
    ("heterogeneous_devices", 7, 1, "warm", 0x40005a2e36e6aa2a, 0x68e542428dc29be1),
    // heterogeneous_devices/7 step 2: objective 2.044178539780039
    ("heterogeneous_devices", 7, 2, "warm", 0x40005a7a473c528a, 0xde3c0484ae7ed265),
    // far_edge/42 step 1: objective -33.22247895966254
    ("far_edge", 42, 1, "warm_fallback", 0xc0409c7a30c7e63c, 0xe884f0e0fe35653b),
    // far_edge/42 step 2: objective -33.19009784664432
    ("far_edge", 42, 2, "warm", 0xc04098552051304e, 0x39dcfcb7bed4c32a),
    // far_edge/7 step 1: objective -12.021925893685154
    ("far_edge", 7, 1, "warm_fallback", 0xc0280b39dee8a06a, 0xe285dda3db021549),
    // far_edge/7 step 2: objective -11.930588431362477
    ("far_edge", 7, 2, "warm_fallback", 0xc027dc76163d79be, 0x09e263096d5f9acd),
    // bursty_workload/42 step 1: objective 1.2016976138935886
    ("bursty_workload", 42, 1, "warm", 0x3ff33a2746f5aacc, 0x2d5ca922f4fd880d),
    // bursty_workload/42 step 2: objective 1.197741638719993
    ("bursty_workload", 42, 2, "warm", 0x3ff329f322f5c1d0, 0x9d8adb98cfee08ad),
    // bursty_workload/7 step 1: objective 0.5946793509418349
    ("bursty_workload", 7, 1, "warm_fallback", 0x3fe3079cfd7cdaa0, 0x1bbdde3a82b12a0d),
    // bursty_workload/7 step 2: objective 0.5778932877698256
    ("bursty_workload", 7, 2, "warm", 0x3fe27e1a10719403, 0x22b7551109a08aab),
];

/// `(world, seed, drift step, objective bits, iterations, Stage-1
/// fingerprint)` of Stage 1 solved alone on each catalogue world's request
/// (step 0) and its drift step 1, captured with Stage 1's exact
/// derivatives. The fingerprint is
/// [`stage1_fingerprint`], and the rows stay one per line, as
/// `regenerate_stage1_goldens` prints them.
#[rustfmt::skip]
const STAGE1_GOLDENS: [(&str, u64, usize, u64, usize, u64); 20] = [
    // paper_default/42 step 0: objective 4.58461336889237
    ("paper_default", 42, 0, 0x401256a4e310c9d8, 9, 0x1cddd4c8008349d1),
    // paper_default/42 step 1: objective 4.577681252647137
    ("paper_default", 42, 1, 0x40124f8bac9e86ee, 9, 0xf95e6488a68a0baf),
    // paper_default/7 step 0: objective 4.58461336889237
    ("paper_default", 7, 0, 0x401256a4e310c9d8, 9, 0x1cddd4c8008349d1),
    // paper_default/7 step 1: objective 4.597432679014105
    ("paper_default", 7, 1, 0x401263c56467b580, 9, 0xc3ac5cfe3ad8fea2),
    // dense_cell/42 step 0: objective 22.299015224875184
    ("dense_cell", 42, 0, 0x40364c8c4303d852, 9, 0xf69267accd482137),
    // dense_cell/42 step 1: objective 22.375806857438885
    ("dense_cell", 42, 1, 0x40366034e0d25003, 9, 0x8c2a97be3e9b7188),
    // dense_cell/7 step 0: objective 23.050032128841902
    ("dense_cell", 7, 0, 0x40370ccee7d5200f, 9, 0x77f62f37a381c8c8),
    // dense_cell/7 step 1: objective 23.051146328408134
    ("dense_cell", 7, 1, 0x40370d17ecffd2cb, 9, 0x74092b0ccfebb53c),
    // heterogeneous_devices/42 step 0: objective 2.7852536410579596
    ("heterogeneous_devices", 42, 0, 0x400648330f9b4558, 9, 0xd76f755c670fee2d),
    // heterogeneous_devices/42 step 1: objective 2.8058703380950476
    ("heterogeneous_devices", 42, 1, 0x4006726c25d77a40, 9, 0x32754593fef82f55),
    // heterogeneous_devices/7 step 0: objective 2.823368949427276
    ("heterogeneous_devices", 7, 0, 0x4006964275b2a7fe, 9, 0x2843477fba3a418e),
    // heterogeneous_devices/7 step 1: objective 2.8625571125484597
    ("heterogeneous_devices", 7, 1, 0x4006e68457ea9f63, 9, 0x0fbc72a2e3ac7930),
    // far_edge/42 step 0: objective 2.520153649596427
    ("far_edge", 42, 0, 0x40042946510f4b28, 9, 0x4faa19d22bd1f4c1),
    // far_edge/42 step 1: objective 2.5552438783953058
    ("far_edge", 42, 1, 0x40047123b3d818a8, 9, 0x5797f13cf380ce76),
    // far_edge/7 step 0: objective 0.4082189240822641
    ("far_edge", 7, 0, 0x3fda20424422aa16, 9, 0xb6991348c18be6a4),
    // far_edge/7 step 1: objective 0.43344649162917226
    ("far_edge", 7, 1, 0x3fdbbd965a873f34, 9, 0x4ad54d6e69965699),
    // bursty_workload/42 step 0: objective 1.4578330648170659
    ("bursty_workload", 42, 0, 0x3ff75348c386aafe, 9, 0xb56d0d6f5ffd94f0),
    // bursty_workload/42 step 1: objective 1.47964189177352
    ("bursty_workload", 42, 1, 0x3ff7ac9cf9ef5768, 9, 0x84dec6994ab1b85b),
    // bursty_workload/7 step 0: objective 0.5282657288866476
    ("bursty_workload", 7, 0, 0x3fe0e78d87a54ddb, 9, 0xa84d0d46766d69e9),
    // bursty_workload/7 step 1: objective 0.5649156222509193
    ("bursty_workload", 7, 1, 0x3fe213c9ed522668, 9, 0x23ab0ad7670eb761),
];

/// Relative distance every objective keeps from its finite-difference-era
/// value in [`FD_ERA_COLD`], [`FD_ERA_WARM`] and [`FD_ERA_STAGE1`].
const FD_ERA_TOLERANCE: f64 = 1e-12;

/// `(world, seed, objective)` of each [`GOLDENS`] row as the solver served
/// it while Stage 1 took its Newton derivatives by central differences,
/// frozen before the bit tables were re-pinned for Stage 1's exact
/// derivatives.
#[rustfmt::skip]
const FD_ERA_COLD: [(&str, u64, f64); 10] = [
    ("paper_default", 42, -0.15213349769591583),
    ("paper_default", 7, -0.04823692542033192),
    ("dense_cell", 42, 7.160405980110134),
    ("dense_cell", 7, 7.3421505677389325),
    ("heterogeneous_devices", 42, -0.1499065437442152),
    ("heterogeneous_devices", 7, 2.047037684415321),
    ("far_edge", 42, -33.43459624466706),
    ("far_edge", 7, -12.427062277456209),
    ("bursty_workload", 42, 1.2066515572241074),
    ("bursty_workload", 7, 0.09374999676978768),
];

/// `(world, seed, drift step, cache tag, objective)` of each
/// [`WARM_GOLDENS`] row in the finite-difference era.
#[rustfmt::skip]
const FD_ERA_WARM: [(&str, u64, usize, &str, f64); 20] = [
    ("paper_default", 42, 1, "warm", -0.1519348595551031),
    ("paper_default", 42, 2, "warm", -0.15231701030775796),
    ("paper_default", 7, 1, "warm", -0.0484818081555059),
    ("paper_default", 7, 2, "warm_fallback", -0.04288784015414837),
    ("dense_cell", 42, 1, "warm", 7.160487711641193),
    ("dense_cell", 42, 2, "warm", 7.160807481809662),
    ("dense_cell", 7, 1, "warm", 7.341929839272648),
    ("dense_cell", 7, 2, "warm", 7.341509339918501),
    ("heterogeneous_devices", 42, 1, "warm_fallback", -0.11496853999776457),
    ("heterogeneous_devices", 42, 2, "warm", -0.11508768250640378),
    ("heterogeneous_devices", 7, 1, "warm", 2.044033459581688),
    ("heterogeneous_devices", 7, 2, "warm", 2.044178539780039),
    ("far_edge", 42, 1, "warm_fallback", -33.22247895966254),
    ("far_edge", 42, 2, "warm", -33.19009784664432),
    ("far_edge", 7, 1, "warm_fallback", -12.021925893685154),
    ("far_edge", 7, 2, "warm_fallback", -11.930588431362478),
    ("bursty_workload", 42, 1, "warm", 1.2016976138935882),
    ("bursty_workload", 42, 2, "warm", 1.197741638719993),
    ("bursty_workload", 7, 1, "warm_fallback", 0.5946793509418336),
    ("bursty_workload", 7, 2, "warm", 0.5778932877698243),
];

/// `(world, seed, drift step, iterations, P3 objective)` of each
/// [`STAGE1_GOLDENS`] row in the finite-difference era.
#[rustfmt::skip]
const FD_ERA_STAGE1: [(&str, u64, usize, usize, f64); 20] = [
    ("paper_default", 42, 0, 9, 4.584613368892368),
    ("paper_default", 42, 1, 9, 4.577681252647128),
    ("paper_default", 7, 0, 9, 4.584613368892368),
    ("paper_default", 7, 1, 9, 4.597432679014103),
    ("dense_cell", 42, 0, 9, 22.299015224875177),
    ("dense_cell", 42, 1, 9, 22.37580685743889),
    ("dense_cell", 7, 0, 9, 23.050032128841895),
    ("dense_cell", 7, 1, 9, 23.051146328408127),
    ("heterogeneous_devices", 42, 0, 9, 2.7852536410579605),
    ("heterogeneous_devices", 42, 1, 9, 2.805870338095048),
    ("heterogeneous_devices", 7, 0, 9, 2.82336894942728),
    ("heterogeneous_devices", 7, 1, 9, 2.862557112548461),
    ("far_edge", 42, 0, 9, 2.5201536495964274),
    ("far_edge", 42, 1, 9, 2.555243878395302),
    ("far_edge", 7, 0, 9, 0.4082189240822688),
    ("far_edge", 7, 1, 9, 0.43344649162917076),
    ("bursty_workload", 42, 0, 9, 1.4578330648170668),
    ("bursty_workload", 42, 1, 9, 1.4796418917735212),
    ("bursty_workload", 7, 0, 9, 0.5282657288866528),
    ("bursty_workload", 7, 1, 9, 0.5649156222509217),
];

/// Solves Stage 1 alone, at [`config`], on each catalogue world's request
/// at each seed and on its drift step 1, both resolved by one service, and
/// returns the results with their world, seed and step (0 for the
/// catalogue request).
fn stage1_results() -> Vec<(String, u64, usize, Stage1Result)> {
    let service = ServiceConfig::new(config()).build();
    let mut results = Vec::new();
    for name in ScenarioCatalog::builtin().names() {
        for seed in SEEDS {
            for (step, request) in [
                (0, SolveRequest::catalog(name, seed)),
                (1, SolveRequest::drifted(name, seed, 1)),
            ] {
                let scenario = service.resolve_scenario(&request.scenario).unwrap();
                let problem = Problem::new(scenario, config()).unwrap();
                let result = Stage1Solver::new().solve(&problem).unwrap();
                results.push((name.to_string(), seed, step, result));
            }
        }
    }
    results
}

/// Sends, through one service at [`config`], each catalogue world's request
/// at each seed followed by its drift steps 1 and 2, and returns the drifted
/// requests' responses with their world, seed and step. The catalogue
/// request anchors the world, so every drifted request takes the warm path.
fn warm_responses() -> Vec<(String, u64, usize, SolveResponse)> {
    let service = ServiceConfig::new(config()).build();
    let mut responses = Vec::new();
    for name in ScenarioCatalog::builtin().names() {
        for seed in SEEDS {
            service.handle(&SolveRequest::catalog(name, seed)).unwrap();
            for step in 1..=2 {
                let response = service
                    .handle(&SolveRequest::drifted(name, seed, step))
                    .unwrap();
                responses.push((name.to_string(), seed, step, response));
            }
        }
    }
    responses
}

fn cold_report(name: &str, seed: u64, spec: &SolveSpec) -> SolveReport {
    let scenario = ScenarioCatalog::builtin().generate(name, seed).unwrap();
    SolverRegistry::builtin_with(config())
        .solve("quhe", &scenario, spec)
        .unwrap()
}

#[test]
fn cold_solves_match_pre_optimization_goldens() {
    for (name, seed, objective_bits, vars_fingerprint) in GOLDENS {
        let report = cold_report(name, seed, &SolveSpec::cold());
        assert_eq!(
            report.objective.to_bits(),
            objective_bits,
            "{name}/{seed}: objective drifted from the pre-optimization build \
             (got {:?} = {:#018x})",
            report.objective,
            report.objective.to_bits(),
        );
        assert_eq!(
            fingerprint(&report.variables),
            vars_fingerprint,
            "{name}/{seed}: variables drifted from the pre-optimization build",
        );
    }
}

#[test]
fn warm_served_drift_steps_match_their_goldens() {
    let responses = warm_responses();
    assert_eq!(responses.len(), WARM_GOLDENS.len());
    for ((name, seed, step, response), golden) in responses.iter().zip(WARM_GOLDENS) {
        let (golden_name, golden_seed, golden_step, tag, objective_bits, vars_fingerprint) = golden;
        assert_eq!(
            (name.as_str(), *seed, *step),
            (golden_name, golden_seed, golden_step)
        );
        let report = &response.report;
        assert_eq!(
            response.cache.tag(),
            tag,
            "{name}/{seed} step {step}: served on another path"
        );
        assert_eq!(
            report.objective.to_bits(),
            objective_bits,
            "{name}/{seed} step {step}: objective drifted (got {:?} = {:#018x})",
            report.objective,
            report.objective.to_bits(),
        );
        assert_eq!(
            fingerprint(&report.variables),
            vars_fingerprint,
            "{name}/{seed} step {step}: variables drifted",
        );
    }
    // The table exercises both warm-path outcomes: a kept warm solve and a
    // cold fallback.
    for tag in ["warm", "warm_fallback"] {
        assert!(
            WARM_GOLDENS.iter().any(|golden| golden.3 == tag),
            "no {tag} row"
        );
    }
}

#[test]
fn stage1_solves_match_their_goldens() {
    let results = stage1_results();
    assert_eq!(results.len(), STAGE1_GOLDENS.len());
    for ((name, seed, step, result), golden) in results.iter().zip(STAGE1_GOLDENS) {
        let (golden_name, golden_seed, golden_step, objective_bits, iterations, stage1_bits) =
            golden;
        assert_eq!(
            (name.as_str(), *seed, *step),
            (golden_name, golden_seed, golden_step)
        );
        assert_eq!(
            result.objective.to_bits(),
            objective_bits,
            "{name}/{seed} step {step}: P3 objective drifted (got {:?} = {:#018x})",
            result.objective,
            result.objective.to_bits(),
        );
        assert_eq!(
            result.iterations, iterations,
            "{name}/{seed} step {step}: barrier iteration count changed"
        );
        assert_eq!(
            stage1_fingerprint(result),
            stage1_bits,
            "{name}/{seed} step {step}: rates, Werner parameters or trace drifted",
        );
    }
}

#[test]
fn objectives_stay_within_1e_12_of_the_finite_difference_era() {
    let close = |got: f64, frozen: f64| (got - frozen).abs() <= FD_ERA_TOLERANCE * frozen.abs();
    for (name, seed, frozen) in FD_ERA_COLD {
        let objective = cold_report(name, seed, &SolveSpec::cold()).objective;
        assert!(
            close(objective, frozen),
            "{name}/{seed}: cold objective {objective:?}, {frozen:?} in the finite-difference era"
        );
    }
    let responses = warm_responses();
    assert_eq!(responses.len(), FD_ERA_WARM.len());
    for ((name, seed, step, response), frozen) in responses.iter().zip(FD_ERA_WARM) {
        let (frozen_name, frozen_seed, frozen_step, tag, objective) = frozen;
        assert_eq!(
            (name.as_str(), *seed, *step),
            (frozen_name, frozen_seed, frozen_step)
        );
        assert_eq!(
            response.cache.tag(),
            tag,
            "{name}/{seed} step {step}: served on another path than in the finite-difference era"
        );
        assert!(
            close(response.report.objective, objective),
            "{name}/{seed} step {step}: objective {:?}, {objective:?} in the finite-difference era",
            response.report.objective,
        );
    }
    let results = stage1_results();
    assert_eq!(results.len(), FD_ERA_STAGE1.len());
    for ((name, seed, step, result), frozen) in results.iter().zip(FD_ERA_STAGE1) {
        let (frozen_name, frozen_seed, frozen_step, iterations, objective) = frozen;
        assert_eq!(
            (name.as_str(), *seed, *step),
            (frozen_name, frozen_seed, frozen_step)
        );
        assert_eq!(
            result.iterations, iterations,
            "{name}/{seed} step {step}: barrier iteration count changed"
        );
        assert!(
            close(result.objective, objective),
            "{name}/{seed} step {step}: P3 objective {:?}, {objective:?} in the finite-difference era",
            result.objective,
        );
    }
}

#[test]
fn pruning_never_changes_the_multi_start_winner() {
    // Dominated-start pruning abandons only candidates that provably cannot
    // beat the incumbent, so the winner — and everything derived from it —
    // must be bit-identical with pruning disabled.
    for (name, seed, _, _) in GOLDENS {
        let pruned = cold_report(name, seed, &SolveSpec::cold());
        let unpruned = cold_report(name, seed, &SolveSpec::cold().with_start_pruning(false));
        assert_eq!(
            pruned.objective.to_bits(),
            unpruned.objective.to_bits(),
            "{name}/{seed}: pruning changed the objective"
        );
        assert_eq!(
            pruned.variables, unpruned.variables,
            "{name}/{seed}: pruning changed the winning assignment"
        );
        assert_eq!(
            pruned.metrics, unpruned.metrics,
            "{name}/{seed}: pruning changed the metrics"
        );
    }
}

#[test]
fn pruning_is_thread_count_invariant() {
    // The incumbent used for pruning is fixed before the canonical starts
    // run, so serial and parallel exploration prune identically.
    let scenario = ScenarioCatalog::builtin()
        .generate("paper_default", 42)
        .unwrap();
    let registry = SolverRegistry::builtin_with(config());
    let serial = registry
        .solve("quhe", &scenario, &SolveSpec::cold().with_threads(1))
        .unwrap();
    let parallel = registry
        .solve("quhe", &scenario, &SolveSpec::cold().with_threads(0))
        .unwrap();
    assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
    assert_eq!(serial.variables, parallel.variables);
}

/// Prints the golden table for pasting into `GOLDENS` after an intentional
/// numeric change. Run with
/// `cargo test --test cold_parity -- --ignored --nocapture regenerate`.
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn regenerate_goldens() {
    let catalog = ScenarioCatalog::builtin();
    for name in catalog.names() {
        for seed in SEEDS {
            let report = cold_report(name, seed, &SolveSpec::cold());
            println!(
                "    // {name}/{seed}: objective {:?}\n    (\"{name}\", {seed}, {:#018x}, {:#018x}),",
                report.objective,
                report.objective.to_bits(),
                fingerprint(&report.variables),
            );
        }
    }
}

/// Prints the warm-path golden table for pasting into `WARM_GOLDENS` after
/// an intentional numeric change. Run with
/// `cargo test --test cold_parity -- --ignored --nocapture regenerate`.
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn regenerate_warm_goldens() {
    for (name, seed, step, response) in warm_responses() {
        let report = &response.report;
        println!(
            "    // {name}/{seed} step {step}: objective {:?}\n    (\"{name}\", {seed}, {step}, \"{}\", {:#018x}, {:#018x}),",
            report.objective,
            response.cache.tag(),
            report.objective.to_bits(),
            fingerprint(&report.variables),
        );
    }
}

/// Prints the Stage-1 golden table for pasting into `STAGE1_GOLDENS` after
/// an intentional numeric change. Run with
/// `cargo test --test cold_parity -- --ignored --nocapture regenerate`.
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn regenerate_stage1_goldens() {
    for (name, seed, step, result) in stage1_results() {
        println!(
            "    // {name}/{seed} step {step}: objective {:?}\n    (\"{name}\", {seed}, {step}, {:#018x}, {}, {:#018x}),",
            result.objective,
            result.objective.to_bits(),
            result.iterations,
            stage1_fingerprint(&result),
        );
    }
}
