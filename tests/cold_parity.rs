//! Cold-solve parity pins for the fast-path optimizations.
//!
//! The workspace/allocation/pruning work in `quhe-opt` and `quhe-core` is
//! required to be **bit-identical** to the pre-optimization solver: every
//! transformation either reuses a value that was already computed (same
//! inputs, same accumulation order) or abandons a multi-start candidate that
//! provably cannot win. This suite pins that contract four ways:
//!
//! 1. Against **frozen goldens**: objective bits and a fingerprint of every
//!    decision variable, captured from the pre-optimization build across the
//!    full scenario catalogue × 2 seeds (experiment-grade budgets, serial).
//!    Any arithmetic drift in the cold path fails here on the exact world
//!    and seed.
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
//!    evaluation or the barrier solver must keep every bit of its output.
//!
//! Regenerate the golden tables after an *intentional* numeric change with
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

/// `(world, seed, objective bits, variable fingerprint)` captured from the
/// pre-optimization solver. The readable objective is in the comment.
const GOLDENS: [(&str, u64, u64, u64); 10] = [
    // paper_default/42: objective -0.15213349769591583
    ("paper_default", 42, 0xbfc3791c469d7246, 0xa9ccd210c7538af2),
    // paper_default/7: objective -0.04823692542033192
    ("paper_default", 7, 0xbfa8b282a247a328, 0xa0b2b22a2012e825),
    // dense_cell/42: objective 7.160405980110134
    ("dense_cell", 42, 0x401ca441771a9f98, 0xe31992df5d4f5a0b),
    // dense_cell/7: objective 7.3421505677389325
    ("dense_cell", 7, 0x401d5e5cb7eafc77, 0xfde6feee8747b81e),
    // heterogeneous_devices/42: objective -0.1499065437442152
    (
        "heterogeneous_devices",
        42,
        0xbfc330233b6b3cf4,
        0x70f07cafcc01b27f,
    ),
    // heterogeneous_devices/7: objective 2.047037684415321
    (
        "heterogeneous_devices",
        7,
        0x400060554b21f26d,
        0x771f408ba01eaa81,
    ),
    // far_edge/42: objective -33.43459624466706
    ("far_edge", 42, 0xc040b7a0d988e79c, 0xa9f34d265d121233),
    // far_edge/7: objective -12.427062277456209
    ("far_edge", 7, 0xc028daa7e8260f34, 0x8219bf64ca30e39c),
    // bursty_workload/42: objective 1.2066515572241074
    (
        "bursty_workload",
        42,
        0x3ff34e71dcff1ec7,
        0x75f7ab494e76bba9,
    ),
    // bursty_workload/7: objective 0.09374999676978768
    ("bursty_workload", 7, 0x3fb7fffff2205810, 0x0fd9da199dd4634f),
];

/// `(world, seed, drift step, cache tag, objective bits, variable
/// fingerprint)` of the drifted requests of [`warm_responses`], captured
/// before the warm path's three solves shared one Stage-1 solve. The
/// readable objective is in the comment, and the rows stay one per line, as
/// `regenerate_warm_goldens` prints them.
#[rustfmt::skip]
const WARM_GOLDENS: [(&str, u64, usize, &str, u64, u64); 20] = [
    // paper_default/42 step 1: objective -0.1519348595551031
    ("paper_default", 42, 1, "warm", 0xbfc37299fa74acb8, 0x65d1f3fafb469f0f),
    // paper_default/42 step 2: objective -0.15231701030775796
    ("paper_default", 42, 2, "warm", 0xbfc37f1fb0f2ba76, 0xe5399227c2459457),
    // paper_default/7 step 1: objective -0.0484818081555059
    ("paper_default", 7, 1, "warm", 0xbfa8d29b88f52b08, 0x6f636109821e490d),
    // paper_default/7 step 2: objective -0.04288784015414837
    ("paper_default", 7, 2, "warm_fallback", 0xbfa5f5651db75e80, 0x9a0016765a744034),
    // dense_cell/42 step 1: objective 7.160487711641193
    ("dense_cell", 42, 1, "warm", 0x401ca456e403a29d, 0x48023f5bc030aaa1),
    // dense_cell/42 step 2: objective 7.160807481809662
    ("dense_cell", 42, 2, "warm", 0x401ca4aab76d4c67, 0x14ea4d133cde4f4c),
    // dense_cell/7 step 1: objective 7.341929839272648
    ("dense_cell", 7, 1, "warm", 0x401d5e22db14cf6c, 0x452319a18541973c),
    // dense_cell/7 step 2: objective 7.341509339918501
    ("dense_cell", 7, 2, "warm", 0x401d5db49fd8e9fe, 0x736618e8dbbc6da8),
    // heterogeneous_devices/42 step 1: objective -0.11496853999776457
    ("heterogeneous_devices", 42, 1, "warm_fallback", 0xbfbd6e94075bf8e8, 0xbf25affc2a3a9128),
    // heterogeneous_devices/42 step 2: objective -0.11508768250640378
    ("heterogeneous_devices", 42, 2, "warm", 0xbfbd7662e8899560, 0x095c8ca1bb748e5d),
    // heterogeneous_devices/7 step 1: objective 2.044033459581688
    ("heterogeneous_devices", 7, 1, "warm", 0x40005a2e36e6aa2a, 0x9b75ae3acc6ad6ea),
    // heterogeneous_devices/7 step 2: objective 2.044178539780039
    ("heterogeneous_devices", 7, 2, "warm", 0x40005a7a473c528a, 0xea00f14d5fe7a1cf),
    // far_edge/42 step 1: objective -33.22247895966254
    ("far_edge", 42, 1, "warm_fallback", 0xc0409c7a30c7e63c, 0x072fa3197aa06467),
    // far_edge/42 step 2: objective -33.19009784664432
    ("far_edge", 42, 2, "warm", 0xc04098552051304e, 0x6f1fe910df8efe86),
    // far_edge/7 step 1: objective -12.021925893685154
    ("far_edge", 7, 1, "warm_fallback", 0xc0280b39dee8a06a, 0xc8b89407372916c1),
    // far_edge/7 step 2: objective -11.930588431362478
    ("far_edge", 7, 2, "warm_fallback", 0xc027dc76163d79bf, 0xd59991b1da874c6c),
    // bursty_workload/42 step 1: objective 1.2016976138935882
    ("bursty_workload", 42, 1, "warm", 0x3ff33a2746f5aaca, 0x3d1ad1fcebeaf161),
    // bursty_workload/42 step 2: objective 1.197741638719993
    ("bursty_workload", 42, 2, "warm", 0x3ff329f322f5c1d0, 0x9cd4899927ed13d5),
    // bursty_workload/7 step 1: objective 0.5946793509418336
    ("bursty_workload", 7, 1, "warm_fallback", 0x3fe3079cfd7cda94, 0x5b64708be0d9f9db),
    // bursty_workload/7 step 2: objective 0.5778932877698243
    ("bursty_workload", 7, 2, "warm", 0x3fe27e1a107193f7, 0x875246f471890a70),
];

/// `(world, seed, drift step, objective bits, iterations, Stage-1
/// fingerprint)` of Stage 1 solved alone on each catalogue world's request
/// (step 0) and its drift step 1, captured before Stage 1 re-evaluated only
/// what a finite-difference step touches. The fingerprint is
/// [`stage1_fingerprint`], and the rows stay one per line, as
/// `regenerate_stage1_goldens` prints them.
#[rustfmt::skip]
const STAGE1_GOLDENS: [(&str, u64, usize, u64, usize, u64); 20] = [
    // paper_default/42 step 0: objective 4.584613368892368
    ("paper_default", 42, 0, 0x401256a4e310c9d6, 9, 0xdba8cbc41aea3594),
    // paper_default/42 step 1: objective 4.577681252647128
    ("paper_default", 42, 1, 0x40124f8bac9e86e4, 9, 0xd9cff6a23fbf743b),
    // paper_default/7 step 0: objective 4.584613368892368
    ("paper_default", 7, 0, 0x401256a4e310c9d6, 9, 0xdba8cbc41aea3594),
    // paper_default/7 step 1: objective 4.597432679014103
    ("paper_default", 7, 1, 0x401263c56467b57e, 9, 0xfb8d726dd529d760),
    // dense_cell/42 step 0: objective 22.299015224875177
    ("dense_cell", 42, 0, 0x40364c8c4303d850, 9, 0xa77376bda30ec77d),
    // dense_cell/42 step 1: objective 22.37580685743889
    ("dense_cell", 42, 1, 0x40366034e0d25004, 9, 0xa6569dd2804ad374),
    // dense_cell/7 step 0: objective 23.050032128841895
    ("dense_cell", 7, 0, 0x40370ccee7d5200d, 9, 0x17793321dfc2a267),
    // dense_cell/7 step 1: objective 23.051146328408127
    ("dense_cell", 7, 1, 0x40370d17ecffd2c9, 9, 0x940c45029cd76c89),
    // heterogeneous_devices/42 step 0: objective 2.7852536410579605
    ("heterogeneous_devices", 42, 0, 0x400648330f9b455a, 9, 0xd1909d28af768d45),
    // heterogeneous_devices/42 step 1: objective 2.805870338095048
    ("heterogeneous_devices", 42, 1, 0x4006726c25d77a41, 9, 0xe8c49f25a121ab8e),
    // heterogeneous_devices/7 step 0: objective 2.82336894942728
    ("heterogeneous_devices", 7, 0, 0x4006964275b2a807, 9, 0x27e58b25e7786392),
    // heterogeneous_devices/7 step 1: objective 2.862557112548461
    ("heterogeneous_devices", 7, 1, 0x4006e68457ea9f66, 9, 0x8443ebc1acc43662),
    // far_edge/42 step 0: objective 2.5201536495964274
    ("far_edge", 42, 0, 0x40042946510f4b29, 9, 0xbcd3ffeb21ee643c),
    // far_edge/42 step 1: objective 2.555243878395302
    ("far_edge", 42, 1, 0x40047123b3d818a0, 9, 0xee3b399b1d909cab),
    // far_edge/7 step 0: objective 0.4082189240822688
    ("far_edge", 7, 0, 0x3fda20424422aa6a, 9, 0xbf9793839bb0ba36),
    // far_edge/7 step 1: objective 0.43344649162917076
    ("far_edge", 7, 1, 0x3fdbbd965a873f19, 9, 0xab12fc43e79eb600),
    // bursty_workload/42 step 0: objective 1.4578330648170668
    ("bursty_workload", 42, 0, 0x3ff75348c386ab02, 9, 0xb0f72b3fe326078b),
    // bursty_workload/42 step 1: objective 1.4796418917735212
    ("bursty_workload", 42, 1, 0x3ff7ac9cf9ef576e, 9, 0x15ac11c2a69aef41),
    // bursty_workload/7 step 0: objective 0.5282657288866528
    ("bursty_workload", 7, 0, 0x3fe0e78d87a54e0a, 9, 0x959c66e56b253b3b),
    // bursty_workload/7 step 1: objective 0.5649156222509217
    ("bursty_workload", 7, 1, 0x3fe213c9ed52267e, 9, 0x47b1ae33d9ea9d1b),
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
