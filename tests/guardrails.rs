//! Integration tests for the runtime guardrails: structural validators,
//! execution watchdogs, and the differential self-check mode.
//!
//! The validators are exercised in both directions — every internally
//! generated structure must pass, and targeted single-field corruptions
//! must be rejected with the *right* typed variant, so a guard trip can be
//! traced to the invariant it protects.

use chgraph::{
    Algorithm, Budget, ExecError, RunConfig, State, System, UpdateOutcome, WatchdogConfig,
};
use hyperalgos::{self_check_prepared, SelfCheckError, Workload};
use hypergraph::generate::GeneratorConfig;
use hypergraph::{Csr, Frontier, Hypergraph, Side, ValidationError};
use oag::{generate_chains, ChainConfig, ChainSet, OagConfig};
use proptest::prelude::*;

fn small_cfg() -> RunConfig {
    RunConfig::new().with_system(archsim::SystemConfig::scaled(2))
}

// ---------------------------------------------------------------------------
// Structural validators: generated structures pass, mutations are rejected.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_structures_pass_every_validator(
        nv in 64usize..200,
        nh in 20usize..120,
        seed in 0u64..1_000,
    ) {
        let g = GeneratorConfig::new(nv, nh).with_seed(seed).generate();
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.validate_undirected().is_ok());
        for side in [Side::Hyperedge, Side::Vertex] {
            let oag = OagConfig::new().build(&g, side);
            prop_assert!(oag.validate().is_ok(), "{side} OAG failed validation");
            let frontier = Frontier::full(g.num_on(side));
            let range = 0..g.num_on(side) as u32;
            let chains = generate_chains(&oag, &frontier, range.clone(), &ChainConfig::default());
            prop_assert!(
                chains.validate_cover(&frontier, range).is_ok(),
                "{side} chain schedule is not a cover"
            );
        }
    }

    #[test]
    fn corrupted_offsets_are_rejected_as_non_monotone(seed in 0u64..200) {
        let g = GeneratorConfig::new(64, 40).with_seed(seed).generate();
        let csr = g.csr_for(Side::Hyperedge);
        let mut offsets = csr.offsets().to_vec();
        if offsets.len() <= 2 || csr.num_edges() == 0 {
            return; // degenerate draw; nothing to corrupt
        }
        // Raise the first offset above the last: strictly decreasing
        // somewhere, whatever the row layout.
        offsets[0] = offsets.last().unwrap() + 1;
        match Csr::try_from_raw(offsets, csr.targets().to_vec()) {
            Err(ValidationError::NonMonotoneOffsets { .. }) => {}
            other => prop_assert!(false, "expected NonMonotoneOffsets, got {other:?}"),
        }
    }

    #[test]
    fn truncated_targets_are_rejected_as_count_mismatch(seed in 0u64..200) {
        let g = GeneratorConfig::new(64, 40).with_seed(seed).generate();
        let csr = g.csr_for(Side::Vertex);
        let mut targets = csr.targets().to_vec();
        if targets.is_empty() {
            return; // degenerate draw; nothing to corrupt
        }
        targets.pop();
        match Csr::try_from_raw(csr.offsets().to_vec(), targets) {
            Err(ValidationError::TargetCountMismatch { .. }) => {}
            other => prop_assert!(false, "expected TargetCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dangling_incidence_is_rejected_as_out_of_range(seed in 0u64..200) {
        let g = GeneratorConfig::new(64, 40).with_seed(seed).generate();
        let h = g.csr_for(Side::Hyperedge);
        let mut targets = h.targets().to_vec();
        if targets.is_empty() {
            return; // degenerate draw; nothing to corrupt
        }
        // Point one incidence entry past the vertex id range.
        targets[0] = g.num_vertices() as u32;
        let bad = Csr::from_raw(h.offsets().to_vec(), targets);
        let rebuilt = Hypergraph::try_from_directed_csr(bad, g.csr_for(Side::Vertex).clone());
        match rebuilt {
            Err(ValidationError::TargetOutOfRange { .. }) => {}
            other => prop_assert!(false, "expected TargetOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn dropped_chain_elements_are_caught_before_execution(
        seed in 0u64..500,
        victim_pick in 0usize..64,
    ) {
        // The paper's §IV reordering invariant: a schedule that silently
        // drops an active hyperedge would produce a wrong answer with no
        // error. validate_cover must catch it up front.
        let g = GeneratorConfig::new(96, 48).with_seed(seed).generate();
        let oag = OagConfig::new().build(&g, Side::Hyperedge);
        let frontier = Frontier::full(g.num_hyperedges());
        let range = 0..g.num_hyperedges() as u32;
        let chains = generate_chains(&oag, &frontier, range.clone(), &ChainConfig::default());
        if chains.num_elements() <= 1 {
            return; // degenerate draw; dropping would empty the schedule
        }
        let victim_pos = victim_pick % chains.num_elements();
        let victim = chains.schedule()[victim_pos];
        let corrupted = ChainSet::from_chains(chains.iter().map(|chain| {
            chain.iter().copied().filter(|&e| e != victim).collect::<Vec<_>>()
        }));
        match corrupted.validate_cover(&frontier, range) {
            Err(ValidationError::ChainMissedElement { element }) => {
                prop_assert_eq!(element, victim);
            }
            other => prop_assert!(false, "expected ChainMissedElement, got {other:?}"),
        }
    }

    #[test]
    fn duplicated_chain_elements_are_caught_before_execution(seed in 0u64..500) {
        let g = GeneratorConfig::new(96, 48).with_seed(seed).generate();
        let oag = OagConfig::new().build(&g, Side::Hyperedge);
        let frontier = Frontier::full(g.num_hyperedges());
        let range = 0..g.num_hyperedges() as u32;
        let chains = generate_chains(&oag, &frontier, range.clone(), &ChainConfig::default());
        if chains.is_empty() {
            return; // degenerate draw; nothing to duplicate
        }
        let dup = chains.schedule()[0];
        let mut lists: Vec<Vec<u32>> = chains.iter().map(<[u32]>::to_vec).collect();
        lists.push(vec![dup]);
        match ChainSet::from_chains(lists).validate_cover(&frontier, range) {
            Err(ValidationError::ChainDuplicateVisit { element }) => {
                prop_assert_eq!(element, dup);
            }
            other => prop_assert!(false, "expected ChainDuplicateVisit, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution watchdogs: livelocks become typed errors with partial stats.
// ---------------------------------------------------------------------------

/// A deliberately non-converging algorithm: every element re-activates the
/// full frontier forever, so only a watchdog budget can end the run.
#[derive(Clone, Copy, Debug)]
struct NeverConverges;

impl Algorithm for NeverConverges {
    fn name(&self) -> &'static str {
        "never-converges"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        (State::filled(g, 0.0, 0.0), Frontier::full(g.num_vertices()))
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, _v: u32, h: u32) -> UpdateOutcome {
        state.hyperedge_value[h as usize] += 1.0;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, _h: u32, v: u32) -> UpdateOutcome {
        state.vertex_value[v as usize] += 1.0;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn all_active(&self) -> bool {
        true
    }

    fn max_iterations(&self) -> usize {
        usize::MAX
    }
}

#[test]
fn cycle_budget_converts_a_livelock_into_a_typed_error_with_partial_stats() {
    let g = GeneratorConfig::new(128, 64).with_seed(9).generate();
    // Measure one iteration's cost, then budget for roughly three.
    let one = System::Hygra.execute(&g, &NeverConverges, &small_cfg().with_max_iterations(1));
    assert!(one.cycles > 0);
    let cfg = small_cfg().with_max_cycles(3 * one.cycles);
    match System::Hygra.run(&g, &NeverConverges, &cfg, None) {
        Err(ExecError::BudgetExceeded { phase, budget: Budget::Cycles, progress }) => {
            assert!(!phase.is_empty(), "phase must name where the budget tripped");
            assert!(progress.cycles >= 3 * one.cycles, "trip happens only past the budget");
            assert!(progress.iterations >= 2, "partial progress must be reported");
            assert!(progress.iterations < 100, "the watchdog must end the livelock early");
        }
        other => panic!("expected a cycle-budget trip, got {other:?}"),
    }
}

#[test]
fn stalled_frontier_budget_trips_on_a_non_shrinking_frontier() {
    let g = GeneratorConfig::new(128, 64).with_seed(10).generate();
    let watchdog = WatchdogConfig::default().with_max_stalled_iterations(4);
    let cfg = small_cfg().with_watchdog(watchdog);
    match System::Hygra.run(&g, &NeverConverges, &cfg, None) {
        Err(ExecError::BudgetExceeded { budget: Budget::StalledFrontier, progress, .. }) => {
            assert!(progress.frontier_len > 0);
            assert!(
                (4..=6).contains(&progress.iterations),
                "stall budget of 4 must trip shortly after 4 non-shrinking iterations, \
                 tripped at {}",
                progress.iterations
            );
        }
        other => panic!("expected a stalled-frontier trip, got {other:?}"),
    }
}

#[test]
fn watchdogs_do_not_perturb_converging_runs() {
    // A generous budget must leave results bit-identical to an unguarded run.
    let g = GeneratorConfig::new(128, 64).with_seed(11).generate();
    let plain = System::Hygra.execute(&g, &hyperalgos::ConnectedComponents, &small_cfg());
    let guarded_cfg = small_cfg()
        .with_watchdog(WatchdogConfig::default().with_max_stalled_iterations(1_000))
        .with_max_cycles(u64::MAX)
        .with_validate(true);
    let guarded = System::Hygra
        .run(&g, &hyperalgos::ConnectedComponents, &guarded_cfg, None)
        .expect("generous budgets never trip");
    assert_eq!(plain.state.vertex_value, guarded.state.vertex_value);
    assert_eq!(plain.cycles, guarded.cycles);
}

#[test]
fn chain_runtimes_honor_budgets_and_deep_validation_together() {
    let g = GeneratorConfig::new(128, 64).with_seed(12).generate();
    let cfg = small_cfg().with_validate(true).with_max_cycles(u64::MAX);
    for sys in System::ALL.into_iter().filter(|s| s.needs_oags()) {
        let name = sys.name();
        let r = sys
            .run(&g, &hyperalgos::ConnectedComponents, &cfg, None)
            .unwrap_or_else(|e| panic!("{name}: healthy run must pass deep validation: {e}"));
        assert!(r.cycles > 0, "{name}");
    }
}

/// Machines the simulator cannot build are typed config errors, not
/// panics: more cores than the sharer directory tracks, and core counts
/// that are runtime inputs (`--cores`, a request's `cores`) but leave the
/// scaled machine with no core or more cores than its 4×4 mesh has nodes.
#[test]
fn unsimulatable_machine_configs_are_typed_errors() {
    let g = GeneratorConfig::new(64, 32).with_seed(13).generate();
    let mut too_wide = archsim::SystemConfig::scaled(33);
    too_wide.noc.width = 6;
    too_wide.noc.height = 6;
    for (system, reason) in [
        (too_wide, "directory bitmask supports up to 32 cores"),
        (archsim::SystemConfig::scaled(0), "need at least one core"),
        (archsim::SystemConfig::scaled(17), "mesh must be large enough"),
    ] {
        let cfg = RunConfig::new().with_system(system);
        for sys in [System::Hygra, System::ChGraph] {
            match sys.run(&g, &hyperalgos::ConnectedComponents, &cfg, None) {
                Err(ExecError::InvalidConfig(msg)) => assert!(msg.contains(reason), "{msg}"),
                other => panic!("{}, {reason}: expected InvalidConfig, got {other:?}", sys.name()),
            }
        }
    }
}

/// A zero-entry bipartite-edge FIFO cannot be simulated by the decoupled
/// engines (full ChGraph, HATS-V), so construction rejects it before the
/// first cycle; runtimes that never use the FIFO still accept it.
#[test]
fn zero_fifo_capacity_is_a_typed_error_only_for_decoupled_engines() {
    let g = GeneratorConfig::new(64, 32).with_seed(14).generate();
    let mut cfg = small_cfg();
    cfg.fifo_capacity = 0;
    let algo = hyperalgos::ConnectedComponents;
    for sys in [System::ChGraph, System::HatsV] {
        match sys.run(&g, &algo, &cfg, None) {
            Err(ExecError::InvalidConfig(msg)) => assert!(msg.contains("fifo_capacity"), "{msg}"),
            other => panic!("{}: expected InvalidConfig, got {other:?}", sys.name()),
        }
    }
    for sys in [System::Hygra, System::Gla, System::HcgOnly, System::Prefetcher] {
        let r = sys
            .run(&g, &algo, &cfg, None)
            .unwrap_or_else(|e| panic!("{}: no FIFO, so capacity 0 is fine: {e}", sys.name()));
        assert!(r.cycles > 0, "{}", sys.name());
    }
}

// ---------------------------------------------------------------------------
// Differential self-check: all eight workloads, multiple runtimes.
// ---------------------------------------------------------------------------

#[test]
fn all_eight_workloads_self_check_under_every_runtime_family() {
    let g = GeneratorConfig::new(160, 90).with_seed(21).generate();
    let cfg = small_cfg();
    for sys in [System::Hygra, System::Gla, System::ChGraph] {
        for w in Workload::HYPERGRAPH.into_iter().chain(Workload::GRAPH) {
            let checked = self_check_prepared(w, &sys, &g, &cfg, None)
                .unwrap_or_else(|e| panic!("{w} under {} failed its self-check: {e}", sys.name()));
            assert!(checked.elements_checked > 0, "{w}: nothing was compared");
        }
    }
}

#[test]
fn self_check_reports_budget_trips_as_exec_errors_with_progress() {
    let g = GeneratorConfig::new(160, 90).with_seed(22).generate();
    let cfg = small_cfg().with_max_cycles(1);
    match self_check_prepared(Workload::Cc, &System::Hygra, &g, &cfg, None) {
        Err(SelfCheckError::Exec(ExecError::BudgetExceeded { progress, .. })) => {
            assert!(progress.cycles > 0, "partial stats survive the trip");
        }
        other => panic!("expected a budget trip, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Command-line input: a flag the usage text does not list is an error, not
// a silently ignored default.
// ---------------------------------------------------------------------------

#[test]
fn undocumented_flags_are_rejected_with_usage() {
    use std::process::Command;
    let cases: [(&str, &[&str]); 6] = [
        (
            env!("CARGO_BIN_EXE_chgraph-cli"),
            &[
                "run",
                "--workload",
                "bfs",
                "--runtime",
                "chgraph",
                "--dataset",
                "FS",
                "--threads",
                "2",
            ],
        ),
        (env!("CARGO_BIN_EXE_chgraph-cli"), &["run", "--workload", "pr", "--iter", "3"]),
        (env!("CARGO_BIN_EXE_chgraph-cli"), &["stats", "--dataset", "FS", "--json"]),
        (env!("CARGO_BIN_EXE_chgraphd"), &["--addr", "127.0.0.1:0", "--threads", "2"]),
        (env!("CARGO_BIN_EXE_figures"), &["table1", "--bogus"]),
        (env!("CARGO_BIN_EXE_figures"), &["--bogus"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must print the usage: {stderr}");
    }
}
