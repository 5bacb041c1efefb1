//! The parallel execution layer's hard invariant: every report and figure
//! is **bit-identical** between `--threads 1` and `--threads N`
//! (DESIGN.md §"Parallel evaluation"). These tests pin the invariant at
//! every layer — prepared-artifact reuse and the fanned-out harness grid.

use chg_bench::figures::{Harness, System};
use chg_bench::{load_scaled, Scale};
use chgraph::{PreparedOags, RunConfig};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::datasets::Dataset;
use oag::OagConfig;

#[test]
fn harness_grid_is_identical_serial_vs_parallel() {
    let datasets = [Dataset::LiveJournal, Dataset::WebTrackers];
    let workloads = [Workload::Cc, Workload::Bfs];
    let systems = [System::Hygra, System::ChGraph];
    let serial = Harness::new(Scale(0.05));
    let parallel = Harness::new(Scale(0.05)).with_threads(8);
    let jobs: Vec<_> = datasets
        .into_iter()
        .flat_map(|ds| {
            workloads
                .into_iter()
                .flat_map(move |w| systems.into_iter().map(move |sys| (ds, w, sys)))
        })
        .collect();
    parallel.prefetch(jobs.iter().copied());
    for (ds, w, sys) in jobs {
        assert_eq!(
            *serial.report(ds, w, sys),
            *parallel.report(ds, w, sys),
            "{ds:?}/{w:?}/{sys:?}: parallel harness diverged from serial"
        );
    }
}

/// The determinism invariant extends to the *degraded* path: a grid with
/// one persistently panicking cell completes, reports exactly that cell as
/// failed after its retry, and produces byte-identical reports for every
/// other cell versus a fault-free run.
#[test]
fn degraded_grid_is_identical_to_healthy_grid_on_surviving_cells() {
    let datasets = [Dataset::LiveJournal, Dataset::WebTrackers];
    let workloads = [Workload::Cc, Workload::Bfs];
    let systems = [System::Hygra, System::ChGraph];
    let jobs: Vec<_> = datasets
        .into_iter()
        .flat_map(|ds| {
            workloads
                .into_iter()
                .flat_map(move |w| systems.into_iter().map(move |sys| (ds, w, sys)))
        })
        .collect();
    let bad = (Dataset::WebTrackers, Workload::Bfs, System::ChGraph);

    let healthy = Harness::new(Scale(0.05)).with_threads(8);
    healthy.prefetch(jobs.iter().copied());
    assert!(healthy.cell_failures().is_empty(), "control run must be clean");

    let degraded = Harness::new(Scale(0.05)).with_threads(8).with_fault_hook(move |job| {
        if job == bad {
            panic!("injected persistent fault");
        }
    });
    degraded.prefetch(jobs.iter().copied());
    let failed = degraded.cell_failures();
    assert_eq!(failed.len(), 1, "exactly the injected cell fails: {failed:?}");
    assert_eq!(failed[0].job, bad);
    assert_eq!(failed[0].attempts, 2, "the cell was retried once");

    for &(ds, w, sys) in jobs.iter().filter(|&&j| j != bad) {
        let clean = healthy.report(ds, w, sys);
        let survived = degraded.report(ds, w, sys);
        assert_eq!(*clean, *survived, "{ds:?}/{w:?}/{sys:?} diverged in the degraded grid");
        // Figures are emitted from Display, so pin byte identity of the
        // rendered form too.
        assert_eq!(
            format!("{clean}"),
            format!("{survived}"),
            "{ds:?}/{w:?}/{sys:?} rendered differently in the degraded grid"
        );
    }
}

/// Every system, including the three that ignore `prepared`, reports the
/// same with matching prepared OAGs as with none.
#[test]
fn prepared_oags_reuse_is_bit_identical_to_fresh_builds() {
    let cfg = RunConfig::new();
    let g = load_scaled(Dataset::ComOrkut, Scale(0.05));
    let prepared = PreparedOags::build(&g, &cfg);
    for sys in System::ALL {
        for w in [Workload::Cc, Workload::Bfs] {
            let fresh = try_run_workload_prepared(w, &sys, &g, &cfg, None).expect("fresh run");
            let reused = try_run_workload_prepared(w, &sys, &g, &cfg, Some(&prepared))
                .expect("prepared run");
            assert_eq!(fresh, reused, "{}/{w:?}: prepared reuse changed the report", sys.name());
        }
    }
}

#[test]
fn mismatched_prepared_oags_fall_back_to_fresh_build() {
    let cfg = RunConfig::new();
    let g = load_scaled(Dataset::LiveJournal, Scale(0.05));
    let stale = PreparedOags::build(&g, &cfg.with_oag(OagConfig::new().with_w_min(7)));
    for sys in System::ALL.into_iter().filter(|s| s.needs_oags()) {
        let fresh = try_run_workload_prepared(Workload::Cc, &sys, &g, &cfg, None).expect("fresh");
        let guarded = try_run_workload_prepared(Workload::Cc, &sys, &g, &cfg, Some(&stale))
            .expect("guarded run");
        assert_eq!(
            fresh,
            guarded,
            "{}: config-mismatched PreparedOags must be ignored",
            sys.name()
        );
    }
}
