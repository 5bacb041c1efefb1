//! Regeneration functions, one per table and figure of the paper.
//!
//! All functions take a [`Harness`], which owns the scale factor, the
//! machine configuration and a memo of executed reports, so composite
//! artifacts (Figs. 14, 15, 16, 22 share the same underlying runs) do not
//! re-simulate.
//!
//! # Parallel evaluation
//!
//! The `(dataset, workload, system)` cells of the evaluation grid and the
//! points of the sensitivity sweeps are independent cycle-level
//! simulations, so the harness fans them out across worker threads
//! ([`Harness::prefetch`], [`Harness::run_batch`]) and collects the results
//! in job order. Grid cells go through a single-flight memo: each key is
//! computed exactly once no matter how many workers race for it, and every
//! simulation itself is a pure function of its key plus the harness
//! configuration. Figures are emitted serially, so **output is
//! bit-identical for any thread count** — parallelism only changes
//! wall-clock time. See DESIGN.md §"Parallel evaluation".
//!
//! # Fault tolerance
//!
//! Every cell, memoized or not, runs under `catch_unwind` with one retry,
//! so a panicking workload cannot abort the rest of a multi-hour grid: the
//! failing cell is recorded as a [`CellError`] (see
//! [`Harness::cell_failures`]) while every other cell completes with
//! bit-identical output. Memo tables recover from mutex poisoning instead
//! of propagating it, and failures are *not* memoized — a later attempt of
//! the same cell may succeed (e.g. after a transient fault). See DESIGN.md
//! §"Fault tolerance".

mod alternatives;
mod chains;
mod energy;
mod main_results;
mod motivation;
mod preprocessing;
mod sensitivity;
mod statics;

pub use alternatives::{fig23, fig24, fig25, Fig23, Fig24, Fig25};
pub use chains::{chains, ChainsFigure};
pub use energy::{energy, EnergyFigure};
pub use main_results::{fig14, fig15, fig16, fig22, Fig14, Fig15, Fig16, Fig22};
pub use motivation::{fig2, fig3, fig5, fig7, fig8, Fig2, Fig3, Fig5, Fig7, Fig8};
pub use preprocessing::{fig21, Fig21};
pub use sensitivity::{fig17, fig18, fig19, fig20, Fig17, Fig18, Fig19, Fig20, Sweep, SweepSample};
pub use statics::{area_table, table1, table2, AreaTable, Table1, Table2};

use crate::cache::PreprocessCache;
use crate::{panic_message, ArtifactStore, Memo, Scale};
pub use chgraph::System;
use chgraph::{ExecutionReport, PreparedOags, RunConfig};
use hyperalgos::{self_check_prepared, try_run_workload_prepared, Workload};
use hypergraph::datasets::Dataset;
use hypergraph::Hypergraph;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One evaluation-grid cell.
pub type Job = (Dataset, Workload, System);

/// How often a failed cell is re-attempted before being reported as
/// failed: one retry, so a cell is tried at most twice.
const CELL_RETRIES: u32 = 1;

/// A cell that panicked (workload bug, resource exhaustion, guard trip,
/// injected fault) after all retries. A sweep point is named by its
/// `(dataset, workload, system)` like a grid cell.
#[derive(Clone, Debug)]
pub struct CellError {
    /// The `(dataset, workload, system)` cell that failed.
    pub job: Job,
    /// Total attempts made (initial run plus retries).
    pub attempts: u32,
    /// Rendered panic payload of the last attempt.
    pub message: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ds, w, sys) = self.job;
        write!(
            f,
            "{:?}/{:?}/{} failed after {} attempt(s): {}",
            ds,
            w,
            sys.label(),
            self.attempts,
            self.message
        )
    }
}

/// Execution context of the harness: scale, machine configuration, worker
/// threads, an unbounded [`ArtifactStore`] of loaded graphs and prepared
/// OAGs (optionally over an on-disk preprocessing cache), and an unbounded
/// [`Memo`] of `(dataset, workload, system)` reports.
///
/// The harness is `Sync`: all memo state is behind single-flight tables,
/// and artifacts are handed out as `Arc`s shared between workers and figure
/// emission.
pub struct Harness {
    /// Dataset scale.
    pub scale: Scale,
    /// Run configuration used for every memoized execution.
    pub cfg: RunConfig,
    threads: usize,
    self_check: bool,
    store: ArtifactStore,
    reports: Memo<Job, OnceLock<Arc<ExecutionReport>>>,
    cell_failures: Mutex<Vec<CellError>>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_hook: Option<Arc<dyn Fn(Job) + Send + Sync>>,
}

impl Harness {
    /// Creates a harness at the given scale with the default 16-core scaled
    /// machine. For sub-unity scales the cache capacities are shrunk by the
    /// same factor (to the nearest viable power of two), keeping the
    /// working-set:cache ratio — the property every result depends on — in
    /// the full-scale regime.
    pub fn new(scale: Scale) -> Self {
        let mut cfg = RunConfig::new();
        if scale.factor() < 1.0 {
            let shrink = |bytes: usize, f: f64, min: usize| {
                let target = (bytes as f64 * f) as usize;
                target.next_power_of_two().max(min)
            };
            // Private caches shrink faster than the LLC: the generator's
            // discovery regions scale with |V|, and index-order defeat
            // requires the region footprint to exceed the private caches.
            cfg.system.l1.size_bytes =
                shrink(cfg.system.l1.size_bytes, scale.factor() / 2.0, 1 << 10);
            cfg.system.l2.size_bytes =
                shrink(cfg.system.l2.size_bytes, scale.factor() / 2.0, 2 << 10);
            cfg.system.l3.size_bytes = shrink(cfg.system.l3.size_bytes, scale.factor(), 16 << 10);
        }
        Harness::with_config(scale, cfg)
    }

    /// Creates a harness with an explicit configuration.
    pub fn with_config(scale: Scale, cfg: RunConfig) -> Self {
        Harness {
            scale,
            cfg,
            threads: 1,
            self_check: false,
            store: ArtifactStore::new(usize::MAX, usize::MAX, None),
            reports: Memo::unbounded(),
            cell_failures: Mutex::new(Vec::new()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault_hook: None,
        }
    }

    /// Installs a fault-injection hook invoked at the start of every cell
    /// computation (test support, behind the `fault-injection` feature).
    /// A hook that panics simulates a panicking workload; the harness must
    /// isolate it exactly like a real one.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn with_fault_hook(mut self, hook: impl Fn(Job) + Send + Sync + 'static) -> Self {
        self.fault_hook = Some(Arc::new(hook));
        self
    }

    /// Enables differential self-checking: every execution is diffed
    /// against the naive reference implementation
    /// ([`hyperalgos::self_check_prepared`]), and a divergence fails the cell.
    /// Reports are bit-identical either way; a failing cell surfaces as a
    /// [`CellError`] through the usual fault-isolation machinery (retried
    /// once, recorded in [`cell_failures`](Self::cell_failures)) instead of
    /// aborting the grid.
    pub fn with_self_check(mut self, on: bool) -> Self {
        self.self_check = on;
        self
    }

    /// Sets the worker-thread count used by [`prefetch`](Self::prefetch)
    /// and [`run_batch`](Self::run_batch) to fan out cells (minimum 1).
    ///
    /// Every figure and report is bit-identical for any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an on-disk preprocessing cache: loaded graphs and built
    /// OAGs are persisted and restored across harness instances/processes.
    pub fn with_cache(mut self, cache: Arc<PreprocessCache>) -> Self {
        self.store = ArtifactStore::new(usize::MAX, usize::MAX, Some(cache));
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached preprocessing cache, if any (for run-log summaries).
    pub fn cache(&self) -> Option<&PreprocessCache> {
        self.store.disk()
    }

    /// The (cached) scaled stand-in hypergraph for `ds`.
    pub fn graph(&self, ds: Dataset) -> Arc<Hypergraph> {
        self.store.graph(ds, self.scale).0
    }

    /// The (cached) pre-built OAG pair for `ds` under the harness
    /// configuration, shared by every chain-driven cell of the grid.
    pub fn prepared(&self, ds: Dataset) -> Arc<PreparedOags> {
        self.store.prepared(ds, self.scale, &self.cfg).1
    }

    /// The (memoized) execution report of `workload` on `ds` under `sys`.
    ///
    /// Panics if the cell keeps failing after [`try_report`](Self::try_report)'s
    /// retry — use `try_report` where a structured error is wanted.
    pub fn report(&self, ds: Dataset, workload: Workload, sys: System) -> Arc<ExecutionReport> {
        self.try_report(ds, workload, sys).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolated variant of [`report`](Self::report): the cell runs
    /// under `catch_unwind` and is retried once, and a cell that still
    /// fails yields a [`CellError`] (also recorded in
    /// [`cell_failures`](Self::cell_failures)) instead of unwinding into
    /// the caller. Failures are not memoized, so a later call may succeed.
    pub fn try_report(
        &self,
        ds: Dataset,
        workload: Workload,
        sys: System,
    ) -> Result<Arc<ExecutionReport>, CellError> {
        let job = (ds, workload, sys);
        // A panicking initializer leaves the memo entry empty, so the retry
        // re-runs it; if another worker won the race meanwhile, we just get
        // its value.
        self.isolated(job, || {
            self.reports
                .get_or_init(job, || Arc::new(self.run_with(ds, workload, sys, &self.cfg)))
                .0
        })
    }

    /// Runs `cell` under `catch_unwind`, retrying it up to `CELL_RETRIES`
    /// times. A cell that panics on every attempt is recorded in
    /// [`cell_failures`](Self::cell_failures) and returned as a
    /// [`CellError`] carrying the last panic's message.
    fn isolated<T>(&self, job: Job, cell: impl Fn() -> T) -> Result<T, CellError> {
        let mut message = String::new();
        for _attempt in 0..=CELL_RETRIES {
            match catch_unwind(AssertUnwindSafe(&cell)) {
                Ok(value) => return Ok(value),
                Err(payload) => message = panic_message(payload),
            }
        }
        let err = CellError { job, attempts: CELL_RETRIES + 1, message };
        let mut failures = self.cell_failures.lock().unwrap_or_else(PoisonError::into_inner);
        // Deduplicated by job: the figure-emission layer may re-attempt a
        // cell that prefetch already gave up on.
        if !failures.iter().any(|f| f.job == job) {
            failures.push(err.clone());
        }
        Err(err)
    }

    /// Every cell that failed after retries over the life of this harness
    /// (across all `prefetch`/`try_report`/`run_batch` calls), deduplicated
    /// by job. Empty for a fully healthy run.
    pub fn cell_failures(&self) -> Vec<CellError> {
        self.cell_failures.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Warms the report memo for `jobs` across the harness's worker
    /// threads. Raced keys are single-flighted, so each simulation runs
    /// exactly once; the memo contents — and therefore everything later
    /// emitted from it — are bit-identical to computing the same keys
    /// serially. A cell that keeps failing is left out of the memo and
    /// recorded in [`cell_failures`](Self::cell_failures).
    pub fn prefetch(&self, jobs: impl IntoIterator<Item = Job>) {
        let jobs: Vec<Job> = jobs.into_iter().collect();
        self.fan_out(jobs.len(), |i| {
            let (ds, w, sys) = jobs[i];
            // A failure is recorded in `cell_failures`; the figure that
            // needs the cell reports it again when it asks for the report.
            let _ = self.try_report(ds, w, sys);
        });
    }

    /// The computation of every cell: runs `workload` on `ds` under `sys`
    /// with `cfg`, self-checked when the harness asks for it, reusing the
    /// harness's prepared OAGs when `cfg` keeps the harness's OAG
    /// parameters — permitted by [`System::run`]'s bit-identity contract.
    ///
    /// A failed run (divergence, budget trip, validation error) panics with
    /// the typed error's message, so the harness's fault isolation converts
    /// it into a [`CellError`].
    pub fn run_with(
        &self,
        ds: Dataset,
        workload: Workload,
        sys: System,
        cfg: &RunConfig,
    ) -> ExecutionReport {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(hook) = &self.fault_hook {
            hook((ds, workload, sys));
        }
        let g = self.graph(ds);
        let prepared = (sys.needs_oags() && cfg.oag == self.cfg.oag).then(|| self.prepared(ds));
        let prepared = prepared.as_deref();
        if self.self_check {
            match self_check_prepared(workload, &sys, &g, cfg, prepared) {
                Ok(checked) => checked.report,
                Err(e) => panic!("self-check failed: {e}"),
            }
        } else {
            try_run_workload_prepared(workload, &sys, &g, cfg, prepared)
                .unwrap_or_else(|e| panic!("{}: {e}", sys.name()))
        }
    }

    /// Runs a batch of independent explicit-configuration jobs (sweep
    /// points) across the worker threads, returning reports **in job
    /// order**, bit-identical to a serial loop.
    ///
    /// Each job is fault-isolated like a grid cell. Sweeps need every
    /// point, so once the whole batch has finished, a job that kept
    /// failing panics with the first failed job's [`CellError`] (the
    /// `figures` binary isolates the artifact).
    pub fn run_batch(
        &self,
        jobs: &[(Dataset, Workload, System, RunConfig)],
    ) -> Vec<ExecutionReport> {
        let results = self.fan_out(jobs.len(), |i| {
            let (ds, w, sys, cfg) = jobs[i];
            self.isolated((ds, w, sys), || self.run_with(ds, w, sys, &cfg))
        });
        results.into_iter().collect::<Result<_, _>>().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Work-queue fan-out: indexes `0..n` are claimed from a shared atomic
    /// counter by `min(threads, n)` scoped workers (or run inline when one
    /// worker suffices), and the results come back in index order whatever
    /// the completion order. Work items do their own panic isolation
    /// ([`isolated`](Self::isolated)); one that unwinds anyway propagates.
    fn fan_out<T: Send>(&self, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return done;
                            }
                            done.push((i, work(i)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// The cross product of workloads × datasets × systems, for
/// [`Harness::prefetch`].
pub(crate) fn grid(workloads: &[Workload], datasets: &[Dataset], systems: &[System]) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(workloads.len() * datasets.len() * systems.len());
    for &w in workloads {
        for &ds in datasets {
            for &sys in systems {
                jobs.push((ds, w, sys));
            }
        }
    }
    jobs
}

/// Formats a ratio as `N.NNx`.
pub(crate) fn fx(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a percentage.
pub(crate) fn pct(r: f64) -> String {
    format!("{:.1}%", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_memoizes_reports() {
        let h = Harness::new(Scale(0.05));
        let a = h.report(Dataset::LiveJournal, Workload::Cc, System::Hygra);
        let b = h.report(Dataset::LiveJournal, Workload::Cc, System::Hygra);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
    }

    #[test]
    fn graphs_are_cached() {
        let h = Harness::new(Scale(0.05));
        let a = h.graph(Dataset::Friendster);
        let b = h.graph(Dataset::Friendster);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn system_labels() {
        assert_eq!(System::ChGraph.label(), "ChGraph");
        assert_eq!(System::HatsV.label(), "HATS-V");
    }

    #[test]
    fn prefetch_parallel_matches_serial_reports() {
        let jobs = grid(
            &[Workload::Cc, Workload::Bfs],
            &[Dataset::LiveJournal],
            &[System::Hygra, System::ChGraph],
        );
        let serial = Harness::new(Scale(0.05));
        let parallel = Harness::new(Scale(0.05)).with_threads(4);
        parallel.prefetch(jobs.iter().copied());
        for (ds, w, sys) in jobs {
            assert_eq!(
                *serial.report(ds, w, sys),
                *parallel.report(ds, w, sys),
                "{ds:?}/{w:?}/{sys:?} diverged between serial and parallel harness"
            );
        }
    }

    #[test]
    fn prefetch_single_flights_duplicates() {
        let h = Harness::new(Scale(0.05)).with_threads(4);
        let job = (Dataset::LiveJournal, Workload::Cc, System::Hygra);
        h.prefetch([job, job, job, job]);
        let a = h.report(job.0, job.1, job.2);
        let b = h.report(job.0, job.1, job.2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn run_batch_preserves_job_order() {
        let h = Harness::new(Scale(0.05)).with_threads(3);
        let jobs: Vec<_> = [Workload::Cc, Workload::Bfs, Workload::Mis]
            .into_iter()
            .map(|w| (Dataset::LiveJournal, w, System::Hygra, h.cfg))
            .collect();
        let batch = h.run_batch(&jobs);
        assert_eq!(batch.len(), 3);
        for ((ds, w, sys, cfg), got) in jobs.iter().zip(&batch) {
            assert_eq!(*got, h.run_with(*ds, *w, *sys, cfg), "{w:?} out of order");
        }
    }

    #[test]
    fn persistent_cell_panic_is_isolated_and_reported() {
        let bad = (Dataset::LiveJournal, Workload::Cc, System::ChGraph);
        let h = Harness::new(Scale(0.05)).with_threads(4).with_fault_hook(move |job| {
            if job == bad {
                panic!("injected persistent fault");
            }
        });
        let jobs = grid(
            &[Workload::Cc, Workload::Bfs],
            &[Dataset::LiveJournal],
            &[System::Hygra, System::ChGraph],
        );
        h.prefetch(jobs.iter().copied());
        let failed = h.cell_failures();
        assert_eq!(failed.len(), 1, "exactly the injected cell fails");
        assert_eq!(failed[0].job, bad);
        assert_eq!(failed[0].attempts, 2, "one retry before giving up");
        assert!(failed[0].message.contains("injected persistent fault"));
        // Healthy cells are untouched by the neighbor's failure.
        let clean = Harness::new(Scale(0.05));
        for &(ds, w, sys) in jobs.iter().filter(|&&j| j != bad) {
            assert_eq!(*h.report(ds, w, sys), *clean.report(ds, w, sys));
        }
    }

    #[test]
    fn transient_cell_panic_is_retried_to_success() {
        use std::sync::atomic::AtomicU32;
        let bad = (Dataset::LiveJournal, Workload::Cc, System::Hygra);
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let h = Harness::new(Scale(0.05)).with_fault_hook(move |job| {
            if job == bad && seen.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected transient fault");
            }
        });
        h.prefetch([bad]);
        assert!(h.cell_failures().is_empty(), "retry must recover: {:?}", h.cell_failures());
        assert_eq!(calls.load(Ordering::SeqCst), 2, "initial attempt plus one retry");
        let clean = Harness::new(Scale(0.05));
        assert_eq!(*h.report(bad.0, bad.1, bad.2), *clean.report(bad.0, bad.1, bad.2));
    }

    #[test]
    fn persistent_sweep_panic_is_retried_recorded_and_reraised() {
        use std::sync::atomic::AtomicU32;
        let bad = (Dataset::LiveJournal, Workload::Bfs, System::Hygra);
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let h = Harness::new(Scale(0.05)).with_threads(2).with_fault_hook(move |job| {
            if job == bad {
                seen.fetch_add(1, Ordering::SeqCst);
                panic!("injected sweep fault");
            }
        });
        let jobs: Vec<_> =
            [Workload::Cc, bad.1].into_iter().map(|w| (bad.0, w, bad.2, h.cfg)).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| h.run_batch(&jobs)))
            .expect_err("a failed sweep point fails the batch");
        assert_eq!(calls.load(Ordering::SeqCst), 2, "initial attempt plus one retry");
        let failed = h.cell_failures();
        assert_eq!(failed.len(), 1, "the sweep point is listed like a grid cell");
        assert_eq!(failed[0].job, bad);
        assert_eq!(failed[0].attempts, 2);
        assert_eq!(panic_message(payload), failed[0].to_string());
    }

    #[test]
    fn failures_are_not_memoized() {
        use std::sync::atomic::AtomicBool;
        let bad = (Dataset::LiveJournal, Workload::Bfs, System::Hygra);
        let arm = Arc::new(AtomicBool::new(true));
        let armed = arm.clone();
        let h = Harness::new(Scale(0.05)).with_fault_hook(move |job| {
            if job == bad && armed.load(Ordering::SeqCst) {
                panic!("injected while armed");
            }
        });
        assert!(h.try_report(bad.0, bad.1, bad.2).is_err());
        arm.store(false, Ordering::SeqCst);
        let recovered = h.try_report(bad.0, bad.1, bad.2).expect("fault cleared");
        let clean = Harness::new(Scale(0.05));
        assert_eq!(*recovered, *clean.report(bad.0, bad.1, bad.2));
    }

    #[test]
    fn self_checked_reports_are_bit_identical_to_unchecked() {
        let plain = Harness::new(Scale(0.05));
        let checked = Harness::new(Scale(0.05)).with_self_check(true);
        for (w, sys) in [(Workload::Cc, System::Hygra), (Workload::Bfs, System::ChGraph)] {
            assert_eq!(
                *plain.report(Dataset::LiveJournal, w, sys),
                *checked.report(Dataset::LiveJournal, w, sys),
                "{w:?}/{sys:?}: self-checking must not change the report"
            );
        }
    }

    #[test]
    fn guard_trips_become_cell_errors_not_grid_aborts() {
        // A one-cycle budget trips the watchdog in every cell; the grid
        // must finish with structured per-cell errors rather than unwind.
        let cfg = RunConfig::new().with_max_cycles(1);
        let h = Harness::with_config(Scale(0.05), cfg).with_self_check(true);
        let jobs = grid(&[Workload::Cc, Workload::Bfs], &[Dataset::LiveJournal], &[System::Hygra]);
        h.prefetch(jobs.iter().copied());
        let failed = h.cell_failures();
        assert_eq!(failed.len(), jobs.len());
        for f in &failed {
            assert!(
                f.message.contains("cycle budget exceeded"),
                "cell error must carry the typed watchdog message: {}",
                f.message
            );
        }
    }

    #[test]
    fn prepared_reuse_is_bit_identical() {
        // The memoized path (prepared OAGs) must equal a direct run with
        // per-execution OAG builds.
        let h = Harness::new(Scale(0.05));
        let ds = Dataset::LiveJournal;
        let g = h.graph(ds);
        let direct =
            try_run_workload_prepared(Workload::Cc, &System::ChGraph, &g, &h.cfg, None).unwrap();
        let memoized = h.report(ds, Workload::Cc, System::ChGraph);
        assert_eq!(direct, *memoized);
    }
}
