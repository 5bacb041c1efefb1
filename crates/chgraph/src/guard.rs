//! Runtime guardrails: execution watchdogs and typed execution errors.
//!
//! Simulated executions can livelock in ways ordinary unit tests never
//! exercise — a non-monotone algorithm whose frontier never drains, a
//! mis-built OAG that sends the chain walk in circles, a FIFO coupling bug
//! that stalls the engine forever. The [`Watchdog`] converts those hangs
//! into a typed [`ExecError::BudgetExceeded`] carrying an [`ExecProgress`]
//! snapshot (partial statistics at the moment the guard tripped), so
//! long-running evaluation grids report a structured per-cell failure
//! instead of wedging the whole harness.
//!
//! All budgets are opt-in: a default [`WatchdogConfig`] never trips.

use hypergraph::ValidationError;
use std::fmt;
use std::time::{Duration, Instant};

/// Budgets for one execution. Each budget is optional; the default
/// configuration has none, so a watchdog built from it never trips.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WatchdogConfig {
    /// Maximum simulated cycles before the run is aborted.
    pub max_cycles: Option<u64>,
    /// Maximum host wall-clock time before the run is aborted.
    pub max_wall: Option<Duration>,
    /// Maximum consecutive iterations during which the frontier fails to
    /// shrink before the run is declared livelocked. Frontiers legitimately
    /// grow while an algorithm expands (e.g. BFS's first `diameter`
    /// iterations), so set this above the expected expansion span.
    pub max_stalled_iterations: Option<usize>,
}

impl WatchdogConfig {
    /// A configuration with no budgets (never trips).
    pub fn new() -> Self {
        WatchdogConfig::default()
    }

    /// Caps simulated cycles.
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Caps host wall-clock time.
    pub fn with_max_wall(mut self, wall: Duration) -> Self {
        self.max_wall = Some(wall);
        self
    }

    /// Caps consecutive non-shrinking-frontier iterations.
    pub fn with_max_stalled_iterations(mut self, iterations: usize) -> Self {
        self.max_stalled_iterations = Some(iterations);
        self
    }

    /// Whether any budget is set.
    pub fn is_enabled(&self) -> bool {
        self.max_cycles.is_some()
            || self.max_wall.is_some()
            || self.max_stalled_iterations.is_some()
    }
}

/// Which budget a watchdog tripped on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Budget {
    /// The simulated-cycle budget ([`WatchdogConfig::max_cycles`]).
    Cycles,
    /// The host wall-clock budget ([`WatchdogConfig::max_wall`]).
    WallClock,
    /// The frontier-stall budget ([`WatchdogConfig::max_stalled_iterations`]).
    StalledFrontier,
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Budget::Cycles => "cycle budget",
            Budget::WallClock => "wall-clock budget",
            Budget::StalledFrontier => "frontier stall budget",
        })
    }
}

/// Snapshot of execution progress at the moment a guard tripped — the
/// partial statistics a caller can still report for an aborted run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecProgress {
    /// Completed iterations of the outer procedure.
    pub iterations: usize,
    /// Simulated cycles elapsed so far.
    pub cycles: u64,
    /// Active elements in the most recent frontier.
    pub frontier_len: usize,
}

/// Typed execution failure, returned by [`System::run`](crate::System::run);
/// the [`System::execute`](crate::System::execute) test helper panics with
/// this error's [`Display`](fmt::Display) message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// A watchdog budget was exhausted. `progress` carries the partial
    /// statistics accumulated before the guard tripped.
    BudgetExceeded {
        /// Which execution phase tripped the guard.
        phase: &'static str,
        /// Which budget was exhausted.
        budget: Budget,
        /// Progress at the moment the guard tripped.
        progress: ExecProgress,
    },
    /// A generated chain schedule failed its §IV cover invariant (caught by
    /// [`oag::ChainSet::validate_cover`] before execution could consume the
    /// corrupt schedule).
    InvalidChainCover {
        /// Which execution phase produced the schedule.
        phase: &'static str,
        /// The specific cover violation.
        source: ValidationError,
    },
    /// An input structure (hypergraph or OAG) failed validation.
    InvalidInput(ValidationError),
    /// The run configuration cannot be simulated (e.g. more cores than the
    /// sharer directory supports).
    InvalidConfig(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded { phase, budget, progress } => write!(
                f,
                "{budget} exceeded during {phase}: {} iterations, {} cycles, frontier {}",
                progress.iterations, progress.cycles, progress.frontier_len
            ),
            ExecError::InvalidChainCover { phase, source } => {
                write!(f, "invalid chain cover during {phase}: {source}")
            }
            ExecError::InvalidInput(e) => write!(f, "invalid input structure: {e}"),
            ExecError::InvalidConfig(msg) => write!(f, "invalid run configuration: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::InvalidChainCover { source, .. } => Some(source),
            ExecError::InvalidInput(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for ExecError {
    fn from(e: ValidationError) -> Self {
        ExecError::InvalidInput(e)
    }
}

/// Runtime state of the guardrails: wall-clock origin plus the frontier
/// stall counter. Construct one per execution and feed it every iteration
/// boundary through [`Watchdog::observe_iteration`].
#[derive(Clone, Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    started: Instant,
    prev_frontier: Option<usize>,
    stalled: usize,
}

impl Watchdog {
    /// Starts a watchdog (the wall clock begins now).
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog { cfg, started: Instant::now(), prev_frontier: None, stalled: 0 }
    }

    /// Whether any budget is being enforced.
    pub fn is_enabled(&self) -> bool {
        self.cfg.is_enabled()
    }

    /// Checks the cycle budget alone — usable mid-iteration, where the
    /// frontier is not yet known.
    pub fn check_cycles(
        &self,
        phase: &'static str,
        progress: ExecProgress,
    ) -> Result<(), ExecError> {
        match self.cfg.max_cycles {
            Some(max) if progress.cycles > max => {
                Err(ExecError::BudgetExceeded { phase, budget: Budget::Cycles, progress })
            }
            _ => Ok(()),
        }
    }

    /// Checks every budget at an iteration boundary and advances the
    /// frontier stall counter. `progress.frontier_len` must be the size of
    /// the frontier the *next* iteration would process.
    pub fn observe_iteration(
        &mut self,
        phase: &'static str,
        progress: ExecProgress,
    ) -> Result<(), ExecError> {
        self.check_cycles(phase, progress)?;
        if let Some(max) = self.cfg.max_wall {
            if self.started.elapsed() > max {
                return Err(ExecError::BudgetExceeded {
                    phase,
                    budget: Budget::WallClock,
                    progress,
                });
            }
        }
        if let Some(max) = self.cfg.max_stalled_iterations {
            let stalled_now = match self.prev_frontier {
                Some(prev) => progress.frontier_len > 0 && progress.frontier_len >= prev,
                None => false,
            };
            self.stalled = if stalled_now { self.stalled + 1 } else { 0 };
            self.prev_frontier = Some(progress.frontier_len);
            if self.stalled > max {
                return Err(ExecError::BudgetExceeded {
                    phase,
                    budget: Budget::StalledFrontier,
                    progress,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(iterations: usize, cycles: u64, frontier_len: usize) -> ExecProgress {
        ExecProgress { iterations, cycles, frontier_len }
    }

    #[test]
    fn default_watchdog_never_trips() {
        let mut w = Watchdog::new(WatchdogConfig::new());
        assert!(!w.is_enabled());
        for i in 0..1_000 {
            assert!(w.observe_iteration("iteration", progress(i, u64::MAX, 100)).is_ok());
        }
    }

    #[test]
    fn cycle_budget_trips_with_partial_stats() {
        let mut w = Watchdog::new(WatchdogConfig::new().with_max_cycles(1_000));
        assert!(w.observe_iteration("iteration", progress(1, 900, 5)).is_ok());
        let err = w.observe_iteration("iteration", progress(2, 1_001, 5)).unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                phase: "iteration",
                budget: Budget::Cycles,
                progress: progress(2, 1_001, 5),
            }
        );
    }

    #[test]
    fn stalled_frontier_trips_only_after_budget() {
        let mut w = Watchdog::new(WatchdogConfig::new().with_max_stalled_iterations(2));
        // Shrinking frontier: fine forever.
        for (i, len) in [100usize, 80, 60, 40].into_iter().enumerate() {
            assert!(w.observe_iteration("iteration", progress(i, 0, len)).is_ok());
        }
        // Constant frontier: two stalls tolerated, the third trips.
        assert!(w.observe_iteration("iteration", progress(4, 0, 40)).is_ok());
        assert!(w.observe_iteration("iteration", progress(5, 0, 40)).is_ok());
        let err = w.observe_iteration("iteration", progress(6, 0, 40)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { budget: Budget::StalledFrontier, .. }));
    }

    #[test]
    fn a_shrink_resets_the_stall_counter() {
        let mut w = Watchdog::new(WatchdogConfig::new().with_max_stalled_iterations(1));
        assert!(w.observe_iteration("iteration", progress(0, 0, 10)).is_ok());
        assert!(w.observe_iteration("iteration", progress(1, 0, 10)).is_ok()); // stall 1
        assert!(w.observe_iteration("iteration", progress(2, 0, 9)).is_ok()); // reset
        assert!(w.observe_iteration("iteration", progress(3, 0, 9)).is_ok()); // stall 1
        assert!(w.observe_iteration("iteration", progress(4, 0, 9)).is_err());
    }

    #[test]
    fn empty_frontier_never_counts_as_a_stall() {
        let mut w = Watchdog::new(WatchdogConfig::new().with_max_stalled_iterations(0));
        assert!(w.observe_iteration("iteration", progress(0, 0, 0)).is_ok());
        assert!(w.observe_iteration("iteration", progress(1, 0, 0)).is_ok());
    }

    #[test]
    fn wall_clock_budget_trips() {
        let mut w = Watchdog::new(WatchdogConfig::new().with_max_wall(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let err = w.observe_iteration("iteration", progress(0, 0, 1)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { budget: Budget::WallClock, .. }));
    }

    #[test]
    fn error_display_names_phase_and_budget() {
        let err = ExecError::BudgetExceeded {
            phase: "vertex computation",
            budget: Budget::Cycles,
            progress: progress(3, 42, 7),
        };
        let msg = err.to_string();
        assert!(msg.contains("cycle budget"), "{msg}");
        assert!(msg.contains("vertex computation"), "{msg}");
        assert!(msg.contains("42 cycles"), "{msg}");
    }

    #[test]
    fn config_builders_compose() {
        let c = WatchdogConfig::new()
            .with_max_cycles(5)
            .with_max_wall(Duration::from_secs(1))
            .with_max_stalled_iterations(3);
        assert_eq!(c.max_cycles, Some(5));
        assert_eq!(c.max_wall, Some(Duration::from_secs(1)));
        assert_eq!(c.max_stalled_iterations, Some(3));
        assert!(c.is_enabled());
        assert!(!WatchdogConfig::default().is_enabled());
    }
}
