//! A cycle-stepped reference model of the hardware chain generator.
//!
//! The paper's HCG (§V-B) is a 4-stage pipeline — *root setting*, *offsets
//! fetching*, *active-neighbors fetching*, *neighbor selection* — over a
//! 16-entry stack, emitting selected elements into the chain FIFO. The
//! `Driver` in `exec` charges the HCG through a calibrated cost model (one
//! pipeline action per cycle, one edge-array fetch per cacheline); this
//! module is the *reference* the calibration is validated against: an
//! explicit stage-by-stage interpreter with parametric memory latencies and
//! FIFO back-pressure, producing the exact schedule of
//! [`oag::generate_chains`] together with per-element emission times.

use crate::engine::Fifo;
use crate::guard::{Budget, ExecError, ExecProgress};
use hypergraph::Frontier;
use oag::{ChainSet, Oag};
use std::ops::Range;

/// Memory latencies (in engine cycles) seen by the HCG's stages. These are
/// effective latencies after the engine's decoupled overlap, not raw DRAM
/// latencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HcgLatencies {
    /// Reading one 64-element word of the active bitmap.
    pub bitmap_word: u64,
    /// Reading an `OAG_offset` entry pair.
    pub oag_offset: u64,
    /// Reading one cacheline (16 ids) of `OAG_edge`.
    pub oag_edge_line: u64,
}

impl Default for HcgLatencies {
    fn default() -> Self {
        // L2-hit-dominated steady state with deep decoupling.
        HcgLatencies { bitmap_word: 2, oag_offset: 4, oag_edge_line: 4 }
    }
}

/// Result of one HCG model run.
#[derive(Clone, Debug)]
pub struct HcgRun {
    /// The generated chains (identical to [`oag::generate_chains`]).
    pub chains: ChainSet,
    /// Engine cycle at which each schedule position was emitted into the
    /// chain FIFO (monotonically non-decreasing).
    pub emit_times: Vec<u64>,
    /// Total engine cycles.
    pub cycles: u64,
    /// Cycles spent stalled on a full chain FIFO.
    pub fifo_full_stall_cycles: u64,
    /// Peak chain-FIFO occupancy observed.
    pub fifo_peak: usize,
}

/// Configuration of the HCG model.
#[derive(Clone, Copy, Debug)]
pub struct HcgModel {
    /// Stack depth (= maximum chain length; paper: 16).
    pub stack_depth: usize,
    /// Chain FIFO capacity (paper: 32).
    pub fifo_capacity: usize,
    /// Stage memory latencies.
    pub latencies: HcgLatencies,
    /// Optional engine-cycle budget: [`HcgModel::try_run`] aborts with a
    /// typed [`ExecError::BudgetExceeded`] once the model clock passes it —
    /// the guard that turns a consumer deadlock (FIFO stalled forever) into
    /// a reportable failure. `None` (the default) never trips.
    pub cycle_budget: Option<u64>,
}

impl Default for HcgModel {
    fn default() -> Self {
        HcgModel {
            stack_depth: 16,
            fifo_capacity: 32,
            latencies: HcgLatencies::default(),
            cycle_budget: None,
        }
    }
}

impl HcgModel {
    /// Runs the model over one chunk (`range`) of `oag`, with the consumer
    /// (the CP) popping one chain-FIFO entry every `consumer_period` cycles
    /// starting from cycle 0. A very large period models a blocked consumer;
    /// period 0 models an always-ready one.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the OAG or the frontier universe is too
    /// small (same contract as [`oag::generate_chains`]), or if a
    /// configured [`HcgModel::cycle_budget`] is exhausted.
    pub fn run(
        &self,
        oag: &Oag,
        frontier: &Frontier,
        range: Range<u32>,
        consumer_period: u64,
    ) -> HcgRun {
        self.try_run(oag, frontier, range, consumer_period).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`HcgModel::run`], but converts an exhausted
    /// [`HcgModel::cycle_budget`] into a typed
    /// [`ExecError::BudgetExceeded`] whose progress snapshot counts the
    /// elements emitted before the stall.
    pub fn try_run(
        &self,
        oag: &Oag,
        frontier: &Frontier,
        range: Range<u32>,
        consumer_period: u64,
    ) -> Result<HcgRun, ExecError> {
        let chain_cfg = oag::ChainConfig::new(self.stack_depth);
        // The schedule itself is pure; the model adds timing around it.
        let chains = oag::generate_chains(oag, frontier, range.clone(), &chain_cfg);

        let mut fifo: Fifo<u32> = Fifo::new(self.fifo_capacity);
        let mut cycle: u64 = 0;
        let mut full_stalls: u64 = 0;
        let mut emit_times = Vec::with_capacity(chains.num_elements());
        let mut next_consume: u64 = consumer_period;
        let lat = self.latencies;

        // The root-setting stage scans the bitmap ahead of the walk; its
        // cost is charged per 64-element word, overlapped with selection
        // work by taking the max of the two clocks.
        let mut scanner_cycle: u64 = 0;
        let mut last_word: u64 = u64::MAX;

        let drain = |fifo: &mut Fifo<u32>, cycle: u64, next_consume: &mut u64| {
            while *next_consume <= cycle && !fifo.is_empty() {
                fifo.try_pop();
                *next_consume += consumer_period.max(1);
            }
        };
        let check_budget = |cycle: u64, emitted: usize| -> Result<(), ExecError> {
            match self.cycle_budget {
                Some(max) if cycle > max => Err(ExecError::BudgetExceeded {
                    phase: "hardware chain generation",
                    budget: Budget::Cycles,
                    progress: ExecProgress {
                        iterations: emitted,
                        cycles: cycle,
                        frontier_len: frontier.len(),
                    },
                }),
                _ => Ok(()),
            }
        };

        let mut visited = vec![false; (range.end - range.start) as usize];
        let vis = |e: u32| (e - range.start) as usize;
        for root in range.clone() {
            let word = root as u64 / 64;
            if word != last_word {
                scanner_cycle += 1 + lat.bitmap_word;
                last_word = word;
            }
            if visited[vis(root)] || !frontier.contains(root) {
                continue;
            }
            cycle = cycle.max(scanner_cycle);
            // Walk the chain rooted here, one pipeline step per element.
            let mut current = root;
            let mut depth = 0usize;
            loop {
                visited[vis(current)] = true;
                depth += 1;
                // Neighbor-selection stage: emit into the chain FIFO,
                // stalling while the consumer has not made space.
                cycle += 1;
                drain(&mut fifo, cycle, &mut next_consume);
                while !fifo.try_push(current) {
                    let stall = next_consume.saturating_sub(cycle).max(1);
                    cycle += stall;
                    full_stalls += stall;
                    check_budget(cycle, emit_times.len())?;
                    drain(&mut fifo, cycle, &mut next_consume);
                }
                emit_times.push(cycle);
                if depth >= self.stack_depth {
                    break;
                }
                // Offsets-fetching stage.
                cycle += 1 + lat.oag_offset;
                let (lo, hi) = oag.edge_range(current);
                // Active-neighbors fetching + selection: scan edge lines
                // until a valid successor appears.
                let mut next_elem = None;
                for (scanned, j) in (lo..hi).enumerate() {
                    if scanned.is_multiple_of(16) {
                        cycle += 1 + lat.oag_edge_line;
                    }
                    let cand = oag.edges()[j];
                    if (range.start..range.end).contains(&cand)
                        && !visited[vis(cand)]
                        && frontier.contains(cand)
                    {
                        next_elem = Some(cand);
                        break;
                    }
                }
                match next_elem {
                    Some(cand) => current = cand,
                    None => break,
                }
            }
            // Stack pop / NEWCHAIN boundary.
            cycle += 1;
            check_budget(cycle.max(scanner_cycle), emit_times.len())?;
        }
        debug_assert_eq!(emit_times.len(), chains.num_elements());
        Ok(HcgRun {
            fifo_peak: fifo.peak_occupancy,
            chains,
            emit_times,
            cycles: cycle.max(scanner_cycle),
            fifo_full_stall_cycles: full_stalls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::Side;
    use oag::OagConfig;

    fn oag_and_frontier() -> (Oag, Frontier, u32) {
        let g = hypergraph::generate::GeneratorConfig::new(2_000, 1_200)
            .with_seed(5)
            .with_family_range(6, 48)
            .generate();
        let n = g.num_hyperedges() as u32;
        (OagConfig::new().build(&g, Side::Hyperedge), Frontier::full(n as usize), n)
    }

    #[test]
    fn schedule_matches_pure_chain_generation() {
        let (oag, frontier, n) = oag_and_frontier();
        let model = HcgModel::default();
        let run = model.run(&oag, &frontier, 0..n, 0);
        let pure = oag::generate_chains(&oag, &frontier, 0..n, &oag::ChainConfig::new(16));
        assert_eq!(run.chains.schedule(), pure.schedule());
        assert_eq!(run.chains.num_chains(), pure.num_chains());
    }

    #[test]
    fn emit_times_are_monotone_and_bounded_by_total() {
        let (oag, frontier, n) = oag_and_frontier();
        let run = HcgModel::default().run(&oag, &frontier, 0..n, 0);
        assert!(run.emit_times.windows(2).all(|w| w[0] <= w[1]));
        assert!(run.emit_times.last().copied().unwrap_or(0) <= run.cycles);
        assert_eq!(run.emit_times.len(), n as usize);
    }

    #[test]
    fn slow_consumer_causes_back_pressure() {
        let (oag, frontier, n) = oag_and_frontier();
        let fast = HcgModel::default().run(&oag, &frontier, 0..n, 1);
        let slow = HcgModel::default().run(&oag, &frontier, 0..n, 200);
        assert_eq!(fast.fifo_full_stall_cycles, 0, "a fast consumer never backs up");
        assert!(slow.fifo_full_stall_cycles > 0, "a slow consumer must back-pressure the HCG");
        assert!(slow.cycles > fast.cycles);
        assert_eq!(slow.chains.schedule(), fast.chains.schedule(), "timing never changes order");
        assert!(slow.fifo_peak <= 32);
    }

    #[test]
    fn per_element_cost_matches_calibrated_model_to_first_order() {
        // The Driver charges ~1 cycle per pipeline action plus one edge
        // fetch per cacheline; the reference model must land in the same
        // regime (a few cycles per emitted element for default latencies).
        let (oag, frontier, n) = oag_and_frontier();
        let run = HcgModel::default().run(&oag, &frontier, 0..n, 0);
        let per_element = run.cycles as f64 / n as f64;
        assert!(
            (2.0..40.0).contains(&per_element),
            "per-element HCG cost {per_element:.1} cycles is out of the calibrated regime"
        );
    }

    #[test]
    fn cycle_budget_converts_slow_runs_into_typed_errors() {
        let (oag, frontier, n) = oag_and_frontier();
        let unbounded = HcgModel::default().run(&oag, &frontier, 0..n, 200);
        // A budget below the known total must trip, with partial progress.
        let mut model = HcgModel { cycle_budget: Some(unbounded.cycles / 2), ..Default::default() };
        let err = model.try_run(&oag, &frontier, 0..n, 200).unwrap_err();
        match err {
            crate::guard::ExecError::BudgetExceeded {
                phase: "hardware chain generation",
                budget: crate::guard::Budget::Cycles,
                progress,
            } => {
                assert!(progress.cycles > unbounded.cycles / 2);
                assert!(progress.iterations < n as usize, "must have stopped early");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // A budget above the total must not trip.
        model.cycle_budget = Some(unbounded.cycles + 1);
        assert!(model.try_run(&oag, &frontier, 0..n, 200).is_ok());
    }

    #[test]
    fn sparse_frontier_costs_are_dominated_by_the_scanner() {
        let (oag, _, n) = oag_and_frontier();
        let sparse = Frontier::from_iter(n as usize, (0..n).filter(|x| x % 97 == 0));
        let run = HcgModel::default().run(&oag, &sparse, 0..n, 0);
        assert_eq!(run.chains.num_elements(), sparse.len());
        // The scanner must walk every bitmap word even when almost nothing
        // is active.
        let min_scan = (n as u64 / 64) * (1 + HcgLatencies::default().bitmap_word);
        assert!(run.cycles >= min_scan);
    }
}
