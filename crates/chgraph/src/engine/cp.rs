//! A cycle-stepped reference model of the chain-driven prefetcher.
//!
//! The paper's CP (§V-B) is a 4-stage pipeline — *element acquisition*,
//! *offsets fetching*, *neighbors fetching*, *values fetching* — that pops
//! elements from the chain FIFO, walks their bipartite edges, and packs
//! `{src, dst, src_value, dst_value}` tuples into the 32-entry
//! bipartite-edge FIFO the core drains with `CH_FETCH_BIPARTITE_EDGE`.
//! As with [`HcgModel`](crate::engine::HcgModel), the execution `Driver`
//! charges the CP through a calibrated cost model; this module is the
//! explicit reference with parametric latencies and both-sided FIFO
//! coupling.

use crate::engine::Fifo;
use crate::guard::{Budget, ExecError, ExecProgress};
use hypergraph::{Hypergraph, Side};

/// Memory latencies (in engine cycles) seen by the CP's stages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpLatencies {
    /// Reading a bipartite offset pair.
    pub offset: u64,
    /// Reading one cacheline (16 ids) of the incident array.
    pub incident_line: u64,
    /// Reading one destination value (the random access chains optimize).
    pub value: u64,
}

impl Default for CpLatencies {
    fn default() -> Self {
        CpLatencies { offset: 4, incident_line: 4, value: 8 }
    }
}

/// A tuple delivered through the bipartite-edge FIFO.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tuple {
    /// Source element (chain element).
    pub src: u32,
    /// Destination element (incident opposite-side element).
    pub dst: u32,
    /// Engine cycle the tuple became available to the core.
    pub ready_at: u64,
}

/// Result of one CP model run.
#[derive(Clone, Debug)]
pub struct CpRun {
    /// Tuples in delivery order.
    pub tuples: Vec<Tuple>,
    /// Total engine cycles.
    pub cycles: u64,
    /// Cycles stalled waiting for the chain FIFO (HCG too slow).
    pub chain_fifo_empty_stalls: u64,
    /// Cycles stalled on a full bipartite-edge FIFO (core too slow).
    pub edge_fifo_full_stalls: u64,
}

/// Configuration of the CP model.
#[derive(Clone, Copy, Debug)]
pub struct CpModel {
    /// Bipartite-edge FIFO capacity (paper: 32).
    pub fifo_capacity: usize,
    /// Stage latencies.
    pub latencies: CpLatencies,
    /// Optional engine-cycle budget: [`CpModel::try_run`] aborts with a
    /// typed [`ExecError::BudgetExceeded`] once the model clock passes it.
    /// `None` (the default) never trips.
    pub cycle_budget: Option<u64>,
}

impl Default for CpModel {
    fn default() -> Self {
        CpModel { fifo_capacity: 32, latencies: CpLatencies::default(), cycle_budget: None }
    }
}

impl CpModel {
    /// Runs the CP over a chain schedule. `emit_times[i]` is the engine
    /// cycle at which schedule position `i` entered the chain FIFO (from an
    /// [`HcgRun`](crate::engine::HcgRun)); `core_period` is the cycles the
    /// core needs per tuple (its `Apply` cost).
    ///
    /// # Panics
    ///
    /// Panics if `emit_times.len() != schedule.len()`, or if a configured
    /// [`CpModel::cycle_budget`] is exhausted.
    pub fn run(
        &self,
        g: &Hypergraph,
        side: Side,
        schedule: &[u32],
        emit_times: &[u64],
        core_period: u64,
    ) -> CpRun {
        self.try_run(g, side, schedule, emit_times, core_period).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`CpModel::run`], but converts an exhausted
    /// [`CpModel::cycle_budget`] into a typed
    /// [`ExecError::BudgetExceeded`] whose progress snapshot counts the
    /// tuples delivered before the stall.
    ///
    /// # Panics
    ///
    /// Panics if `emit_times.len() != schedule.len()`.
    pub fn try_run(
        &self,
        g: &Hypergraph,
        side: Side,
        schedule: &[u32],
        emit_times: &[u64],
        core_period: u64,
    ) -> Result<CpRun, ExecError> {
        assert_eq!(schedule.len(), emit_times.len(), "one emit time per scheduled element");
        let lat = self.latencies;
        let mut fifo: Fifo<()> = Fifo::new(self.fifo_capacity);
        // One tuple per bipartite edge of the schedule: size the delivery
        // buffer once instead of growing it in doublings mid-run.
        let total_edges: usize = schedule.iter().map(|&e| g.incidence(side, e).len()).sum();
        let mut tuples = Vec::with_capacity(total_edges);
        let mut cycle: u64 = 0;
        let mut empty_stalls: u64 = 0;
        let mut full_stalls: u64 = 0;
        // The core drains one tuple every `core_period` cycles once data
        // exists.
        let mut next_core_pop: u64 = 0;
        let drain = |fifo: &mut Fifo<()>, cycle: u64, next_core_pop: &mut u64| {
            while *next_core_pop <= cycle && !fifo.is_empty() {
                fifo.try_pop();
                *next_core_pop += core_period.max(1);
            }
        };
        let check_budget =
            |cycle: u64, delivered: usize, pending: usize| -> Result<(), ExecError> {
                match self.cycle_budget {
                    Some(max) if cycle > max => Err(ExecError::BudgetExceeded {
                        phase: "chain-driven prefetch",
                        budget: Budget::Cycles,
                        progress: ExecProgress {
                            iterations: delivered,
                            cycles: cycle,
                            frontier_len: pending,
                        },
                    }),
                    _ => Ok(()),
                }
            };

        for (&e, &emitted) in schedule.iter().zip(emit_times) {
            // Element acquisition: wait for the HCG's emission.
            if emitted > cycle {
                empty_stalls += emitted - cycle;
                cycle = emitted;
            }
            cycle += 1; // pop from the chain FIFO
            cycle += 1 + lat.offset; // offsets fetching
            let incidence = g.incidence(side, e);
            for (k, &d) in incidence.iter().enumerate() {
                if k % 16 == 0 {
                    cycle += 1 + lat.incident_line; // neighbors fetching
                }
                cycle += 1 + lat.value; // values fetching + tuple packing
                drain(&mut fifo, cycle, &mut next_core_pop);
                while !fifo.try_push(()) {
                    let stall = next_core_pop.saturating_sub(cycle).max(1);
                    cycle += stall;
                    full_stalls += stall;
                    check_budget(cycle, tuples.len(), fifo.len())?;
                    drain(&mut fifo, cycle, &mut next_core_pop);
                }
                next_core_pop = next_core_pop.max(cycle);
                tuples.push(Tuple { src: e, dst: d, ready_at: cycle });
            }
            check_budget(cycle, tuples.len(), fifo.len())?;
        }
        Ok(CpRun {
            tuples,
            cycles: cycle,
            chain_fifo_empty_stalls: empty_stalls,
            edge_fifo_full_stalls: full_stalls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{HcgModel, HcgRun};
    use hypergraph::Frontier;
    use oag::OagConfig;

    fn setup() -> (Hypergraph, HcgRun) {
        let g = hypergraph::generate::GeneratorConfig::new(1_500, 900)
            .with_seed(8)
            .with_family_range(6, 48)
            .generate();
        let oag = OagConfig::new().build(&g, Side::Hyperedge);
        let frontier = Frontier::full(g.num_hyperedges());
        let run = HcgModel::default().run(&oag, &frontier, 0..g.num_hyperedges() as u32, 0);
        (g, run)
    }

    #[test]
    fn delivers_every_bipartite_edge_exactly_once() {
        let (g, hcg) = setup();
        let cp =
            CpModel::default().run(&g, Side::Hyperedge, hcg.chains.schedule(), &hcg.emit_times, 1);
        assert_eq!(cp.tuples.len(), g.num_bipartite_edges());
        // Each (src, dst) pair appears exactly as often as in the CSR:
        // dense delivery counts indexed by (src, dst), no hashing.
        let stride = g.num_vertices();
        let mut seen = vec![0u32; g.num_hyperedges() * stride];
        for t in &cp.tuples {
            seen[t.src as usize * stride + t.dst as usize] += 1;
        }
        for h in 0..g.num_hyperedges() as u32 {
            for &v in g.incidence(Side::Hyperedge, h) {
                assert_eq!(seen[h as usize * stride + v as usize], 1, "({h},{v})");
            }
        }
    }

    #[test]
    fn tuple_times_are_monotone() {
        let (g, hcg) = setup();
        let cp =
            CpModel::default().run(&g, Side::Hyperedge, hcg.chains.schedule(), &hcg.emit_times, 1);
        assert!(cp.tuples.windows(2).all(|w| w[0].ready_at <= w[1].ready_at));
        assert!(cp.cycles >= cp.tuples.last().unwrap().ready_at);
    }

    #[test]
    fn slow_core_back_pressures_the_cp() {
        let (g, hcg) = setup();
        let fast =
            CpModel::default().run(&g, Side::Hyperedge, hcg.chains.schedule(), &hcg.emit_times, 1);
        let slow = CpModel::default().run(
            &g,
            Side::Hyperedge,
            hcg.chains.schedule(),
            &hcg.emit_times,
            500,
        );
        assert!(slow.edge_fifo_full_stalls > fast.edge_fifo_full_stalls);
        assert!(slow.cycles > fast.cycles);
        assert_eq!(slow.tuples.len(), fast.tuples.len());
    }

    #[test]
    fn starved_cp_reports_empty_stalls() {
        let (g, hcg) = setup();
        // Pretend the HCG were pathologically slow: inflate emission times.
        let late: Vec<u64> = hcg.emit_times.iter().map(|t| t * 1_000).collect();
        let cp = CpModel::default().run(&g, Side::Hyperedge, hcg.chains.schedule(), &late, 1);
        assert!(cp.chain_fifo_empty_stalls > 0);
    }

    #[test]
    fn cycle_budget_converts_slow_runs_into_typed_errors() {
        let (g, hcg) = setup();
        let unbounded = CpModel::default().run(
            &g,
            Side::Hyperedge,
            hcg.chains.schedule(),
            &hcg.emit_times,
            500,
        );
        let mut model = CpModel { cycle_budget: Some(unbounded.cycles / 2), ..Default::default() };
        let err = model
            .try_run(&g, Side::Hyperedge, hcg.chains.schedule(), &hcg.emit_times, 500)
            .unwrap_err();
        match err {
            crate::guard::ExecError::BudgetExceeded {
                phase: "chain-driven prefetch",
                budget: crate::guard::Budget::Cycles,
                progress,
            } => {
                assert!(progress.iterations < unbounded.tuples.len(), "must have stopped early");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        model.cycle_budget = Some(unbounded.cycles + 1);
        assert!(model
            .try_run(&g, Side::Hyperedge, hcg.chains.schedule(), &hcg.emit_times, 500)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "one emit time per scheduled element")]
    fn mismatched_inputs_are_rejected() {
        let (g, hcg) = setup();
        let _ = CpModel::default().run(&g, Side::Hyperedge, hcg.chains.schedule(), &[0, 1], 1);
    }
}
