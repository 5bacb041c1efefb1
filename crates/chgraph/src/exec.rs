//! The shared execution driver.
//!
//! All runtimes (Hygra, software GLA, HCG-only, full ChGraph, HATS-V, the
//! prefetcher baseline) execute the same iterative procedure — Algorithm 1
//! of the paper — and differ only in *how the schedule of active elements is
//! produced* and *which component (core or engine) performs each memory
//! access*. [`Driver`] implements the procedure once, parameterized by
//! the [`System`], so every comparison in the evaluation holds everything else
//! equal, exactly as the paper's simulated testbed does.
//!
//! Timing model: each general-purpose core owns a [`CoreTimer`]; ChGraph's
//! per-core engine owns two more (HCG and CP). Within a phase, cores process
//! their chunks element-by-element, interleaved round-robin so the shared
//! L3/NoC/DRAM observe realistic interference. Decoupling is modelled with
//! completion-time synchronization: the CP cannot start an element before
//! the HCG emitted it (chain FIFO), the core cannot apply a tuple before the
//! CP fetched it (bipartite-edge FIFO), and the CP cannot run more than the
//! FIFO capacity ahead of the core (back-pressure). Phases end with a
//! barrier across all timers.

use crate::guard::{ExecError, ExecProgress, Watchdog};
use crate::layout::{bitmap_word, layout_for};
use crate::{Algorithm, EngineReport, RunConfig, State, System};
use archsim::{AccessKind, CoreTimer, Level, Machine, Region};
use hypergraph::chunk::{partition, Chunk};
use hypergraph::{Frontier, Hypergraph, Side};
use oag::{generate_chains_observed_with_scratch, ChainObserver, ChainScratch, Oag};

/// One core's bipartite-edge FIFO back-pressure within a phase: the core's
/// completion times of its last `fifo_capacity` tuples. The driver only
/// asks when the core finished the tuple `fifo_capacity` tuples ago, so a
/// fixed array with a wrapping cursor answers it exactly.
struct TupleRing {
    slots: Vec<u64>,
    /// Next slot to write; once the ring is full, also the oldest entry.
    next: usize,
    full: bool,
}

impl TupleRing {
    /// An empty ring of `capacity` slots. [`Driver::try_new`] rejects a
    /// zero capacity for the modes that use the ring.
    fn new(capacity: usize) -> Self {
        TupleRing { slots: vec![0; capacity], next: 0, full: false }
    }

    /// The completion time pushed `capacity` pushes ago, once there is one.
    #[inline]
    fn oldest(&self) -> Option<u64> {
        self.full.then(|| self.slots[self.next])
    }

    /// Records the core's completion time of its latest tuple, replacing
    /// the oldest entry once the ring is full.
    #[inline]
    fn push(&mut self, done_at: u64) {
        self.slots[self.next] = done_at;
        self.next += 1;
        if self.next == self.slots.len() {
            self.next = 0;
            self.full = true;
        }
    }
}

/// Cycle costs of schedule-generation micro-ops.
mod cost {
    /// Core cycles per software chain-gen candidate test (branch + mask).
    pub const SW_SCAN: u64 = 2;
    /// Core cycles per software edge examination (load-compare-branch).
    pub const SW_EDGE: u64 = 3;
    /// Core cycles per software chain emit (queue append, stack ops).
    pub const SW_EMIT: u64 = 10;
    /// Engine cycles per HCG pipeline action (one stage per cycle).
    pub const HW_OP: u64 = 1;
    /// OAG edge ids examined per hardware edge-fetch (one 64-B line of
    /// `u32` ids).
    pub const IDS_PER_LINE: u64 = 16;
}

/// Run-ahead distance, in elements, of the event-driven prefetcher
/// baseline (§VI-H).
const PREFETCH_DISTANCE: usize = 8;
/// Percentage (0–100) of the prefetcher baseline's value prefetches that
/// fetch a useless line ("noisy data", §II-C).
const PREFETCH_NOISE_PCT: u64 = 20;
/// Chain-driven runtimes fall back to index order for phases whose
/// frontier is smaller than `universe / SPARSE_CHAIN_DIVISOR`: with few
/// active elements, overlap partners are almost surely inactive, so the
/// OAG walk costs traffic it cannot repay. The element count is known from
/// the previous phase's activation counter, so hardware can make the same
/// decision.
const SPARSE_CHAIN_DIVISOR: usize = 12;

#[inline]
fn core_read(m: &mut Machine, t: &mut CoreTimer, core: usize, r: Region, i: u64) {
    let a = m.access(core, r, i, AccessKind::Read, Level::L1, t.now());
    t.charge(a);
}

#[inline]
fn core_read_dep(m: &mut Machine, t: &mut CoreTimer, core: usize, r: Region, i: u64) {
    let a = m.access(core, r, i, AccessKind::Read, Level::L1, t.now());
    t.charge_dependent(a);
}

#[inline]
fn core_write(m: &mut Machine, t: &mut CoreTimer, core: usize, r: Region, i: u64) {
    let a = m.access(core, r, i, AccessKind::Write, Level::L1, t.now());
    t.charge(a);
}

#[inline]
fn engine_read(m: &mut Machine, t: &mut CoreTimer, core: usize, r: Region, i: u64) {
    let a = m.access(core, r, i, AccessKind::Read, Level::L2, t.now());
    t.charge(a);
}

/// One HCG pipeline action that reads: a pipeline stage, then the L2 read.
#[inline]
fn hw_read(m: &mut Machine, t: &mut CoreTimer, core: usize, r: Region, i: u64) {
    t.compute(cost::HW_OP);
    engine_read(m, t, core, r, i);
}

/// One HCG emit: a pipeline stage, then the L2 write that marks the emitted
/// element inactive in the bitmap word `w` (paper §V-B).
#[inline]
fn hw_emit(m: &mut Machine, t: &mut CoreTimer, core: usize, w: u64) {
    t.compute(cost::HW_OP);
    let a = m.access(core, Region::Bitmap, w, AccessKind::Write, Level::L2, t.now());
    t.charge(a);
}

/// Regions of one computation phase, keyed by the source side `src`.
#[derive(Clone, Copy, Debug)]
struct PhaseRegions {
    src: Side,
    src_offset: Region,
    src_incident: Region,
    src_value: Region,
    dst_value: Region,
    oag_offset: Region,
    oag_edge: Region,
}

fn phase_regions(src: Side) -> PhaseRegions {
    match src {
        Side::Vertex => PhaseRegions {
            src,
            src_offset: Region::VertexOffset,
            src_incident: Region::IncidentHyperedge,
            src_value: Region::VertexValue,
            dst_value: Region::HyperedgeValue,
            oag_offset: Region::VOagOffset,
            oag_edge: Region::VOagEdge,
        },
        Side::Hyperedge => PhaseRegions {
            src,
            src_offset: Region::HyperedgeOffset,
            src_incident: Region::IncidentVertex,
            src_value: Region::HyperedgeValue,
            dst_value: Region::VertexValue,
            oag_offset: Region::HOagOffset,
            oag_edge: Region::HOagEdge,
        },
    }
}

/// One core's schedule for a phase, plus (for hardware generation) the
/// engine-time at which each element was emitted into the chain FIFO.
#[derive(Clone, Debug, Default)]
struct CoreSchedule {
    elements: Vec<u32>,
    emit_time: Vec<u64>,
    chains: u64,
}

/// Everything produced by one [`Driver::try_run`] call, before
/// [`System::run`] adds preprocessing accounting.
pub(crate) struct DriverOutput {
    pub state: State,
    pub iterations: usize,
    pub cycles: u64,
    pub core_busy_cycles: u64,
    pub mem_stall_cycles: u64,
    pub mem: archsim::MemStats,
    pub engine: EngineReport,
}

pub(crate) struct Driver<'a> {
    g: &'a Hypergraph,
    algo: &'a dyn Algorithm,
    cfg: &'a RunConfig,
    system: System,
    h_oag: Option<&'a Oag>,
    v_oag: Option<&'a Oag>,
    machine: Machine,
    cores: Vec<CoreTimer>,
    hcg: Vec<CoreTimer>,
    cp: Vec<CoreTimer>,
    chunks_v: Vec<Chunk>,
    chunks_h: Vec<Chunk>,
    state: State,
    /// The vertex frontier `algo.init` returned with `state`, taken by
    /// [`Driver::try_run`].
    initial_frontier: Frontier,
    /// Cached schedules for all-active algorithms: `[vertex, hyperedge]`.
    schedule_cache: [Option<Vec<CoreSchedule>>; 2],
    engine: EngineReport,
    total_cycles: u64,
    core_busy: u64,
    watchdog: Watchdog,
    /// Iterations completed so far (for watchdog progress snapshots).
    iterations_done: usize,
    /// Reused visited-set scratch for chain generation: epoch-tagged, so
    /// per-iteration clearing is a counter bump instead of an O(chunk)
    /// allocation per core per phase.
    chain_scratch: ChainScratch,
}

impl<'a> Driver<'a> {
    pub(crate) fn try_new(
        g: &'a Hypergraph,
        algo: &'a dyn Algorithm,
        cfg: &'a RunConfig,
        system: System,
        h_oag: Option<&'a Oag>,
        v_oag: Option<&'a Oag>,
    ) -> Result<Self, ExecError> {
        let decoupled = matches!(system, System::ChGraph | System::HatsV);
        if decoupled && cfg.fifo_capacity == 0 {
            return Err(ExecError::InvalidConfig(
                "fifo_capacity must be at least 1 for a decoupled engine".to_string(),
            ));
        }
        let n = cfg.system.num_cores;
        let map = layout_for(g, h_oag, v_oag, cfg.system.line_bytes);
        let machine = Machine::try_new(cfg.system, map)
            .map_err(|e| ExecError::InvalidConfig(e.to_string()))?;
        let core_mlp = cfg.system.mlp;
        let (state, initial_frontier) = algo.init(g);
        Ok(Driver {
            g,
            algo,
            cfg,
            system,
            h_oag,
            v_oag,
            machine,
            cores: vec![CoreTimer::new(core_mlp); n],
            hcg: vec![CoreTimer::new(cfg.engine_mlp); n],
            cp: vec![CoreTimer::new(cfg.engine_mlp); n],
            chunks_v: partition(g, Side::Vertex, n),
            chunks_h: partition(g, Side::Hyperedge, n),
            state,
            initial_frontier,
            schedule_cache: [None, None],
            engine: EngineReport::default(),
            total_cycles: 0,
            core_busy: 0,
            watchdog: Watchdog::new(cfg.watchdog),
            iterations_done: 0,
            chain_scratch: ChainScratch::new(),
        })
    }

    fn oag_for(&self, src: Side) -> Option<&'a Oag> {
        match src {
            Side::Vertex => self.v_oag,
            Side::Hyperedge => self.h_oag,
        }
    }

    fn chunks_for(&self, src: Side) -> &[Chunk] {
        match src {
            Side::Vertex => &self.chunks_v,
            Side::Hyperedge => &self.chunks_h,
        }
    }

    /// Validates the execution inputs — the hypergraph's bipartite CSRs and
    /// any OAG the system will walk — before the first simulated cycle.
    fn validate_inputs(&self) -> Result<(), ExecError> {
        self.g.validate()?;
        for oag in [self.h_oag, self.v_oag].into_iter().flatten() {
            oag.validate()?;
        }
        Ok(())
    }

    /// Runs the full iterative procedure. Returns a typed [`ExecError`]
    /// when a watchdog budget is exhausted (carrying partial statistics) or
    /// when deep validation (`cfg.validate`) rejects an input structure or
    /// a generated chain schedule.
    pub(crate) fn try_run(mut self) -> Result<DriverOutput, ExecError> {
        if self.cfg.validate {
            self.validate_inputs()?;
        }
        let max_iter = self.cfg.max_iterations.unwrap_or_else(|| self.algo.max_iterations());
        let all_active = self.algo.all_active();
        let mut frontier_v = if all_active {
            Frontier::full(self.g.num_vertices())
        } else {
            std::mem::replace(&mut self.initial_frontier, Frontier::empty(0))
        };
        let mut iterations = 0usize;
        while iterations < max_iter && !frontier_v.is_empty() {
            self.algo.begin_iteration(self.g, &mut self.state, iterations);
            let frontier_e = self.run_phase(Side::Vertex, &frontier_v)?;
            let frontier_e =
                if all_active { Frontier::full(self.g.num_hyperedges()) } else { frontier_e };
            let mut fv = if frontier_e.is_empty() {
                Frontier::empty(self.g.num_vertices())
            } else {
                self.algo.begin_vertex_phase(self.g, &mut self.state, iterations);
                self.run_phase(Side::Hyperedge, &frontier_e)?
            };
            // end_iteration runs even when the hyperedge frontier was empty:
            // multi-round algorithms (e.g. core decomposition) reseed here.
            self.algo.end_iteration(self.g, &mut self.state, &mut fv, iterations);
            frontier_v = if all_active { Frontier::full(self.g.num_vertices()) } else { fv };
            iterations += 1;
            self.iterations_done = iterations;
            self.watchdog.observe_iteration(
                "iteration",
                ExecProgress {
                    iterations,
                    cycles: self.total_cycles,
                    frontier_len: frontier_v.len(),
                },
            )?;
        }
        let mem_stall = self.cores.iter().map(CoreTimer::mem_stall_cycles).sum();
        Ok(DriverOutput {
            state: self.state,
            iterations,
            cycles: self.total_cycles,
            core_busy_cycles: self.core_busy,
            mem_stall_cycles: mem_stall,
            mem: self.machine.stats().clone(),
            engine: self.engine,
        })
    }

    /// Executes one computation phase (hyperedge computation when
    /// `src == Vertex`, vertex computation when `src == Hyperedge`),
    /// returning the next frontier of the destination side.
    fn run_phase(&mut self, src: Side, frontier: &Frontier) -> Result<Frontier, ExecError> {
        let phase = match src {
            Side::Vertex => "hyperedge computation",
            Side::Hyperedge => "vertex computation",
        };
        let phase_start = self.cores[0].now();
        let n_cores = self.cfg.system.num_cores;
        let num_dst = self.g.num_on(src.opposite());
        let mut next = Frontier::empty(num_dst);

        let hcg_start: Vec<u64> = self.hcg.iter().map(CoreTimer::now).collect();
        let cp_start: Vec<u64> = self.cp.iter().map(CoreTimer::now).collect();
        let schedules = self.make_schedules(src, frontier, phase)?;

        // Ring buffers implementing the bipartite-edge FIFO back-pressure.
        let mut tuple_ring: Vec<TupleRing> =
            (0..n_cores).map(|_| TupleRing::new(self.cfg.fifo_capacity)).collect();
        let prefetch_mode = self.system == System::Prefetcher;
        if prefetch_mode {
            // Warm-up: prefetch the first `distance` elements of each core.
            for (core, schedule) in schedules.iter().enumerate().take(n_cores) {
                let n = PREFETCH_DISTANCE.min(schedule.elements.len());
                for pos in 0..n {
                    let elem = schedule.elements[pos];
                    self.prefetch_element(core, src, elem, pos);
                }
            }
        }

        let mut pos = vec![0usize; n_cores];
        loop {
            let mut progressed = false;
            for core in 0..n_cores {
                let sched = &schedules[core];
                if pos[core] >= sched.elements.len() {
                    continue;
                }
                progressed = true;
                let p = pos[core];
                let e = sched.elements[p];
                pos[core] += 1;

                if prefetch_mode {
                    // Prefetch `distance` elements ahead of the core. Late
                    // prefetches do not stall the core — its demand loads
                    // simply find fewer lines already staged in the L2.
                    let target = p + PREFETCH_DISTANCE;
                    if target < sched.elements.len() {
                        self.prefetch_element(core, src, sched.elements[target], target);
                    }
                }

                match self.system {
                    System::Hygra | System::Prefetcher => {
                        self.process_element_core(core, src, e, &mut next);
                    }
                    System::Gla => {
                        // Software chain order: one schedule-queue
                        // indirection per element before processing it.
                        {
                            let m = &mut self.machine;
                            let t = &mut self.cores[core];
                            t.compute(cost::SW_SCAN);
                            core_read(m, t, core, Region::Other, p as u64);
                        }
                        self.process_element_core(core, src, e, &mut next);
                    }
                    System::HcgOnly => {
                        // The core consumes elements from the chain FIFO.
                        let emitted = sched.emit_time.get(p).copied().unwrap_or(0);
                        self.cores[core].sync_to(emitted);
                        self.process_element_core(core, src, e, &mut next);
                    }
                    System::ChGraph | System::HatsV => {
                        // HATS, like ChGraph, is a decoupled engine: the
                        // traversal scheduler delivers data to the core; its
                        // handicap is the redundant two-hop generation.
                        let emitted = sched.emit_time.get(p).copied().unwrap_or(0);
                        self.process_element_decoupled(
                            core,
                            src,
                            e,
                            emitted,
                            &mut next,
                            &mut tuple_ring[core],
                        );
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        // Engine busy accounting.
        for core in 0..n_cores {
            self.engine.hcg_cycles += self.hcg[core].now().saturating_sub(hcg_start[core]);
            self.engine.cp_cycles += self.cp[core].now().saturating_sub(cp_start[core]);
            self.engine.chains_generated += schedules[core].chains;
        }

        // Phase barrier: every timer advances to the slowest component.
        let mut max_now = phase_start;
        for t in self.cores.iter().chain(&self.hcg).chain(&self.cp) {
            max_now = max_now.max(t.now());
        }
        for core in 0..n_cores {
            self.core_busy += self.cores[core].now().saturating_sub(phase_start);
            self.cores[core].sync_to(max_now);
            self.hcg[core].sync_to(max_now);
            self.cp[core].sync_to(max_now);
        }
        self.total_cycles += max_now - phase_start;
        self.watchdog.check_cycles(
            phase,
            ExecProgress {
                iterations: self.iterations_done,
                cycles: self.total_cycles,
                frontier_len: frontier.len(),
            },
        )?;
        Ok(next)
    }

    /// Core-side processing of one element: read offsets, stream the
    /// incidence list, read each destination value, apply, write back.
    ///
    /// Under chain order (software GLA / HCG-only) the element id comes
    /// from an indirection, so the leading offset fetch is serially
    /// dependent — the OOO core cannot overlap it the way it overlaps an
    /// index-ordered stream.
    fn process_element_core(&mut self, core: usize, src: Side, e: u32, next: &mut Frontier) {
        let pr = phase_regions(src);
        let indirect = matches!(self.system, System::Gla | System::HcgOnly);
        let (lo, hi) = self.g.csr_for(src).target_range(e as usize);
        let m = &mut self.machine;
        let t = &mut self.cores[core];
        if indirect {
            core_read_dep(m, t, core, pr.src_offset, e as u64);
        } else {
            core_read(m, t, core, pr.src_offset, e as u64);
        }
        core_read(m, t, core, pr.src_offset, e as u64 + 1);
        core_read(m, t, core, pr.src_value, e as u64);
        let compute = match src {
            Side::Vertex => self.algo.hf_compute_cycles(),
            Side::Hyperedge => self.algo.vf_compute_cycles(),
        };
        let targets = &self.g.csr_for(src).targets()[lo..hi];
        let all_active = self.algo.all_active();
        for (j, &d) in (lo..).zip(targets) {
            let m = &mut self.machine;
            let t = &mut self.cores[core];
            core_read(m, t, core, pr.src_incident, j as u64);
            core_read(m, t, core, pr.dst_value, d as u64);
            t.compute(compute);
            self.apply(core, pr, all_active, e, d, next);
        }
    }

    /// Decoupled processing (full ChGraph): the CP fetches the element's
    /// tuple data through the L2; the core pops tuples from the
    /// bipartite-edge FIFO and applies updates.
    fn process_element_decoupled(
        &mut self,
        core: usize,
        src: Side,
        e: u32,
        emitted_at: u64,
        next: &mut Frontier,
        ring: &mut TupleRing,
    ) {
        let pr = phase_regions(src);
        let (lo, hi) = self.g.csr_for(src).target_range(e as usize);
        // CP waits for the HCG to emit the element into the chain FIFO.
        let stall = emitted_at.saturating_sub(self.cp[core].now());
        self.engine.fifo_empty_stalls += stall;
        self.cp[core].sync_to(emitted_at);
        {
            let m = &mut self.machine;
            let t = &mut self.cp[core];
            t.compute(cost::HW_OP); // element acquisition stage
            engine_read(m, t, core, pr.src_offset, e as u64);
            engine_read(m, t, core, pr.src_offset, e as u64 + 1);
            engine_read(m, t, core, pr.src_value, e as u64);
        }
        let compute = match src {
            Side::Vertex => self.algo.hf_compute_cycles(),
            Side::Hyperedge => self.algo.vf_compute_cycles(),
        };
        let targets = &self.g.csr_for(src).targets()[lo..hi];
        let all_active = self.algo.all_active();
        for (j, &d) in (lo..).zip(targets) {
            // FIFO back-pressure: the CP may run at most `fifo_capacity`
            // tuples ahead of the core.
            if let Some(must_wait) = ring.oldest() {
                let stall = must_wait.saturating_sub(self.cp[core].now());
                self.engine.fifo_full_stalls += stall;
                self.cp[core].sync_to(must_wait);
            }
            {
                let m = &mut self.machine;
                let t = &mut self.cp[core];
                engine_read(m, t, core, pr.src_incident, j as u64);
                engine_read(m, t, core, pr.dst_value, d as u64);
                t.compute(cost::HW_OP); // tuple packing
            }
            let tuple_ready = self.cp[core].now();
            self.engine.tuples_delivered += 1;
            // The core pops the tuple (CH_FETCH_BIPARTITE_EDGE).
            self.cores[core].sync_to(tuple_ready);
            self.cores[core].compute(compute + 1);
            self.apply(core, pr, all_active, e, d, next);
            ring.push(self.cores[core].now());
        }
    }

    /// The event-driven prefetcher baseline's engine work for one upcoming
    /// element: fetch its offsets, incidence list and destination values
    /// into the L2, plus a fixed fraction of useless ("noisy") fetches.
    fn prefetch_element(&mut self, core: usize, src: Side, e: u32, seq: usize) {
        // (timing note: the engine clock trails the core clock, modelling an
        // event-triggered prefetcher that reacts to core progress.)
        let pr = phase_regions(src);
        let (lo, hi) = self.g.csr_for(src).target_range(e as usize);
        // The prefetcher reacts to core progress: it cannot start before the
        // core has reached the triggering element.
        let issue = self.cores[core].now();
        self.cp[core].sync_to(issue);
        let num_dst = self.g.num_on(src.opposite()) as u64;
        let m = &mut self.machine;
        let t = &mut self.cp[core];
        engine_read(m, t, core, pr.src_offset, e as u64);
        engine_read(m, t, core, pr.src_value, e as u64);
        for j in lo..hi {
            let d = self.g.csr_for(src).targets()[j];
            engine_read(m, t, core, pr.src_incident, j as u64);
            engine_read(m, t, core, pr.dst_value, d as u64);
            // Deterministic pseudo-random noise: some prefetches are wrong.
            let h = (seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(j as u64);
            if (h % 100) < PREFETCH_NOISE_PCT {
                engine_read(m, t, core, pr.dst_value, h % num_dst);
            }
        }
    }

    /// Applies `HF` or `VF` for the bipartite edge `(e, d)` on `core`, then
    /// stores what it changed: the destination value, and on the first
    /// activation of `d` its next-frontier bit (test-and-set). Forced
    /// inline into both per-tuple loops: outlined, it slowed a BFS/ChGraph
    /// run on LJ@0.05 by ~5% (release build, 2-vCPU x86-64 VM).
    #[inline(always)]
    fn apply(
        &mut self,
        core: usize,
        pr: PhaseRegions,
        all_active: bool,
        e: u32,
        d: u32,
        next: &mut Frontier,
    ) {
        let outcome = match pr.src {
            Side::Vertex => self.algo.apply_hf(self.g, &mut self.state, e, d),
            Side::Hyperedge => self.algo.apply_vf(self.g, &mut self.state, e, d),
        };
        let m = &mut self.machine;
        let t = &mut self.cores[core];
        if outcome.wrote {
            core_write(m, t, core, pr.dst_value, d as u64);
        }
        if outcome.activated && next.insert(d) && !all_active {
            let w = bitmap_word(self.g, pr.src.opposite(), true, d);
            core_write(m, t, core, Region::Bitmap, w);
        }
    }

    // ------------------------------------------------------------------
    // Schedule generation
    // ------------------------------------------------------------------

    fn make_schedules(
        &mut self,
        src: Side,
        frontier: &Frontier,
        phase: &'static str,
    ) -> Result<Vec<CoreSchedule>, ExecError> {
        let side_idx = match src {
            Side::Vertex => 0,
            Side::Hyperedge => 1,
        };
        let chain_mode = !matches!(self.system, System::Hygra | System::Prefetcher);
        let reusable = self.algo.all_active() && chain_mode;
        if reusable {
            if let Some(cached) = self.schedule_cache[side_idx].clone() {
                return Ok(self.replay_cached(cached));
            }
        }
        // Sparse-phase fallback: when too few elements are active, overlap
        // partners are almost surely inactive and chains degenerate to
        // singletons; schedule in index order and skip the OAG walk.
        let sparse = frontier.len() * SPARSE_CHAIN_DIVISOR < self.g.num_on(src) && chain_mode;
        // Static fallback: a side whose OAG is degenerate (fewer than one
        // edge per element on average) cannot form chains worth their walk;
        // the configuration step can detect this from the OAG header alone.
        let degenerate = self.system.needs_oags()
            && self.oag_for(src).is_some_and(|oag| oag.num_edge_entries() < oag.len());
        let sparse = sparse || degenerate;
        let schedules: Vec<CoreSchedule> = if sparse {
            self.index_schedules(src, frontier)
        } else {
            match self.system {
                System::Hygra | System::Prefetcher => self.index_schedules(src, frontier),
                System::Gla => self.chain_schedules::<false>(src, frontier, phase)?,
                System::ChGraph | System::HcgOnly => {
                    self.chain_schedules::<true>(src, frontier, phase)?
                }
                System::HatsV => self.hats_schedules(src, frontier),
            }
        };
        if reusable {
            self.schedule_cache[side_idx] = Some(schedules.clone());
        }
        Ok(schedules)
    }

    /// All-active reuse: the schedule was generated in iteration 0 and is
    /// streamed back from the in-memory chain queue (paper §VI-B: chains are
    /// generated only in the first iteration for PageRank-like workloads).
    fn replay_cached(&mut self, mut cached: Vec<CoreSchedule>) -> Vec<CoreSchedule> {
        let software = self.system == System::Gla;
        for (core, sched) in cached.iter_mut().enumerate() {
            sched.chains = 0; // chains are not regenerated
            for (i, done) in sched.emit_time.iter_mut().enumerate() {
                if software {
                    // One schedule-queue indirection per element.
                    let m = &mut self.machine;
                    let t = &mut self.cores[core];
                    t.compute(cost::SW_SCAN);
                    core_read(m, t, core, Region::Other, i as u64);
                    *done = 0;
                } else {
                    if i % cost::IDS_PER_LINE as usize == 0 {
                        let m = &mut self.machine;
                        let t = &mut self.hcg[core];
                        engine_read(m, t, core, Region::Other, i as u64);
                        t.compute(cost::HW_OP);
                    }
                    *done = self.hcg[core].now();
                }
            }
        }
        cached
    }

    /// Hygra's index-ordered schedule: scan the chunk's bitmap words,
    /// collecting active ids in ascending order.
    fn index_schedules(&mut self, src: Side, frontier: &Frontier) -> Vec<CoreSchedule> {
        let all_active = self.algo.all_active();
        let chunks = self.chunks_for(src).to_vec();
        chunks
            .iter()
            .enumerate()
            .map(|(core, chunk)| {
                let mut elements = Vec::new();
                let mut last_word = u64::MAX;
                for id in chunk.ids() {
                    if !all_active {
                        let w = bitmap_word(self.g, src, false, id);
                        if w != last_word {
                            let m = &mut self.machine;
                            let t = &mut self.cores[core];
                            core_read(m, t, core, Region::Bitmap, w);
                            last_word = w;
                        }
                    }
                    if all_active || frontier.contains(id) {
                        elements.push(id);
                    }
                }
                let emit_time = vec![0u64; elements.len()];
                CoreSchedule { elements, emit_time, chains: 0 }
            })
            .collect()
    }

    /// Algorithm 3 over each core's chunk, charged by the component that
    /// runs it: software GLA's core (`HW = false`) or ChGraph's HCG
    /// (`HW = true`); see [`ChainWalk`].
    fn chain_schedules<const HW: bool>(
        &mut self,
        src: Side,
        frontier: &Frontier,
        phase: &'static str,
    ) -> Result<Vec<CoreSchedule>, ExecError>
    where
        for<'m> ChainWalk<'m, HW>: ChainObserver,
    {
        // invariant: the runtime constructs both OAGs before entering a
        // chain mode; only an internal dispatch bug could reach here
        // without one.
        let oag = self.oag_for(src).expect("chain modes require an OAG");
        let pr = phase_regions(src);
        let chunks = self.chunks_for(src).to_vec();
        chunks
            .iter()
            .enumerate()
            .map(|(core, chunk)| {
                let mut walk = ChainWalk::<HW> {
                    m: &mut self.machine,
                    t: if HW { &mut self.hcg[core] } else { &mut self.cores[core] },
                    core,
                    g: self.g,
                    pr,
                    last_bitmap_word: u64::MAX,
                    last_edge_line: u64::MAX,
                    emit_time: Vec::new(),
                };
                let chains = generate_chains_observed_with_scratch(
                    oag,
                    frontier,
                    chunk.first..chunk.last,
                    &self.cfg.chain,
                    &mut walk,
                    &mut self.chain_scratch,
                );
                if self.cfg.validate {
                    chains
                        .validate_cover(frontier, chunk.first..chunk.last)
                        .map_err(|source| ExecError::InvalidChainCover { phase, source })?;
                }
                let elements = chains.schedule().to_vec();
                debug_assert_eq!(walk.emit_time.len(), elements.len());
                let emit_time = walk.emit_time;
                Ok(CoreSchedule { elements, emit_time, chains: chains.num_chains() as u64 })
            })
            .collect()
    }

    /// HATS-V: hardware bounded-DFS over the bipartite structure. Finding a
    /// same-side neighbor requires traversing *two* bipartite edges
    /// (element -> shared opposite element -> candidate), the redundant
    /// traversal the paper identifies (§II-C), and successors are picked by
    /// first discovery, not maximal overlap.
    fn hats_schedules(&mut self, src: Side, frontier: &Frontier) -> Vec<CoreSchedule> {
        let g = self.g;
        let pr = phase_regions(src);
        let chunks = self.chunks_for(src).to_vec();
        let opp = src.opposite();
        let opp_regions = phase_regions(opp);
        let d_max = self.cfg.chain.d_max;
        chunks
            .iter()
            .enumerate()
            .map(|(core, chunk)| {
                let (m, t) = (&mut self.machine, &mut self.hcg[core]);
                let mut elements = Vec::new();
                let mut emit_time = Vec::new();
                let mut chains = 0u64;
                let mut visited = vec![false; chunk.len()];
                let vis = |e: u32| (e - chunk.first) as usize;
                let mut last_word = u64::MAX;
                for root in chunk.ids() {
                    // Bitmap root scan.
                    let w = bitmap_word(g, src, false, root);
                    if w != last_word {
                        hw_read(m, t, core, Region::Bitmap, w);
                        last_word = w;
                    }
                    if visited[vis(root)] || !frontier.contains(root) {
                        continue;
                    }
                    chains += 1;
                    let mut current = root;
                    visited[vis(current)] = true;
                    let mut depth = 1usize;
                    loop {
                        hw_emit(m, t, core, bitmap_word(g, src, false, current));
                        elements.push(current);
                        emit_time.push(t.now());
                        if depth >= d_max {
                            break;
                        }
                        // First bipartite hop: current's incidence list.
                        let (lo, hi) = g.csr_for(src).target_range(current as usize);
                        hw_read(m, t, core, pr.src_offset, current as u64);
                        let mut next_elem = None;
                        'mid: for j in lo..hi {
                            let mid = g.csr_for(src).targets()[j];
                            if ((j - lo) as u64).is_multiple_of(cost::IDS_PER_LINE) {
                                hw_read(m, t, core, pr.src_incident, j as u64);
                            }
                            // Second bipartite hop: mid's incidence list.
                            let (mlo, mhi) = g.csr_for(opp).target_range(mid as usize);
                            hw_read(m, t, core, opp_regions.src_offset, mid as u64);
                            for k in mlo..mhi {
                                let cand = g.csr_for(opp).targets()[k];
                                if ((k - mlo) as u64).is_multiple_of(cost::IDS_PER_LINE) {
                                    hw_read(m, t, core, opp_regions.src_incident, k as u64);
                                }
                                if chunk.contains(cand)
                                    && !visited[vis(cand)]
                                    && frontier.contains(cand)
                                {
                                    next_elem = Some(cand);
                                    break 'mid;
                                }
                            }
                        }
                        let Some(cand) = next_elem else { break };
                        current = cand;
                        visited[vis(current)] = true;
                        depth += 1;
                    }
                }
                CoreSchedule { elements, emit_time, chains }
            })
            .collect()
    }
}

/// Algorithm 3's chain walk over one core's chunk, observed stage by stage
/// and charged to the component that runs it. The walk and the schedule it
/// yields are the same for both; only who pays for each micro-step and at
/// which cache level differ (PAPER §IV-B vs §V, Figs. 3 and 12).
/// `emit_time` holds the timer's time at each emit: the HCG's time the
/// element entered the chain FIFO, or 0 for software GLA, whose core
/// consumes its own queue.
struct ChainWalk<'m, const HW: bool> {
    m: &'m mut Machine,
    t: &'m mut CoreTimer,
    core: usize,
    g: &'m Hypergraph,
    pr: PhaseRegions,
    last_bitmap_word: u64,
    /// The OAG-edge line the HCG last fetched (hardware only).
    last_edge_line: u64,
    emit_time: Vec<u64>,
}

/// Software GLA: Algorithm 3 runs on the core, paying full memory and
/// compute cost for every micro-step at the L1 — the overhead that makes
/// the software solution slower than Hygra (Fig. 3).
impl ChainObserver for ChainWalk<'_, false> {
    fn bitmap_scan(&mut self, element: u32) {
        self.t.compute(cost::SW_SCAN);
        let w = bitmap_word(self.g, self.pr.src, false, element);
        if w != self.last_bitmap_word {
            core_read(self.m, self.t, self.core, Region::Bitmap, w);
            self.last_bitmap_word = w;
        }
    }
    fn offsets_fetch(&mut self, element: u32) {
        // DFS successor fetch: serially dependent.
        let (m, t, core, r) = (&mut *self.m, &mut *self.t, self.core, self.pr.oag_offset);
        core_read_dep(m, t, core, r, element as u64);
        core_read(m, t, core, r, element as u64 + 1);
    }
    fn edge_scan(&mut self, edge_index: usize) {
        let (m, t, core) = (&mut *self.m, &mut *self.t, self.core);
        t.compute(cost::SW_EDGE);
        core_read(m, t, core, self.pr.oag_edge, edge_index as u64);
        // Visited-flag probe (random access into scratch).
        let flag = edge_index as u64 % self.g.num_on(self.pr.src) as u64;
        core_read(m, t, core, Region::Other, flag);
    }
    fn emit(&mut self, _element: u32) {
        self.t.compute(cost::SW_EMIT);
        let queue_pos = self.emit_time.len() as u64;
        core_write(self.m, self.t, self.core, Region::Other, queue_pos);
        self.emit_time.push(0);
    }
    fn chain_end(&mut self) {
        self.t.compute(cost::SW_SCAN);
    }
}

/// ChGraph's HCG: the 4-stage pipeline runs one action per cycle, examines
/// OAG edges a cacheline at a time, enters at the L2 with deep decoupled
/// overlap, and marks each selected element inactive in the bitmap.
impl ChainObserver for ChainWalk<'_, true> {
    fn bitmap_scan(&mut self, element: u32) {
        let w = bitmap_word(self.g, self.pr.src, false, element);
        if w != self.last_bitmap_word {
            hw_read(self.m, self.t, self.core, Region::Bitmap, w);
            self.last_bitmap_word = w;
        }
    }
    fn offsets_fetch(&mut self, element: u32) {
        hw_read(self.m, self.t, self.core, self.pr.oag_offset, element as u64);
        self.last_edge_line = u64::MAX;
    }
    fn edge_scan(&mut self, edge_index: usize) {
        let line = edge_index as u64 / cost::IDS_PER_LINE;
        if line != self.last_edge_line {
            hw_read(self.m, self.t, self.core, self.pr.oag_edge, edge_index as u64);
            self.last_edge_line = line;
        }
    }
    fn emit(&mut self, element: u32) {
        hw_emit(self.m, self.t, self.core, bitmap_word(self.g, self.pr.src, false, element));
        self.emit_time.push(self.t.now());
    }
    fn chain_end(&mut self) {
        self.t.compute(cost::HW_OP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinLabel, RunConfig};
    use oag::OagConfig;

    fn small_graph() -> Hypergraph {
        hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(5).generate()
    }

    /// A 4-core machine whose caches are far smaller than the test graphs'
    /// value arrays, so the capacity-miss regime of the paper's evaluation
    /// is reproduced at unit-test scale.
    pub(crate) fn tiny_system() -> archsim::SystemConfig {
        let mut s = archsim::SystemConfig::scaled(4);
        s.l1.size_bytes = 2 * 1024;
        s.l2.size_bytes = 8 * 1024;
        s.l3.size_bytes = 32 * 1024;
        s
    }

    fn run_mode(g: &Hypergraph, system: System) -> DriverOutput {
        let cfg = RunConfig::new().with_system(tiny_system());
        let (ho, vo) = if system.needs_oags() {
            (
                Some(OagConfig::new().with_w_min(1).build(g, Side::Hyperedge)),
                Some(OagConfig::new().with_w_min(1).build(g, Side::Vertex)),
            )
        } else {
            (None, None)
        };
        let algo = MinLabel;
        Driver::try_new(g, &algo, &cfg, system, ho.as_ref(), vo.as_ref())
            .unwrap()
            .try_run()
            .unwrap()
    }

    #[test]
    fn all_modes_reach_identical_fixpoints() {
        let g = small_graph();
        let base = run_mode(&g, System::Hygra);
        for system in System::ALL {
            let out = run_mode(&g, system);
            assert_eq!(out.state.vertex_value, base.state.vertex_value, "{system:?}");
            assert_eq!(out.state.hyperedge_value, base.state.hyperedge_value, "{system:?}");
        }
    }

    #[test]
    fn min_label_converges_to_component_minima() {
        let g = hypergraph::fig1_example();
        let out = run_mode(&g, System::Hygra);
        // Fig. 1: component {h0,h2} x {v0,v2,v4,v6} overlaps h1 via v2, and
        // h1/h3 connect v1,v3,v5 — the whole hypergraph is one component
        // with minimum vertex id 0.
        assert!(out.state.vertex_value.iter().all(|&v| v == 0.0));
        assert!(out.state.hyperedge_value.iter().all(|&h| h == 0.0));
        assert!(out.iterations >= 2);
    }

    #[test]
    fn cycles_and_memory_are_nonzero() {
        let g = small_graph();
        let out = run_mode(&g, System::Hygra);
        assert!(out.cycles > 0);
        assert!(out.mem.main_memory_accesses() > 0);
        assert!(out.core_busy_cycles > 0);
    }

    /// One all-active iteration (a full frontier never takes the sparse
    /// fallback) walks every element of both sides once: the CP delivers
    /// one tuple per bipartite edge per phase, and the HCG generates
    /// exactly the chains of the pure chain walk over each core's chunk.
    #[test]
    fn chgraph_uses_engine_and_delivers_tuples() {
        let g = small_graph();
        let cfg = RunConfig::new().with_system(tiny_system());
        let h_oag = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
        let v_oag = OagConfig::new().with_w_min(1).build(&g, Side::Vertex);
        let algo = crate::testutil::PrLike { iterations: 1 };
        let out = Driver::try_new(&g, &algo, &cfg, System::ChGraph, Some(&h_oag), Some(&v_oag))
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(out.engine.tuples_delivered, 2 * g.num_bipartite_edges() as u64);
        let mut chains = 0;
        for (side, oag) in [(Side::Vertex, &v_oag), (Side::Hyperedge, &h_oag)] {
            assert!(oag.num_edge_entries() >= oag.len(), "{side:?} OAG must not be degenerate");
            let frontier = Frontier::full(g.num_on(side));
            for chunk in partition(&g, side, cfg.system.num_cores) {
                let range = chunk.first..chunk.last;
                chains += oag::generate_chains(oag, &frontier, range, &cfg.chain).num_chains();
            }
        }
        assert_eq!(out.engine.chains_generated, chains as u64);
        assert!(out.engine.hcg_cycles > 0);
    }

    #[test]
    fn hardware_chains_beat_software_chains_on_cycles() {
        let g = small_graph();
        let sw = run_mode(&g, System::Gla);
        let hw = run_mode(&g, System::ChGraph);
        assert!(
            hw.cycles < sw.cycles,
            "hardware ({}) must be faster than software GLA ({})",
            hw.cycles,
            sw.cycles
        );
    }

    /// The fixed ring answers exactly what a `VecDeque` popped at capacity
    /// answers: the value pushed `capacity` pushes ago, once there is one.
    #[test]
    fn tuple_ring_matches_a_bounded_queue() {
        for capacity in [1usize, 2, 5, 32] {
            let mut ring = TupleRing::new(capacity);
            let mut queue = std::collections::VecDeque::new();
            for t in 0..200u64 {
                let want = if queue.len() >= capacity { queue.pop_front() } else { None };
                assert_eq!(ring.oldest(), want, "capacity {capacity}, push {t}");
                let v = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                ring.push(v);
                queue.push_back(v);
            }
        }
    }
}
