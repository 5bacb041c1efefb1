//! Kernel-identity property tests for the hot-path flattening rewrite.
//!
//! Three kernels (the set-associative cache, the OAG build, chain
//! generation) were rewritten with flat layouts, keeping the originals as
//! `archsim::reference` / `oag::reference` under the `reference-kernels`
//! feature. The cache keeps every instance of a level in one array under
//! one `u32` LRU clock whose stamps wrap, chain generation
//! an epoch-tagged visited set, and the OAG build half-counts symmetric
//! overlap with a branch-free scatter into a counter cleared as it drains
//! (directed hypergraphs count in full and mirror nothing). These
//! properties replay random inputs through both implementations and
//! assert the outputs — including full observer event streams and
//! statistics — are bit-identical, undirected and directed, so the
//! committed `BENCH_hotpath.json` speedups are speedups of *the same
//! function*, not of a subtly different one.

use hypergraph::directed::DirectedHypergraphBuilder;
use hypergraph::{Frontier, Hypergraph, HypergraphBuilder, Side, VertexId};
use oag::{generate_chains, generate_chains_with_scratch, ChainConfig, ChainScratch, OagConfig};
use proptest::prelude::*;

/// Strategy: an arbitrary small hypergraph (same shape as tests/properties.rs).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..40).prop_flat_map(|nv| {
        (Just(nv), prop::collection::vec(prop::collection::vec(0u32..nv as u32, 1..8), 1..30))
            .prop_map(|(nv, rows)| {
                let mut b = HypergraphBuilder::new(nv);
                for row in rows {
                    b.add_hyperedge(row.into_iter().map(VertexId::new)).expect("in range");
                }
                b.build()
            })
    })
}

/// Strategy: a hypergraph for the OAG kernels. Beside the shapes of
/// [`arb_hypergraph`], it draws single-member hyperedges (pivots with no
/// pair to count) and spare vertex ids no hyperedge uses (isolated rows),
/// so the half-counting build meets empty rows, zero-slot rows and
/// zero-length pivot suffixes on both sides.
fn arb_oag_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..40, 0usize..6).prop_flat_map(|(used, isolated)| {
        let row = (prop::collection::vec(0u32..used as u32, 1..8), any::<bool>());
        (Just(used + isolated), prop::collection::vec(row, 1..30)).prop_map(|(nv, rows)| {
            let mut b = HypergraphBuilder::new(nv);
            for (mut row, single) in rows {
                if single {
                    row.truncate(1);
                }
                b.add_hyperedge(row.into_iter().map(VertexId::new)).expect("in range");
            }
            b.build()
        })
    })
}

/// Strategy: a directed hypergraph for the OAG kernels, drawn like
/// [`arb_oag_hypergraph`] with each hyperedge split into sources and
/// destinations that may share up to two vertices, so rows meet
/// themselves in their own two-hop walk.
fn arb_directed_oag_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..40, 0usize..6).prop_flat_map(|(used, isolated)| {
        let row = (prop::collection::vec(0u32..used as u32, 1..8), 0usize..8, 0usize..3);
        (Just(used + isolated), prop::collection::vec(row, 1..30)).prop_map(|(nv, rows)| {
            let mut b = DirectedHypergraphBuilder::new(nv);
            for (members, split, shared) in rows {
                let split = split.min(members.len());
                let ids = |s: &[u32]| s.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
                let (sources, destinations) =
                    (&members[..split], &members[split - shared.min(split)..]);
                b.add_hyperedge(ids(sources), ids(destinations)).expect("in range, non-empty");
            }
            b.build()
        })
    })
}

/// Strategy: a random OAG configuration, biased to small degree caps so the
/// bounded top-k selection path and full-row floors are actually exercised,
/// and drawing the uncapped `u32::MAX` for both caps (about a quarter of
/// the time each), where every row's slots are sized by its two-hop bound
/// alone.
fn arb_oag_config() -> impl Strategy<Value = OagConfig> {
    let uncapped = |cap: u32, limit: u32| if cap >= limit { u32::MAX } else { cap };
    (1u32..4, 1u32..8, 2u32..51).prop_map(move |(w_min, max_degree, max_pivot)| {
        OagConfig::new()
            .with_w_min(w_min)
            .with_max_degree(uncapped(max_degree, 6))
            .with_max_pivot_degree(uncapped(max_pivot, 40))
    })
}

/// Cases per property: 48 by default, `PROPTEST_CASES` to run more (CI's
/// release-mode pass).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Flat SoA cache == nested reference cache, for every access result,
    /// probe, invalidation, and the final resident-line census, across
    /// random geometries and op streams — including streams that cross the
    /// flat cache's `u32` LRU-stamp wrap (the reference's `u64` clock never
    /// wraps, so any compaction artifact diverges immediately).
    fn cache_streams_are_identical(
        geometry in (0usize..5, 1usize..5),
        ops in prop::collection::vec((0u64..(1 << 14), 0u32..16, any::<bool>()), 1..600),
        // `wrap_at >= 600` (half the range) means the stream never wraps.
        wrap_at in 0usize..1200,
        wrap_back in 0u32..4,
    ) {
        let (set_pow, ways) = geometry;
        let cfg = archsim::CacheConfig {
            size_bytes: 64 * ways * (1 << set_pow),
            ways,
            latency: 1,
        };
        let mut flat = archsim::Cache::new(&cfg, 64, 1);
        let mut nested = archsim::reference::Cache::new(&cfg, 64);
        for (step, (addr, op, write)) in ops.into_iter().enumerate() {
            if wrap_at == step {
                // Park the flat side's LRU clock at the wrap edge
                // mid-stream; the rank compaction must be unobservable.
                flat.force_stamp(u32::MAX - wrap_back);
            }
            match op {
                0 => prop_assert_eq!(flat.invalidate(0, addr), nested.invalidate(addr)),
                1 => prop_assert_eq!(flat.mark_dirty(0, addr), nested.mark_dirty(addr)),
                2 => prop_assert_eq!(flat.contains(0, addr), nested.contains(addr)),
                3 => {
                    flat.flush_silently();
                    nested.flush_silently();
                }
                _ => prop_assert_eq!(flat.access(0, addr, write), nested.access(addr, write)),
            }
        }
        prop_assert_eq!(flat.resident_lines(0), nested.resident_lines());
    }

    /// The instances of one cache array are independent caches: a random
    /// stream of accesses, probes, invalidations and dirty marks spread
    /// over 1–8 instances, crossing the array's shared LRU-clock wrap,
    /// gives each instance exactly the results of its own nested reference
    /// cache fed only that instance's ops, down to the final census.
    fn cache_instances_are_isolated(
        geometry in (0usize..5, 1usize..5),
        count in 1usize..9,
        ops in prop::collection::vec(
            (0usize..8, 0u64..(1 << 14), 0u32..16, any::<bool>()),
            1..800,
        ),
        // `wrap_at >= 800` (half the range) means the stream never wraps.
        wrap_at in 0usize..1600,
        wrap_back in 0u32..4,
    ) {
        let (set_pow, ways) = geometry;
        let cfg = archsim::CacheConfig {
            size_bytes: 64 * ways * (1 << set_pow),
            ways,
            latency: 1,
        };
        let mut flat = archsim::Cache::new(&cfg, 64, count);
        let mut nested: Vec<_> =
            (0..count).map(|_| archsim::reference::Cache::new(&cfg, 64)).collect();
        for (k, (i, addr, op, write)) in ops.into_iter().enumerate() {
            if wrap_at == k {
                flat.force_stamp(u32::MAX - wrap_back);
            }
            let i = i % count;
            let r = &mut nested[i];
            match op {
                0 => prop_assert_eq!(flat.invalidate(i, addr), r.invalidate(addr), "{}", k),
                1 => prop_assert_eq!(flat.mark_dirty(i, addr), r.mark_dirty(addr), "{}", k),
                2 => prop_assert_eq!(flat.contains(i, addr), r.contains(addr), "{}", k),
                _ => prop_assert_eq!(flat.access(i, addr, write), r.access(addr, write), "{}", k),
            }
        }
        for (i, r) in nested.iter().enumerate() {
            prop_assert_eq!(flat.resident_lines(i), r.resident_lines(), "instance {}", i);
        }
    }

    /// The half-counting OAG build (serial and threaded) == the
    /// pre-rewrite full two-hop walk with clear-as-drain counting and a
    /// full-row sort, graph and stats both.
    fn oag_builds_are_identical(
        g in arb_oag_hypergraph(),
        cfg in arb_oag_config(),
        threads in 1usize..8,
    ) {
        for side in [Side::Hyperedge, Side::Vertex] {
            let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
            let (got, got_stats) = cfg.build_with_stats(&g, side);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);
            let (threaded, threaded_stats) = cfg.build_with_stats_threads(&g, side, threads);
            prop_assert_eq!(&threaded, &want);
            prop_assert_eq!(threaded_stats, want_stats);
        }
    }

    /// The same identity on directed hypergraphs, whose CSR sides are not
    /// transposes: every row counts its whole two-hop neighborhood, mirrors
    /// nothing, and must keep itself out of its own candidates even where a
    /// vertex is both source and destination of one hyperedge.
    fn directed_oag_builds_are_identical(
        g in arb_directed_oag_hypergraph(),
        cfg in arb_oag_config(),
    ) {
        for side in [Side::Hyperedge, Side::Vertex] {
            let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
            for threads in 1..=8 {
                let (got, got_stats) = cfg.build_with_stats_threads(&g, side, threads);
                prop_assert_eq!(&got, &want, "{:?} threads {}", side, threads);
                prop_assert_eq!(got_stats, want_stats, "{:?} threads {}", side, threads);
            }
        }
    }

    /// Chain generation with a *reused* scratch — history from previous
    /// cases, chunked ranges, sparse frontiers — matches both the reference
    /// walk and the allocating entry point.
    fn chain_generation_is_identical(
        g in arb_hypergraph(),
        d_max in 1usize..20,
        keep in prop::collection::vec(any::<bool>(), 1..40),
        cores in 1u32..5,
        epoch_back in 0u32..4,
    ) {
        let n = g.num_hyperedges() as u32;
        let oag = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
        let frontier = Frontier::from_iter(
            n as usize,
            (0..n).filter(|&h| keep.get(h as usize).copied().unwrap_or(false)),
        );
        let cfg = ChainConfig::new(d_max);
        // A scratch with arbitrary prior history, including one parked just
        // below the epoch wrap, reused across every chunk.
        let mut scratch = ChainScratch::new();
        scratch.force_epoch(u32::MAX - epoch_back);
        let chunk = n.div_ceil(cores).max(1);
        for c in 0..cores {
            let range = (c * chunk).min(n)..((c + 1) * chunk).min(n);
            let want = oag::reference::generate_chains(&oag, &frontier, range.clone(), &cfg);
            let fresh = generate_chains(&oag, &frontier, range.clone(), &cfg);
            let reused =
                generate_chains_with_scratch(&oag, &frontier, range.clone(), &cfg, &mut scratch);
            prop_assert_eq!(&fresh, &want);
            prop_assert_eq!(&reused, &want);
        }
    }
}

/// Golden simulated results, recorded on the commit before the dense sharer
/// directory and the hit-first way scan replaced the hashed directory and
/// the fused scan in `archsim`. Any change to the hierarchy's hit, victim,
/// writeback or coherence behaviour moves at least one of these numbers.
/// The cells are the daemon's hit request (LJ@0.05 BFS under ChGraph, the
/// config a request without knobs gets), PageRank under ChGraph and GLA
/// (writes to shared lines exercise remote-sharer invalidation), and the
/// ChGraph PageRank cell on an inclusive L3 (back-invalidation on L3
/// eviction). Two more ChGraph PageRank cells, recorded on the commit
/// before the bipartite-edge FIFO became a fixed ring, pin the FIFO's
/// back-pressure at both extremes: a 1-entry FIFO (the ring wraps on every
/// tuple) and one that never fills. Each expectation is
/// `(fingerprint_report, main_memory_accesses, invalidations)`.
#[test]
fn simulated_results_match_golden_fingerprints() {
    use archsim::SystemConfig;
    use chg_serve::proto::fingerprint_report;
    use chgraph::{RunConfig, System};
    use hyperalgos::{try_run_workload_prepared, Workload};
    use hypergraph::datasets::Dataset;

    let g = chg_bench::load_scaled(Dataset::LiveJournal, chg_bench::Scale(0.05));
    let served = RunConfig::new();
    let pr = RunConfig::new().with_max_iterations(4);
    let mut inclusive = SystemConfig::scaled16();
    inclusive.l3_inclusive = true;
    let pr_inclusive = pr.with_system(inclusive);
    let mut fifo_one = pr;
    fifo_one.fifo_capacity = 1;
    // The ring spans a whole phase of one core, so only a capacity above
    // the total tuple count keeps it from ever filling.
    let mut fifo_never_full = pr;
    fifo_never_full.fifo_capacity = g.num_bipartite_edges() + 1;
    let check = |name: &str, workload, system: System, cfg: &RunConfig, want| {
        let r = try_run_workload_prepared(workload, &system, &g, cfg, None).expect(name);
        let got = (fingerprint_report(&r), r.mem.main_memory_accesses(), r.mem.invalidations);
        assert_eq!(got, want, "{name}: (fingerprint, main-memory accesses, invalidations)");
        r
    };
    let chgraph = System::ChGraph;
    check(
        "serve hit: BFS/ChGraph",
        Workload::Bfs,
        chgraph,
        &served,
        (0xe350_d3bb_a0d2_0048, 1708, 271),
    );
    check("PR/ChGraph", Workload::Pr, chgraph, &pr, (0xfd81_69b2_02e3_ef3c, 5658, 24312));
    check("PR/GLA", Workload::Pr, System::Gla, &pr, (0x8378_4633_3dd9_0f4f, 5890, 24351));
    check(
        "PR/ChGraph, inclusive L3",
        Workload::Pr,
        chgraph,
        &pr_inclusive,
        (0x85b6_85bc_0dfc_3e21, 13420, 23691),
    );
    check(
        "PR/ChGraph, 1-entry FIFO",
        Workload::Pr,
        chgraph,
        &fifo_one,
        (0xad32_99da_8b32_13b6, 5658, 24312),
    );
    let r = check(
        "PR/ChGraph, FIFO never full",
        Workload::Pr,
        chgraph,
        &fifo_never_full,
        (0x3cb0_00b5_e3c1_9e51, 5658, 24312),
    );
    let engine = r.engine.expect("ChGraph reports its engine");
    assert_eq!(engine.fifo_full_stalls, 0, "a ring that never fills never stalls the CP");
}
