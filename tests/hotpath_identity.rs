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
//! statistics — are bit-identical, undirected and directed, at the
//! simulated machine's own geometries (8- and 16-way caches, 16 cores'
//! L1s or 16 L3 banks, 16 per-core chunks) as well as degenerate ones;
//! the OAG build is also diffed on every dataset. The simulator and the
//! dataset generator are pinned whole, by golden fingerprints and golden
//! CSR digests recorded before their rewrites.

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

/// Cache associativities the cache properties draw from: small ones
/// (direct-mapped to 4-way) beside the simulated machine's 8-way L1/L2 and
/// 16-way L3 (`archsim::SystemConfig::paper`).
const WAYS: [usize; 6] = [1, 2, 3, 4, 8, 16];

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
        geometry in (0usize..5, 0usize..WAYS.len()),
        ops in prop::collection::vec((0u64..(1 << 14), 0u32..16, any::<bool>()), 1..600),
        // `wrap_at >= 600` (half the range) means the stream never wraps.
        wrap_at in 0usize..1200,
        wrap_back in 0u32..4,
    ) {
        let (set_pow, ways) = (geometry.0, WAYS[geometry.1]);
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
    /// over 1–16 instances (a machine level: 16 cores' L1s or 16 L3
    /// banks), crossing the array's shared LRU-clock wrap,
    /// gives each instance exactly the results of its own nested reference
    /// cache fed only that instance's ops, down to the final census.
    fn cache_instances_are_isolated(
        geometry in (0usize..5, 0usize..WAYS.len()),
        count in 1usize..17,
        ops in prop::collection::vec(
            (0usize..16, 0u64..(1 << 14), 0u32..16, any::<bool>()),
            1..800,
        ),
        // `wrap_at >= 800` (half the range) means the stream never wraps.
        wrap_at in 0usize..1600,
        wrap_back in 0u32..4,
    ) {
        let (set_pow, ways) = (geometry.0, WAYS[geometry.1]);
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

    /// The half-counting OAG build == the pre-rewrite full two-hop walk
    /// with clear-as-drain counting and a full-row sort, graph and stats
    /// both.
    fn oag_builds_are_identical(
        g in arb_oag_hypergraph(),
        cfg in arb_oag_config(),
    ) {
        for side in [Side::Hyperedge, Side::Vertex] {
            let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
            let (got, got_stats) = cfg.build_with_stats(&g, side);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);
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
            let (got, got_stats) = cfg.build_with_stats(&g, side);
            prop_assert_eq!(&got, &want, "{:?}", side);
            prop_assert_eq!(got_stats, want_stats, "{:?}", side);
        }
    }

    /// Chain generation with a *reused* scratch — history from previous
    /// cases, chunked ranges up to the driver's 16 per-core chunks, sparse
    /// frontiers — matches both the reference walk and the allocating
    /// entry point.
    fn chain_generation_is_identical(
        g in arb_hypergraph(),
        d_max in 1usize..20,
        keep in prop::collection::vec(any::<bool>(), 1..40),
        cores in 1u32..17,
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

/// The half-counting OAG build == the reference full two-hop walk, graph
/// and stats, on every dataset at the daemon's serve scale, at the paper's
/// `W_min = 3` and the heaviest-row `W_min = 1`, both sides.
#[test]
fn oag_builds_match_the_reference_on_every_dataset() {
    use hypergraph::datasets::Dataset;
    for ds in Dataset::ALL {
        let g = chg_bench::load_scaled(ds, chg_bench::Scale(0.05));
        for w_min in [1, 3] {
            let cfg = OagConfig::new().with_w_min(w_min);
            for side in [Side::Hyperedge, Side::Vertex] {
                let (want, want_stats) = oag::reference::build_with_stats(&cfg, &g, side);
                let (got, got_stats) = cfg.build_with_stats(&g, side);
                assert!(got == want, "{ds} W_min {w_min} {side:?}: graph");
                assert_eq!(got_stats, want_stats, "{ds} W_min {w_min} {side:?}: stats");
            }
        }
    }
}

/// Raising `W_min` only filters rows: on every dataset at scale 0.05 and
/// both sides, the OAG at `W_min` ∈ {3, 5, 7, 9} is the `W_min = 1` OAG
/// with every edge lighter than `W_min` dropped. The rows' storage order
/// (descending weight, ascending id) puts the pairs of any weight floor
/// first, so the degree cap keeps the same heaviest pairs at every `W_min`.
#[test]
fn raising_w_min_filters_the_w_min_1_rows() {
    use hypergraph::datasets::Dataset;
    for ds in Dataset::ALL {
        let g = chg_bench::load_scaled(ds, chg_bench::Scale(0.05));
        for side in [Side::Hyperedge, Side::Vertex] {
            let all = OagConfig::new().with_w_min(1).build(&g, side);
            for w_min in [3, 5, 7, 9] {
                let oag = OagConfig::new().with_w_min(w_min).build(&g, side);
                assert_eq!(oag.len(), all.len());
                for a in 0..all.len() as u32 {
                    let kept = all.neighbors(a).iter().zip(all.weights_of(a));
                    let want: Vec<_> = kept.filter(|&(_, &w)| w >= w_min).collect();
                    let got: Vec<_> = oag.neighbors(a).iter().zip(oag.weights_of(a)).collect();
                    assert_eq!(got, want, "{ds} {side:?} W_min {w_min} row {a}");
                }
            }
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
/// tuple) and one that never fills; across the 1-entry, 32-entry and
/// never-full FIFOs the CP's FIFO-full stalls may only shrink. Each
/// expectation is `(fingerprint_report, main_memory_accesses,
/// invalidations)`.
///
/// The remaining cells pin every other system's schedule and engine path
/// before the driver's chain walks and pipeline actions were merged: Hygra,
/// HCG-only, HATS-V and the prefetcher on BFS and PR, GLA on BFS (which
/// walks chains every iteration instead of replaying them), and ChGraph PR
/// under deep validation. An engine system's cell also pins its whole
/// [`chgraph::EngineReport`] as `[hcg_cycles, cp_cycles, tuples_delivered,
/// chains_generated, fifo_full_stalls, fifo_empty_stalls]`.
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
    let fifo_32 =
        check("PR/ChGraph", Workload::Pr, chgraph, &pr, (0xfd81_69b2_02e3_ef3c, 5658, 24312));
    check("PR/GLA", Workload::Pr, System::Gla, &pr, (0x8378_4633_3dd9_0f4f, 5890, 24351));
    check(
        "PR/ChGraph, inclusive L3",
        Workload::Pr,
        chgraph,
        &pr_inclusive,
        (0x85b6_85bc_0dfc_3e21, 13420, 23691),
    );
    let fifo_1 = check(
        "PR/ChGraph, 1-entry FIFO",
        Workload::Pr,
        chgraph,
        &fifo_one,
        (0xad32_99da_8b32_13b6, 5658, 24312),
    );
    let fifo_never = check(
        "PR/ChGraph, FIFO never full",
        Workload::Pr,
        chgraph,
        &fifo_never_full,
        (0x3cb0_00b5_e3c1_9e51, 5658, 24312),
    );
    // A shallower FIFO can only hold the CP back longer.
    let full_stalls = [fifo_1, fifo_32, fifo_never]
        .map(|r| r.engine.expect("ChGraph reports its engine").fifo_full_stalls);
    assert_eq!(full_stalls[2], 0, "a ring that never fills never stalls the CP");
    assert!(
        full_stalls[0] >= full_stalls[1] && full_stalls[1] >= full_stalls[2],
        "FIFO-full stalls must not grow with depth (1, 32, never full): {full_stalls:?}"
    );

    let check_engine = |name: &str, workload, system: System, cfg: &RunConfig, want, engine| {
        let e = check(name, workload, system, cfg, want).engine.expect(name);
        let got = [
            e.hcg_cycles,
            e.cp_cycles,
            e.tuples_delivered,
            e.chains_generated,
            e.fifo_full_stalls,
            e.fifo_empty_stalls,
        ];
        assert_eq!(got, engine, "{name}: engine report");
    };
    let bfs = &served;
    check("BFS/Hygra", Workload::Bfs, System::Hygra, bfs, (0x53d2_cde4_63bb_7edd, 1024, 254));
    check("PR/Hygra", Workload::Pr, System::Hygra, &pr, (0x2836_f428_5175_ee37, 3550, 24222));
    check("BFS/GLA", Workload::Bfs, System::Gla, bfs, (0x1ba6_835a_050e_b9cc, 1894, 286));
    let hcg = System::HcgOnly;
    check_engine(
        "BFS/HCG-only",
        Workload::Bfs,
        hcg,
        bfs,
        (0x17d3_4f26_fdc0_5be6, 1719, 271),
        [42367, 0, 0, 230, 0, 0],
    );
    check_engine(
        "PR/HCG-only",
        Workload::Pr,
        hcg,
        &pr,
        (0x5ba8_228c_30bf_b2f2, 5682, 24308),
        [174567, 0, 0, 578, 0, 0],
    );
    let hats = System::HatsV;
    check_engine(
        "BFS/HATS-V",
        Workload::Bfs,
        hats,
        bfs,
        (0x5994_2142_f506_3ddc, 2666, 250),
        [295868, 429566, 12014, 68, 0, 49471],
    );
    check_engine(
        "PR/HATS-V",
        Workload::Pr,
        hats,
        &pr,
        (0x3759_a1bd_c579_92e1, 6208, 23864),
        [686487, 2031533, 83248, 241, 319851, 75601],
    );
    let prefetcher = System::Prefetcher;
    check_engine(
        "BFS/Prefetcher",
        Workload::Bfs,
        prefetcher,
        bfs,
        (0xa8aa_728b_aad1_c0ec, 1144, 289),
        [0, 140977, 0, 0, 0, 0],
    );
    check_engine(
        "PR/Prefetcher",
        Workload::Pr,
        prefetcher,
        &pr,
        (0x584e_26c9_a86d_95b0, 5131, 25476),
        [0, 1076077, 0, 0, 0, 0],
    );
    // Deep validation checks every chain cover and changes no result.
    check_engine(
        "PR/ChGraph, validated",
        Workload::Pr,
        chgraph,
        &pr.with_validate(true),
        (0xfd81_69b2_02e3_ef3c, 5658, 24312),
        [174567, 1564495, 83248, 578, 313806, 685],
    );
}

/// FNV-1a digest of both CSR sides of `g` (offsets then targets, hyperedge
/// side first), as little-endian bytes.
fn graph_digest(g: &Hypergraph) -> u64 {
    let mut h = hypergraph::checksum::Fnv64::new();
    for side in [Side::Hyperedge, Side::Vertex] {
        let csr = g.csr_for(side);
        for arr in [csr.offsets(), csr.targets()] {
            for x in arr {
                h.update(&x.to_le_bytes());
            }
        }
    }
    h.digest()
}

/// The family-model generator is pinned bit for bit: every dataset at its
/// own seed, at two other seeds, and at the daemon's serve scales 0.05 and
/// 0.03. The digests were recorded before the generator stopped building
/// one heap row per hyperedge; any change to a graph here changes every
/// figure, fingerprint and BENCH number downstream.
#[test]
fn generated_graphs_match_golden_hashes() {
    use hypergraph::datasets::Dataset;

    // Per dataset: own seed, seed 1, seed 0xBEEF, scale 0.05, scale 0.03.
    let golden: [(Dataset, [u64; 5]); 5] = [
        (
            Dataset::Friendster,
            [
                0x8403_0af9_4302_1082,
                0xc463_3233_1fb5_b3ac,
                0x154d_9927_d6b0_6239,
                0xbd08_fec2_4b58_caa7,
                0x646d_c93f_103e_7b97,
            ],
        ),
        (
            Dataset::ComOrkut,
            [
                0xefb6_a331_09b7_2c93,
                0x37a5_e8cb_16db_68bd,
                0x69a2_1cff_f4f8_ee57,
                0x6307_4770_d943_cf97,
                0xaeb3_171b_98eb_4708,
            ],
        ),
        (
            Dataset::LiveJournal,
            [
                0x2607_7e3c_33df_6e35,
                0x27ac_d55f_12f4_6620,
                0x6d82_ed66_c948_51a3,
                0x4eaf_6f13_4225_594e,
                0x9635_7d16_294c_bdde,
            ],
        ),
        (
            Dataset::WebTrackers,
            [
                0xbe63_de34_05e5_eabe,
                0x81f6_17d3_eb35_4c01,
                0x7e6e_212f_54e3_6ee0,
                0x2950_593d_ac5d_2aeb,
                0x3f4e_b6bf_3a4e_5c9a,
            ],
        ),
        (
            Dataset::OrkutGroup,
            [
                0x9125_4cdf_f78a_cc4b,
                0xb80f_f409_b78b_52ec,
                0x9b7f_22a2_4cac_5e3f,
                0x9a67_cec3_1668_b5f0,
                0xc3aa_b146_5521_e6e4,
            ],
        ),
    ];
    for (ds, want) in golden {
        let got = [
            graph_digest(&ds.load()),
            graph_digest(&ds.config().with_seed(1).generate()),
            graph_digest(&ds.config().with_seed(0xBEEF).generate()),
            graph_digest(&chg_bench::load_scaled(ds, chg_bench::Scale(0.05))),
            graph_digest(&chg_bench::load_scaled(ds, chg_bench::Scale(0.03))),
        ];
        assert_eq!(got, want, "{ds}: (own seed, seed 1, seed 0xBEEF, scale 0.05, scale 0.03)");
    }
}
