//! End-to-end proof of every fault-recovery path (DESIGN.md §"Fault
//! tolerance"): deterministic I/O faults — truncation, bit flips, short
//! reads, injected `io::Error`s, torn writes — against the v2 binary
//! formats and the preprocess cache, plus panic isolation in the figure
//! harness. Every scenario must end in either a typed error or a
//! transparent recomputation with identical results; no fault may panic,
//! and no fault may produce silently wrong data.

use chg_bench::faultutil::{Fault, FaultReader, FaultWriter};
use chg_bench::figures::{Harness, System};
use chg_bench::{ArtifactStore, PreprocessCache, Scale};
use chgraph::RunConfig;
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use hypergraph::{Hypergraph, Side};
use oag::{Oag, OagConfig};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

fn sample_graph() -> Hypergraph {
    hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(8).generate()
}

fn graph_bytes(g: &Hypergraph) -> Vec<u8> {
    let mut buf = Vec::new();
    hypergraph::io::write_binary(g, &mut buf).expect("in-memory write cannot fail");
    buf
}

fn sample_oag() -> Oag {
    OagConfig::new().with_w_min(2).build(&sample_graph(), Side::Hyperedge)
}

fn oag_bytes(oag: &Oag) -> Vec<u8> {
    let mut buf = Vec::new();
    oag::io::write_binary(oag, &mut buf).expect("in-memory write cannot fail");
    buf
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chg-fault-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Typed errors for every byte-level corruption of the binary formats.
// ---------------------------------------------------------------------------

#[test]
fn zero_length_files_are_typed_errors() {
    assert!(hypergraph::io::read_binary(&[][..]).is_err());
    assert!(oag::io::read_binary(&[][..]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a hypergraph blob at any offset yields a typed error —
    /// never a panic, never a silently wrong graph.
    #[test]
    fn truncated_hypergraph_always_errors(cut in 0usize..10_000) {
        let buf = graph_bytes(&sample_graph());
        let cut = cut % buf.len();
        let r = FaultReader::new(&buf[..], Fault::Truncate { offset: cut as u64 });
        prop_assert!(hypergraph::io::read_binary(r).is_err(), "cut at {cut} must error");
    }

    /// Flipping any single bit anywhere in a v2 hypergraph blob is caught
    /// (header validation or the trailing checksum).
    #[test]
    fn bitflipped_hypergraph_always_errors(offset in 0usize..10_000, bit in 0u32..8) {
        let buf = graph_bytes(&sample_graph());
        let offset = offset % buf.len();
        let r = FaultReader::new(&buf[..], Fault::FlipBit { offset: offset as u64, bit: bit as u8 });
        prop_assert!(
            hypergraph::io::read_binary(r).is_err(),
            "flip of bit {bit} at byte {offset} must be detected"
        );
    }

    /// Same for the OAG format: any truncation errors.
    #[test]
    fn truncated_oag_always_errors(cut in 0usize..10_000) {
        let buf = oag_bytes(&sample_oag());
        let cut = cut % buf.len();
        let r = FaultReader::new(&buf[..], Fault::Truncate { offset: cut as u64 });
        prop_assert!(oag::io::read_binary(r).is_err(), "cut at {cut} must error");
    }

    /// Same for the OAG format: any single-bit flip is detected.
    #[test]
    fn bitflipped_oag_always_errors(offset in 0usize..10_000, bit in 0u32..8) {
        let buf = oag_bytes(&sample_oag());
        let offset = offset % buf.len();
        let r = FaultReader::new(&buf[..], Fault::FlipBit { offset: offset as u64, bit: bit as u8 });
        prop_assert!(
            oag::io::read_binary(r).is_err(),
            "flip of bit {bit} at byte {offset} must be detected"
        );
    }
}

#[test]
fn short_reads_degrade_nothing() {
    let g = sample_graph();
    let buf = graph_bytes(&g);
    let r = FaultReader::new(&buf[..], Fault::Short { offset: 10 });
    assert_eq!(hypergraph::io::read_binary(r).expect("short reads are not corruption"), g);

    let oag = sample_oag();
    let buf = oag_bytes(&oag);
    let r = FaultReader::new(&buf[..], Fault::Short { offset: 10 });
    assert_eq!(oag::io::read_binary(r).expect("short reads are not corruption"), oag);
}

#[test]
fn injected_io_errors_surface_as_io_variants() {
    let buf = graph_bytes(&sample_graph());
    let r = FaultReader::new(&buf[..], Fault::Error { offset: 20 });
    assert!(matches!(
        hypergraph::io::read_binary(r).unwrap_err(),
        hypergraph::io::ReadHypergraphError::Io(_)
    ));

    let buf = oag_bytes(&sample_oag());
    let r = FaultReader::new(&buf[..], Fault::Error { offset: 20 });
    assert!(matches!(oag::io::read_binary(r).unwrap_err(), oag::io::ReadOagError::Io(_)));
}

#[test]
fn failing_writes_are_propagated_not_panicked() {
    let g = sample_graph();
    let mut w = FaultWriter::new(Vec::new(), Fault::Error { offset: 32 });
    assert!(hypergraph::io::write_binary(&g, &mut w).is_err());

    let oag = sample_oag();
    let mut w = FaultWriter::new(Vec::new(), Fault::Error { offset: 32 });
    assert!(oag::io::write_binary(&oag, &mut w).is_err());
}

#[test]
fn torn_writes_are_caught_on_read_back() {
    // A writer that silently drops the tail (crash mid-write, full disk
    // with buggy firmware, ...) reports success — but the checksum makes
    // the damage visible the moment the file is read.
    let g = sample_graph();
    let full = graph_bytes(&g);
    for cut in [8u64, full.len() as u64 / 2, full.len() as u64 - 3] {
        let mut w = FaultWriter::new(Vec::new(), Fault::Truncate { offset: cut });
        hypergraph::io::write_binary(&g, &mut w).expect("torn writer pretends success");
        w.flush().unwrap();
        let torn = w.into_inner();
        assert!(torn.len() < full.len());
        assert!(hypergraph::io::read_binary(&torn[..]).is_err(), "torn at {cut} must error");
    }
}

// ---------------------------------------------------------------------------
// Retired formats: a pre-checksum (v1) entry is corruption, not a hit.
// ---------------------------------------------------------------------------

/// Rewrites a v2 blob with a v1 header: version field 1, trailer stripped.
fn as_v1(v2: &[u8]) -> Vec<u8> {
    let mut v1 = v2[..v2.len() - 8].to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    v1
}

#[test]
fn legacy_v1_blobs_are_rejected() {
    let v1 = as_v1(&graph_bytes(&sample_graph()));
    match hypergraph::io::read_binary(&v1[..]) {
        Err(hypergraph::io::ReadHypergraphError::BadHeader(msg)) => {
            assert!(msg.contains("unsupported version 1"), "{msg}")
        }
        other => panic!("v1 hypergraph blob must be a header error, got {other:?}"),
    }
    let v1 = as_v1(&oag_bytes(&sample_oag()));
    match oag::io::read_binary(&v1[..]) {
        Err(oag::io::ReadOagError::Malformed(msg)) => {
            assert!(msg.contains("unsupported version 1"), "{msg}")
        }
        other => panic!("v1 OAG blob must be a malformed error, got {other:?}"),
    }
}

#[test]
fn v1_cache_entries_are_quarantined_and_recomputed() {
    // Entries written before the checksummed v2 formats carry version 1
    // and no trailer. They are not read: each is quarantined, and the
    // recomputed entry is byte-identical to the one a clean run writes.
    let dir = tmpdir("v1");
    let (ds, scale, cfg) = (Dataset::Friendster, Scale(0.05), RunConfig::new());
    let open = || ArtifactStore::new(1, 1, Some(Arc::new(PreprocessCache::new(&dir).unwrap())));
    open().prepared(ds, scale, &cfg);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 3, "one graph and two OAG entries");
    let clean: Vec<Vec<u8>> = entries.iter().map(|p| std::fs::read(p).unwrap()).collect();
    for (path, v2) in entries.iter().zip(&clean) {
        std::fs::write(path, as_v1(v2)).unwrap();
    }

    let store = open();
    store.prepared(ds, scale, &cfg);
    let disk = store.disk().expect("store has a disk cache");
    assert_eq!(disk.quarantined(), 3, "every v1 entry is quarantined");
    assert_eq!(disk.hits(), 0, "no v1 entry may count as a hit");
    for (path, v2) in entries.iter().zip(&clean) {
        assert_eq!(&std::fs::read(path).unwrap(), v2, "{} recomputed differently", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden bytes: the encodings are a compatibility contract. A changed
// digest changes the cache keys and makes every stored entry unreadable.
// ---------------------------------------------------------------------------

/// `"<length> <FNV-1a digest>"` of an encoding.
fn golden(bytes: &[u8]) -> String {
    format!("{} {:016x}", bytes.len(), hypergraph::checksum::fnv1a(bytes))
}

#[test]
fn binary_encodings_match_golden_bytes() {
    let fig1 = graph_bytes(&hypergraph::fig1_example());
    assert_eq!(golden(&fig1), "196 de1a54bb06f487e7", "fig1 graph");

    let (ds, scale) = (Dataset::LiveJournal, Scale(0.05));
    let lj = chg_bench::load_scaled(ds, scale);
    assert_eq!(golden(&graph_bytes(&lj)), "88644 81fb0cc20ed15c84", "LJ graph");
    let key = chg_bench::cache::graph_fingerprint(&lj);
    assert_eq!(format!("{key:016x}"), "81fb0cc20ed15c84", "LJ graph fingerprint");

    let cfg = OagConfig::new();
    let (hyperedge_oag, stats) = cfg.build_with_stats(&lj, Side::Hyperedge);
    assert_eq!(golden(&oag_bytes(&hyperedge_oag)), "123469 3bb334434638a553", "hyperedge OAG");
    let vertex_oag = cfg.build(&lj, Side::Vertex);
    assert_eq!(golden(&oag_bytes(&vertex_oag)), "27833 5046e31300eec622", "vertex OAG");

    // The cache's file names carry its keys; its OAG entry wraps the OAG
    // blob with the build statistics.
    let dir = tmpdir("golden");
    let cache = PreprocessCache::new(&dir).unwrap();
    cache.store_graph(ds, scale, &lj);
    cache.store_oag(&lj, &cfg, Side::Hyperedge, &hyperedge_oag, &stats);
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.path()).collect();
    entries.sort();
    let names: Vec<String> =
        entries.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
    assert_eq!(names, ["graph_lj_30f07a9201b7e784.bin", "oag_b4fa5777b5bfcc35.bin"]);
    assert_eq!(std::fs::read(&entries[0]).unwrap(), graph_bytes(&lj), "graph entry is the blob");
    let entry = std::fs::read(&entries[1]).unwrap();
    assert_eq!(golden(&entry), "123525 a554423ed2a2e843", "OAG cache entry");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Cache self-healing: corruption is quarantined and recomputed with
// identical results.
// ---------------------------------------------------------------------------

#[test]
fn corrupt_cache_recomputes_identical_results() {
    let dir = tmpdir("heal");
    let ds = Dataset::LiveJournal;
    let job = (ds, Workload::Cc, System::ChGraph);

    // Run 1: populate the cache and record the clean report.
    let clean_report = {
        let cache = Arc::new(PreprocessCache::new(&dir).unwrap());
        let h = Harness::new(Scale(0.05)).with_cache(cache);
        h.report(job.0, job.1, job.2)
    };

    // Corrupt every cached entry on disk (graphs and OAGs alike).
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "bin") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "run 1 must have populated the cache");

    // Run 2: every load detects the corruption, quarantines, recomputes —
    // and the result is bit-identical to the clean run.
    let cache = Arc::new(PreprocessCache::new(&dir).unwrap());
    let h = Harness::new(Scale(0.05)).with_cache(cache.clone());
    let healed_report = h.report(job.0, job.1, job.2);
    assert_eq!(*clean_report, *healed_report, "corruption may cost time, never correctness");
    assert_eq!(format!("{clean_report}"), format!("{healed_report}"));
    assert_eq!(cache.quarantined() as usize, corrupted, "every corrupt entry quarantined");
    assert_eq!(cache.hits(), 0, "no corrupt entry may ever count as a hit");

    // Run 3: the healed cache hits again.
    let cache = Arc::new(PreprocessCache::new(&dir).unwrap());
    let h = Harness::new(Scale(0.05)).with_cache(cache.clone());
    let rehit_report = h.report(job.0, job.1, job.2);
    assert_eq!(*clean_report, *rehit_report);
    assert!(cache.hits() > 0, "self-healed entries must hit on the next run");
    assert_eq!(cache.quarantined(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Harness panic isolation (the fault-injection hook).
// ---------------------------------------------------------------------------

#[test]
fn panicking_cell_yields_structured_error_not_abort() {
    let bad = (Dataset::WebTrackers, Workload::Bfs, System::Hygra);
    let h = Harness::new(Scale(0.05)).with_threads(4).with_fault_hook(move |job| {
        if job == bad {
            panic!("injected workload fault");
        }
    });
    let err = h.try_report(bad.0, bad.1, bad.2).expect_err("cell must fail");
    assert_eq!(err.job, bad);
    assert_eq!(err.attempts, 2, "one retry before reporting");
    assert!(err.message.contains("injected workload fault"));
    assert!(err.to_string().contains("Hygra"), "error names the cell: {err}");
    // The harness is still fully usable for other cells.
    let ok = h.try_report(Dataset::WebTrackers, Workload::Cc, System::Hygra);
    assert!(ok.is_ok(), "sibling cells are unaffected");
}

#[test]
fn grid_outcome_counts_match() {
    let bad = (Dataset::LiveJournal, Workload::Cc, System::Hygra);
    let h = Harness::new(Scale(0.05)).with_threads(3).with_fault_hook(move |job| {
        if job == bad {
            panic!("boom");
        }
    });
    let jobs = [
        bad,
        (Dataset::LiveJournal, Workload::Bfs, System::Hygra),
        (Dataset::LiveJournal, Workload::Cc, System::ChGraph),
    ];
    h.prefetch(jobs);
    let failed = h.cell_failures();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].job, bad);
    for &(ds, w, sys) in &jobs[1..] {
        assert!(h.try_report(ds, w, sys).is_ok(), "{ds:?}/{w:?}/{sys:?} must complete");
    }
}
