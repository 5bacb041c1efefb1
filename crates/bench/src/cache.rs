//! On-disk preprocessing cache behind the [`ArtifactStore`](crate::ArtifactStore)
//! that the figure harness and the serving daemon share.
//!
//! OAG construction dominates harness start-up (it is the preprocessing the
//! paper amortizes across algorithm executions, §VI-G); the stand-in
//! datasets themselves are also regenerated on every invocation. This cache
//! persists both artifacts between `figures` runs and daemon restarts using
//! the existing binary codecs (`hypergraph::io`, `oag::io`), so a repeated
//! invocation skips straight to simulation.
//!
//! Correctness: cache keys are FNV-1a fingerprints of the *content* that
//! produced an artifact — for graphs the generator configuration and scale,
//! for OAGs the full binary serialization of the source hypergraph plus the
//! `OagConfig` and side. Any change to a generator, a dataset definition or
//! an OAG parameter changes the key, so a stale entry can only miss; and
//! both binary codecs round-trip exactly (`Eq`-tested in their own crates),
//! so a hit returns bit-identical artifacts and every downstream report is
//! unchanged. Hit/miss counters are reported in the run log.
//!
//! Fault tolerance (DESIGN.md §"Fault tolerance"): the v2 binary formats
//! carry trailing FNV-1a checksums, so a truncated, torn or bit-flipped
//! entry is *detected* on read. A corrupt entry is quarantined — renamed to
//! `<entry>.corrupt` so it is never re-read and remains available for
//! post-mortems — the event is logged to stderr, and the caller
//! transparently recomputes. A corrupt cache can therefore never change
//! results, only cost time.

use crate::Scale;
use hypergraph::checksum::{read_container, read_u64, write_container, Fnv64, HashingWriter};
use hypergraph::datasets::Dataset;
use hypergraph::{Hypergraph, Side};
use oag::{Oag, OagBuildStats, OagConfig};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

const OAG_ENTRY_MAGIC: &[u8; 4] = b"CHGC";
/// The only entry version [`PreprocessCache::store_oag`] writes and the
/// cache reads: v2 appends a trailing FNV-1a checksum over the whole entry
/// (covering the stats prefix, which the inner OAG blob's own checksum
/// does not). An entry of any other version is corrupt.
const OAG_ENTRY_VERSION: u32 = 2;

/// Stale `*.tmp.<pid>` files older than this at cache-open time are swept:
/// they can only be leftovers of a writer that died mid-write (a live
/// concurrent writer renames its tmp file within seconds).
const DEFAULT_TMP_TTL: Duration = Duration::from_secs(600);

/// Content fingerprint of a hypergraph (its exact binary serialization).
pub fn graph_fingerprint(g: &Hypergraph) -> u64 {
    let mut w = HashingWriter::new(io::sink());
    // Writes to `io::sink` never fail, so the serializer cannot return an
    // error; ignore the Result instead of panicking on the impossible.
    let _ = hypergraph::io::write_binary(g, &mut w);
    w.digest()
}

/// A snapshot of a cache's hit/miss/quarantine counters, split per artifact
/// kind — the machine-readable complement to [`PreprocessCache::summary`],
/// consumed by the serving layer's stats endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Graph entries served from disk.
    pub graph_hits: u64,
    /// Graph lookups that missed (absent or quarantined).
    pub graph_misses: u64,
    /// OAG entries served from disk.
    pub oag_hits: u64,
    /// OAG lookups that missed (absent or quarantined).
    pub oag_misses: u64,
    /// Corrupt entries quarantined.
    pub quarantined: u64,
}

/// A directory of cached preprocessing artifacts with hit/miss accounting.
pub struct PreprocessCache {
    dir: PathBuf,
    graph_hits: AtomicU64,
    graph_misses: AtomicU64,
    oag_hits: AtomicU64,
    oag_misses: AtomicU64,
    quarantined: AtomicU64,
    /// When set, [`quarantine`](Self::quarantine) deletes corrupt entries
    /// instead of renaming them to `*.corrupt`. Long-lived daemons enable
    /// this so recovery converges to a residue-free cache directory; the
    /// harness default keeps the rename for post-mortems.
    remove_corrupt: AtomicBool,
}

impl PreprocessCache {
    /// Opens (creating if needed) a cache rooted at `dir`, sweeping stale
    /// temp files left behind by writers that died mid-write.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = PreprocessCache {
            dir,
            graph_hits: AtomicU64::new(0),
            graph_misses: AtomicU64::new(0),
            oag_hits: AtomicU64::new(0),
            oag_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            remove_corrupt: AtomicBool::new(false),
        };
        cache.sweep_stale_tmp(DEFAULT_TMP_TTL);
        Ok(cache)
    }

    /// Selects what quarantining does with a corrupt
    /// entry: `false` (default) renames it to `*.corrupt` for post-mortems;
    /// `true` deletes it outright — the policy for long-lived daemons whose
    /// cache directory must stay residue-free across crash recovery.
    pub fn set_remove_corrupt(&self, remove: bool) {
        self.remove_corrupt.store(remove, Ordering::Relaxed);
    }

    /// Deletes every `*.corrupt` quarantine file in the cache directory,
    /// returning how many were removed. Failures are ignored — this is
    /// hygiene, never a correctness dependency.
    pub fn purge_corrupt(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_corrupt =
                path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(".corrupt"));
            if is_corrupt && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Crash recovery after an unclean shutdown (e.g. SIGKILL mid-write):
    /// sweeps **every** `*.tmp.*` leftover regardless of age (no writer from
    /// a previous life can still be live) and purges `*.corrupt` residue.
    /// Torn final entries need no sweep — their checksums fail on first read
    /// and the normal quarantine-and-recompute path self-heals them.
    /// Returns `(tmp_swept, corrupt_purged)`.
    pub fn recover(&self) -> (usize, usize) {
        (self.sweep_stale_tmp(Duration::ZERO), self.purge_corrupt())
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Removes `*.tmp.<pid>` files older than `ttl`. Anything that old
    /// predates this process (which was just started when the cache was
    /// opened), so its writer is gone and never renamed it into place.
    /// Returns the number of files removed. Failures are ignored — the
    /// sweep is hygiene, never a correctness dependency.
    pub fn sweep_stale_tmp(&self, ttl: Duration) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let now = SystemTime::now();
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_tmp =
                path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains(".tmp."));
            if !is_tmp {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| now.duration_since(mtime).ok())
                .is_some_and(|age| age >= ttl);
            if stale && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    fn graph_path(&self, ds: Dataset, scale: Scale) -> PathBuf {
        // Key on the generator configuration (not just the dataset name):
        // retuning a stand-in invalidates its cached graphs.
        let mut fp = Fnv64::new();
        fp.update(format!("{:?}", ds.config()).as_bytes());
        fp.update(&scale.factor().to_bits().to_le_bytes());
        self.dir.join(format!("graph_{}_{:016x}.bin", ds.abbrev().to_lowercase(), fp.digest()))
    }

    fn oag_path(&self, g: &Hypergraph, cfg: &OagConfig, side: Side) -> PathBuf {
        let mut fp = Fnv64::new();
        fp.update(&graph_fingerprint(g).to_le_bytes());
        fp.update(format!("{cfg:?}/{side:?}").as_bytes());
        self.dir.join(format!("oag_{:016x}.bin", fp.digest()))
    }

    /// Loads the cached stand-in for `(ds, scale)`, if present and intact.
    /// A present-but-corrupt entry is quarantined and reported as a miss,
    /// so the caller regenerates and overwrites it.
    pub fn load_graph(&self, ds: Dataset, scale: Scale) -> Option<Hypergraph> {
        let path = self.graph_path(ds, scale);
        let g = match File::open(&path) {
            Err(_) => None,
            Ok(f) => match hypergraph::io::read_binary(BufReader::new(f)) {
                Ok(g) => Some(g),
                Err(e) => {
                    self.quarantine(&path, &e.to_string());
                    None
                }
            },
        };
        self.count(g.is_some(), &self.graph_hits, &self.graph_misses);
        g
    }

    /// Persists the stand-in for `(ds, scale)`. Failures are ignored — the
    /// cache is an accelerator, never a correctness dependency.
    pub fn store_graph(&self, ds: Dataset, scale: Scale, g: &Hypergraph) {
        let _ = self
            .write_atomically(&self.graph_path(ds, scale), |w| hypergraph::io::write_binary(g, w));
    }

    /// Loads the cached OAG (and its build statistics) for `g` under
    /// `cfg`/`side`, if present and intact. A present-but-corrupt entry is
    /// quarantined and reported as a miss.
    pub fn load_oag(
        &self,
        g: &Hypergraph,
        cfg: &OagConfig,
        side: Side,
    ) -> Option<(Oag, OagBuildStats)> {
        let path = self.oag_path(g, cfg, side);
        let loaded = match File::open(&path) {
            Err(_) => None,
            Ok(f) => match read_oag_entry(BufReader::new(f)) {
                Ok(entry) => Some(entry),
                Err(e) => {
                    self.quarantine(&path, &e.to_string());
                    None
                }
            },
        };
        self.count(loaded.is_some(), &self.oag_hits, &self.oag_misses);
        loaded
    }

    /// Persists one side's OAG and build statistics.
    pub fn store_oag(
        &self,
        g: &Hypergraph,
        cfg: &OagConfig,
        side: Side,
        oag: &Oag,
        stats: &OagBuildStats,
    ) {
        let _ =
            self.write_atomically(&self.oag_path(g, cfg, side), |w| write_oag_entry(w, oag, stats));
    }

    /// Moves a corrupt entry out of the lookup path (to `<entry>.corrupt`)
    /// so it can never be re-read, logging the event. The caller treats
    /// the lookup as a miss and recomputes, so corruption costs time, not
    /// correctness.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut target = path.as_os_str().to_owned();
        target.push(".corrupt");
        let outcome = if self.remove_corrupt.load(Ordering::Relaxed) {
            if fs::remove_file(path).is_ok() {
                "removed"
            } else {
                "could not remove"
            }
        } else if fs::rename(path, &target).is_ok() {
            "quarantined"
        } else if fs::remove_file(path).is_ok() {
            // Rename can fail (e.g. a stale .corrupt file is in the way on
            // some platforms); removal equally keeps the entry from being
            // re-read.
            "removed"
        } else {
            "could not quarantine"
        };
        eprintln!(
            "[preprocess cache: corrupt entry {} ({reason}) — {outcome}, will recompute]",
            path.display()
        );
    }

    fn count(&self, hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
        if hit { hits } else { misses }.fetch_add(1, Ordering::Relaxed);
    }

    /// Write-to-temp + rename so concurrent harness processes never observe
    /// a torn entry. The temp file is removed if the write closure or the
    /// rename fails, so failed writes leave nothing behind.
    fn write_atomically(
        &self,
        path: &Path,
        write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
    ) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| {
            let mut w = BufWriter::new(File::create(&tmp)?);
            write(&mut w)?;
            w.flush()?;
            drop(w);
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// One-line hit/miss summary for the run log.
    pub fn summary(&self) -> String {
        let quarantined = self.quarantined.load(Ordering::Relaxed);
        let tail = if quarantined > 0 {
            format!(
                ", {quarantined} corrupt entr{} quarantined",
                if quarantined == 1 { "y" } else { "ies" }
            )
        } else {
            String::new()
        };
        format!(
            "preprocess cache [{}]: graphs {} hit / {} miss, oags {} hit / {} miss{tail}",
            self.dir.display(),
            self.graph_hits.load(Ordering::Relaxed),
            self.graph_misses.load(Ordering::Relaxed),
            self.oag_hits.load(Ordering::Relaxed),
            self.oag_misses.load(Ordering::Relaxed),
        )
    }

    /// Total artifact hits (graphs + OAGs).
    pub fn hits(&self) -> u64 {
        self.graph_hits.load(Ordering::Relaxed) + self.oag_hits.load(Ordering::Relaxed)
    }

    /// Total artifact misses (graphs + OAGs).
    pub fn misses(&self) -> u64 {
        self.graph_misses.load(Ordering::Relaxed) + self.oag_misses.load(Ordering::Relaxed)
    }

    /// Number of corrupt entries quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Per-kind counter snapshot (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            graph_hits: self.graph_hits.load(Ordering::Relaxed),
            graph_misses: self.graph_misses.load(Ordering::Relaxed),
            oag_hits: self.oag_hits.load(Ordering::Relaxed),
            oag_misses: self.oag_misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A `CHGC` container: the build statistics, then the `CHGO` OAG blob.
fn write_oag_entry<W: Write>(w: W, oag: &Oag, stats: &OagBuildStats) -> io::Result<()> {
    write_container(w, OAG_ENTRY_MAGIC, OAG_ENTRY_VERSION, |w| {
        w.write_all(&stats.two_hop_steps.to_le_bytes())?;
        w.write_all(&stats.pairs_considered.to_le_bytes())?;
        w.write_all(&(stats.edges_kept as u64).to_le_bytes())?;
        w.write_all(&stats.pivots_skipped.to_le_bytes())?;
        w.write_all(&(stats.size_bytes as u64).to_le_bytes())?;
        oag::io::write_binary(oag, w)
    })
}

fn read_oag_entry<R: Read>(r: R) -> io::Result<(Oag, OagBuildStats)> {
    read_container(r, OAG_ENTRY_MAGIC, OAG_ENTRY_VERSION, |r| {
        let stats = OagBuildStats {
            two_hop_steps: read_u64(r)?,
            pairs_considered: read_u64(r)?,
            edges_kept: read_u64(r)? as usize,
            pivots_skipped: read_u64(r)?,
            size_bytes: read_u64(r)? as usize,
        };
        let oag = oag::io::read_binary(r)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((oag, stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chg-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn oag_roundtrip_is_exact() {
        let dir = tmpdir("oag");
        let cache = PreprocessCache::new(&dir).unwrap();
        let g = crate::load_scaled(Dataset::LiveJournal, Scale(0.05));
        let cfg = OagConfig::new();
        let (oag, stats) = cfg.build_with_stats(&g, Side::Hyperedge);
        assert!(cache.load_oag(&g, &cfg, Side::Hyperedge).is_none());
        cache.store_oag(&g, &cfg, Side::Hyperedge, &oag, &stats);
        let (oag2, stats2) = cache.load_oag(&g, &cfg, Side::Hyperedge).expect("hit");
        assert_eq!(oag, oag2);
        assert_eq!(stats, stats2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_and_side_distinguish_entries() {
        let dir = tmpdir("keys");
        let cache = PreprocessCache::new(&dir).unwrap();
        let g = crate::load_scaled(Dataset::LiveJournal, Scale(0.05));
        let cfg = OagConfig::new();
        let (oag, stats) = cfg.build_with_stats(&g, Side::Hyperedge);
        cache.store_oag(&g, &cfg, Side::Hyperedge, &oag, &stats);
        assert!(cache.load_oag(&g, &cfg, Side::Vertex).is_none(), "side must key");
        let other = cfg.with_w_min(7);
        assert!(cache.load_oag(&g, &other, Side::Hyperedge).is_none(), "config must key");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_roundtrip_is_exact() {
        let dir = tmpdir("graph");
        let cache = PreprocessCache::new(&dir).unwrap();
        let g = crate::load_scaled(Dataset::Friendster, Scale(0.05));
        assert!(cache.load_graph(Dataset::Friendster, Scale(0.05)).is_none());
        cache.store_graph(Dataset::Friendster, Scale(0.05), &g);
        let g2 = cache.load_graph(Dataset::Friendster, Scale(0.05)).expect("hit");
        assert_eq!(g, g2);
        assert!(cache.load_graph(Dataset::Friendster, Scale(0.1)).is_none(), "scale must key");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_graph_entry_is_quarantined_and_recomputed() {
        let dir = tmpdir("quarantine");
        let cache = PreprocessCache::new(&dir).unwrap();
        let g = crate::load_scaled(Dataset::Friendster, Scale(0.05));
        cache.store_graph(Dataset::Friendster, Scale(0.05), &g);
        let path = cache.graph_path(Dataset::Friendster, Scale(0.05));
        // Flip one payload bit on disk.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_graph(Dataset::Friendster, Scale(0.05)).is_none(), "corrupt => miss");
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists(), "corrupt entry must leave the lookup path");
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        assert!(Path::new(&corrupt).exists(), "quarantined copy kept for post-mortems");
        // The standard store-after-miss flow self-heals the entry.
        cache.store_graph(Dataset::Friendster, Scale(0.05), &g);
        assert_eq!(cache.load_graph(Dataset::Friendster, Scale(0.05)).expect("healed"), g);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_oag_entry_is_quarantined() {
        let dir = tmpdir("truncated");
        let cache = PreprocessCache::new(&dir).unwrap();
        let g = crate::load_scaled(Dataset::LiveJournal, Scale(0.05));
        let cfg = OagConfig::new();
        let (oag, stats) = cfg.build_with_stats(&g, Side::Hyperedge);
        cache.store_oag(&g, &cfg, Side::Hyperedge, &oag, &stats);
        let path = cache.oag_path(&g, &cfg, Side::Hyperedge);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(cache.load_oag(&g, &cfg, Side::Hyperedge).is_none(), "torn => miss");
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_tmp_files() {
        let dir = tmpdir("tmpclean");
        let cache = PreprocessCache::new(&dir).unwrap();
        let err = cache.write_atomically(&dir.join("never.bin"), |_w| {
            Err(io::Error::other("injected write failure"))
        });
        assert!(err.is_err());
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(leftovers.is_empty(), "failed write must clean up its tmp file: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_at_open() {
        let dir = tmpdir("tmpsweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("graph_x.tmp.99999");
        fs::write(&stale, b"half-written").unwrap();
        // Age the file so the TTL check sees it as predating the process.
        let old = SystemTime::now() - Duration::from_secs(24 * 3600);
        let f = File::options().write(true).open(&stale).unwrap();
        f.set_times(fs::FileTimes::new().set_modified(old)).unwrap();
        drop(f);
        let _cache = PreprocessCache::new(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp file must be swept at cache open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_sweeps_fresh_tmp_and_purges_corrupt() {
        let dir = tmpdir("recover");
        fs::create_dir_all(&dir).unwrap();
        // A fresh tmp file (as if SIGKILL hit mid-write) and a quarantine
        // leftover from a previous life.
        fs::write(dir.join("graph_z.tmp.4242"), b"torn write").unwrap();
        fs::write(dir.join("oag_dead.bin.corrupt"), b"old quarantine").unwrap();
        let cache = PreprocessCache::new(&dir).unwrap();
        assert_eq!(cache.recover(), (1, 1));
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(leftovers.is_empty(), "recovery must leave no residue: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_corrupt_mode_deletes_instead_of_renaming() {
        let dir = tmpdir("removecorrupt");
        let cache = PreprocessCache::new(&dir).unwrap();
        cache.set_remove_corrupt(true);
        let g = crate::load_scaled(Dataset::Friendster, Scale(0.05));
        cache.store_graph(Dataset::Friendster, Scale(0.05), &g);
        let path = cache.graph_path(Dataset::Friendster, Scale(0.05));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_graph(Dataset::Friendster, Scale(0.05)).is_none());
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists());
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        assert!(!Path::new(&corrupt).exists(), "remove mode must not leave *.corrupt behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_tmp_files_survive_the_sweep() {
        let dir = tmpdir("tmpfresh");
        fs::create_dir_all(&dir).unwrap();
        let fresh = dir.join("graph_y.tmp.12345");
        fs::write(&fresh, b"concurrent writer in flight").unwrap();
        let cache = PreprocessCache::new(&dir).unwrap();
        assert!(fresh.exists(), "a just-written tmp file may belong to a live writer");
        assert_eq!(cache.sweep_stale_tmp(Duration::ZERO), 1, "ttl=0 sweeps everything");
        assert!(!fresh.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
