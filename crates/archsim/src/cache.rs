//! A set-associative write-back cache with true-LRU replacement.
//!
//! Storage is a single flat SoA allocation (`sets × ways` entries split
//! into parallel tag / flag / LRU-stamp arrays) rather than a `Vec` per
//! set: one simulated access touches a handful of adjacent array slots
//! with no pointer chase and no per-access allocation, which matters
//! because every simulated memory reference in this repository funnels
//! through [`Cache::access`]. The pre-rewrite nested layout is retained in
//! [`crate::reference`] (under the `reference-kernels` feature) and the
//! identity tests pin the two bit-identical.

use crate::CacheConfig;

/// Result of one cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// On a fill that evicted a dirty line: the evicted line's address.
    pub writeback: Option<u64>,
    /// On a fill that evicted any line (dirty or clean): its address. Used
    /// by inclusive parents to back-invalidate children.
    pub evicted: Option<u64>,
}

/// Dirty bit in the per-line `flags` array. Validity is *not* a flag: it
/// lives in bit 0 of the stored tag ([`Cache::tags`]), so the hit scan and
/// the victim scan read the tag array alone and `flags` is only touched on
/// writes, fills, and evictions.
const DIRTY: u8 = 1 << 1;

/// A single set-associative write-back cache with LRU replacement.
///
/// Addresses are byte addresses; the cache operates on line granularity.
///
/// ```
/// use archsim::{Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig { size_bytes: 1024, ways: 2, latency: 1 }, 64);
/// assert!(!c.access(0, false).hit); // cold miss (fills)
/// assert!(c.access(32, false).hit); // same line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Line tags, `sets × ways`, indexed `set * ways + way`. Stored as
    /// `(tag << 1) | 1` for resident lines and `0` for invalid ways, so a
    /// single `u64` compare per way answers "valid and matching" and the
    /// victim scan spots invalid ways without loading a second array. An
    /// 8-way set's tags are exactly one 64-byte host line.
    tags: Box<[u64]>,
    /// Last-touch stamps (true LRU), same indexing. Deliberately `u32`, not
    /// `u64`: the victim scan reads every way's stamp, so stamp width is
    /// directly victim-scan footprint (a 16-way set's stamps fit one host
    /// cache line at 4 bytes, two at 8). LRU only ever compares stamps
    /// *within* a set, so when the 32-bit clock runs out the stamps are
    /// re-based to their per-set LRU ranks ([`compact_stamps`]
    /// (Self::compact_stamps)) — order-preserving, hence unobservable —
    /// instead of widening the array.
    stamps: Box<[u32]>,
    /// Per-line [`VALID`]/[`DIRTY`] bits, same indexing.
    flags: Box<[u8]>,
    ways: usize,
    set_mask: u64,
    /// `set_mask.count_ones()`, precomputed so neither lookup nor the fill
    /// path recomputes index geometry per access.
    set_bits: u32,
    line_shift: u32,
    stamp: u32,
}

impl Cache {
    /// Creates an empty cache from `cfg` with the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or the geometry is
    /// degenerate.
    pub fn new(cfg: &CacheConfig, line_bytes: usize) -> Self {
        let num_sets = cfg.num_sets(line_bytes);
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        // invariant: the stored-tag encoding shifts the tag left by one, so
        // the tag must fit 63 bits — guaranteed as long as at least one
        // address bit goes to line offset or set index.
        assert!(
            line_bytes >= 2 || num_sets >= 2,
            "degenerate 1-byte-line single-set geometry overflows the tag encoding"
        );
        let entries = num_sets * cfg.ways;
        Cache {
            tags: vec![0; entries].into_boxed_slice(),
            stamps: vec![0; entries].into_boxed_slice(),
            flags: vec![0; entries].into_boxed_slice(),
            ways: cfg.ways,
            set_mask: num_sets as u64 - 1,
            set_bits: (num_sets as u64 - 1).count_ones(),
            line_shift: line_bytes.trailing_zeros(),
            stamp: 0,
        }
    }

    /// Set index and the *stored* tag probe (`(tag << 1) | 1`) for `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, ((line >> self.set_bits) << 1) | 1)
    }

    /// Reconstructs a line's byte address from its stored tag and set index.
    #[inline]
    fn line_addr(&self, stored_tag: u64, set_idx: usize) -> u64 {
        (((stored_tag >> 1) << self.set_bits) | set_idx as u64) << self.line_shift
    }

    /// Index of `addr`'s way within its set, if resident.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (set_idx, probe) = self.locate(addr);
        let base = set_idx * self.ways;
        (base..base + self.ways).find(|&i| self.tags[i] == probe)
    }

    /// Re-bases every stamp to its LRU rank within its set (`1..=ways`) and
    /// pulls the clock back to `ways`, freeing the rest of the `u32` stamp
    /// space. Victim selection compares stamps only within a set and ranks
    /// preserve that order exactly, so compaction is unobservable; it runs
    /// once per `u32::MAX` accesses (amortized zero) plus on
    /// [`force_stamp`](Self::force_stamp).
    fn compact_stamps(&mut self) {
        let ways = self.ways;
        let mut old: Vec<u32> = Vec::with_capacity(ways);
        for set in 0..self.tags.len() / ways {
            let base = set * ways;
            old.clear();
            old.extend_from_slice(&self.stamps[base..base + ways]);
            for i in 0..ways {
                // Rank = number of ways stamped strictly earlier (stamps of
                // valid ways are unique; invalid ways' stamps are never
                // compared, so their tie-break is irrelevant).
                let rank = old
                    .iter()
                    .enumerate()
                    .filter(|&(j, &s)| s < old[i] || (s == old[i] && j < i))
                    .count();
                self.stamps[base + i] = rank as u32 + 1;
            }
        }
        self.stamp = self.ways as u32;
    }

    /// Forces the LRU clock (test support for stamp-wrap coverage: park it
    /// just below `u32::MAX` and keep accessing). Compacts first, so
    /// current LRU order is preserved and `stamp` is a valid clock floor.
    pub fn force_stamp(&mut self, stamp: u32) {
        self.compact_stamps();
        self.stamp = self.stamp.max(stamp);
    }

    /// Looks up `addr`; on a miss, fills the line (write-allocate). `write`
    /// marks the line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        if self.stamp == u32::MAX {
            self.compact_stamps();
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_idx, probe) = self.locate(addr);
        let base = set_idx * self.ways;
        let tags = &self.tags[base..base + self.ways];
        // Hit scan: a fixed-trip pass over the set's tags alone (validity is
        // the tag's bit 0). A line is resident in at most one way, so no
        // early exit is needed. Read hits never touch `flags`.
        let mut hit = None;
        for (way, &t) in tags.iter().enumerate() {
            if t == probe {
                hit = Some(way);
            }
        }
        if let Some(way) = hit {
            self.stamps[base + way] = stamp;
            if write {
                self.flags[base + way] |= DIRTY;
            }
            return CacheAccess { hit: true, writeback: None, evicted: None };
        }
        // Victim scan, misses only: the first way with the least LRU key,
        // where invalid ways key 0 and valid ones `stamp + 1`, matching the
        // reference layout's `min_by_key` tie-breaking exactly.
        let stamps = &self.stamps[base..base + self.ways];
        let mut victim = base;
        let mut victim_key = u32::MAX;
        for (way, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
            let key = if t & 1 != 0 { s + 1 } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = base + way;
            }
        }
        // Miss: fill over the victim.
        let mut writeback = None;
        let mut evicted = None;
        let vt = self.tags[victim];
        if vt & 1 != 0 {
            let evicted_addr = self.line_addr(vt, set_idx);
            evicted = Some(evicted_addr);
            if self.flags[victim] & DIRTY != 0 {
                writeback = Some(evicted_addr);
            }
        }
        self.tags[victim] = probe;
        self.stamps[victim] = stamp;
        self.flags[victim] = if write { DIRTY } else { 0 };
        CacheAccess { hit: false, writeback, evicted }
    }

    /// Returns `true` if the line containing `addr` is present.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Invalidates the line containing `addr` if present; returns whether it
    /// was dirty (the caller decides what to do with the data).
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let i = self.find(addr)?;
        let dirty = self.flags[i] & DIRTY != 0;
        self.tags[i] = 0;
        self.flags[i] = 0;
        Some(dirty)
    }

    /// Marks the line containing `addr` dirty if present (used when a write
    /// is propagated to an inclusive parent).
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.flags[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Drops every line, forgetting dirtiness (used between independent
    /// simulations, never mid-run).
    pub fn flush_silently(&mut self) {
        self.flags.fill(0);
        self.tags.fill(0);
        self.stamps.fill(0);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t & 1 != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(&CacheConfig { size_bytes: 256, ways: 2, latency: 1 }, 64)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same 64-B line");
        assert!(!c.access(0x140, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_number % 2 == 0): 0x000, 0x080, 0x100.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000 so 0x080 is LRU
        let res = c.access(0x100, false); // evicts 0x080
        assert!(!res.hit);
        assert_eq!(res.evicted, Some(0x080));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        let res = c.access(0x100, false); // evicts dirty 0x000 (LRU)
        assert_eq!(res.writeback, Some(0x000));
        assert_eq!(res.evicted, Some(0x000));
    }

    #[test]
    fn clean_eviction_reports_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false);
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, None);
        assert!(res.evicted.is_some());
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x040, false);
        assert_eq!(c.invalidate(0x000), Some(true));
        assert_eq!(c.invalidate(0x040), Some(false));
        assert_eq!(c.invalidate(0x040), None);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn mark_dirty_then_evict_writes_back() {
        let mut c = tiny();
        c.access(0x000, false);
        assert!(c.mark_dirty(0x000));
        c.access(0x080, false);
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, Some(0x000));
        assert!(!c.mark_dirty(0xFC0), "absent line cannot be dirtied");
    }

    #[test]
    fn flush_silently_empties() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x040, true);
        assert_eq!(c.resident_lines(), 2);
        c.flush_silently();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x000, false).hit);
    }

    #[test]
    fn write_allocate_fills_dirty() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        // Evicting 0x000 must produce a writeback even though it was only
        // ever written once at fill time.
        let res = c.access(0x100, false);
        assert_eq!(res.writeback, Some(0x000));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        let mut c = tiny();
        // Lines 0x000 and 0x040 map to different sets (consecutive lines).
        c.access(0x000, false);
        c.access(0x040, false);
        assert!(c.contains(0x000));
        assert!(c.contains(0x040));
        assert_eq!(c.resident_lines(), 2);
    }

    /// The documented LRU semantics of the old nested layout, pinned
    /// against the flat layout: fills prefer the *first* invalid way, and
    /// among valid ways the one with the oldest stamp loses (first way on
    /// the — unreachable with unique stamps — tie).
    #[test]
    fn eviction_order_matches_nested_layout_semantics() {
        // 1 set x 4 ways: every line conflicts.
        let mut c = Cache::new(&CacheConfig { size_bytes: 256, ways: 4, latency: 1 }, 64);
        // Fill the four ways in order; no evictions while invalid ways
        // remain (the invalid way always wins the victim scan).
        for i in 0..4u64 {
            assert_eq!(c.access(i * 64, false).evicted, None, "way {i} fills an invalid slot");
        }
        // Re-touch ways 1 and 3; LRU order is now 0, 2, 1, 3.
        c.access(64, false);
        c.access(192, false);
        for expect in [0u64, 2, 1, 3] {
            let res = c.access((100 + expect) * 64, false);
            assert_eq!(res.evicted, Some(expect * 64), "LRU order must be 0,2,1,3");
        }
    }

    /// Parking the `u32` LRU clock at the very top and continuing to access
    /// must be unobservable: the rank compaction preserves per-set LRU
    /// order, so the stream stays identical to the never-wrapping `u64`
    /// reference across the wrap.
    #[test]
    fn lru_survives_stamp_wraparound() {
        let cfg = CacheConfig { size_bytes: 1024, ways: 4, latency: 1 };
        let mut flat = Cache::new(&cfg, 64);
        let mut nested = crate::reference::Cache::new(&cfg, 64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Warm both with an identical prefix so compaction has real LRU
        // state to preserve.
        for _ in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(flat.access(addr, state & 1 == 1), nested.access(addr, state & 1 == 1));
        }
        // Wrap the flat cache's clock mid-stream (the reference's u64 clock
        // never wraps; divergence would surface immediately).
        flat.force_stamp(u32::MAX - 50);
        for step in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(
                flat.access(addr, state & 1 == 1),
                nested.access(addr, state & 1 == 1),
                "step {step} after forcing the clock to the wrap edge"
            );
        }
        assert_eq!(flat.resident_lines(), nested.resident_lines());
    }

    /// Exhaustive stream identity against the retained nested reference
    /// implementation, across several geometries (the proptest suite in the
    /// workspace root covers random geometries; this unit test is the
    /// fast smoke version).
    #[test]
    fn matches_reference_cache_on_mixed_streams() {
        for (size, ways) in [(256usize, 2usize), (512, 4), (1024, 1), (4096, 8)] {
            let cfg = CacheConfig { size_bytes: size, ways, latency: 1 };
            let mut flat = Cache::new(&cfg, 64);
            let mut nested = crate::reference::Cache::new(&cfg, 64);
            let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
            for step in 0..20_000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = (state >> 16) % (size as u64 * 8);
                let write = state & 1 == 1;
                match state % 16 {
                    0 => assert_eq!(flat.invalidate(addr), nested.invalidate(addr), "step {step}"),
                    1 => assert_eq!(flat.mark_dirty(addr), nested.mark_dirty(addr), "step {step}"),
                    2 => assert_eq!(flat.contains(addr), nested.contains(addr), "step {step}"),
                    _ => assert_eq!(
                        flat.access(addr, write),
                        nested.access(addr, write),
                        "step {step}"
                    ),
                }
            }
            assert_eq!(flat.resident_lines(), nested.resident_lines());
        }
    }
}
