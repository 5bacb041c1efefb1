//! An array of identical set-associative write-back caches with true-LRU
//! replacement.
//!
//! Storage is a single flat SoA allocation (`count × sets × ways` entries
//! split into parallel tag / flag / LRU-stamp arrays) rather than a `Vec`
//! per set or a `Cache` per core: one simulated access touches a handful
//! of adjacent array slots with no pointer chase and no per-access
//! allocation, which matters because every simulated memory reference in
//! this repository funnels through [`Cache::access`]. That function keeps
//! only the hit case inline; the victim scan and fill are the out-of-line
//! `Cache::fill`. A machine level with one cache per core (or per L3 bank)
//! is one `Cache` with that many instances; instance `i` owns entries
//! `i · sets · ways ..`. The pre-rewrite nested layout of a single cache is
//! retained in [`crate::reference`] (under the `reference-kernels`
//! feature) and the identity tests pin every instance bit-identical to its
//! own copy of it.

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

/// `count` identical set-associative write-back caches with LRU
/// replacement, addressed by instance index (`0..count`). A single cache is
/// `count = 1`.
///
/// Addresses are byte addresses; each instance operates on line
/// granularity and never observes another instance's lines.
///
/// ```
/// use archsim::{Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig { size_bytes: 1024, ways: 2, latency: 1 }, 64, 2);
/// assert!(!c.access(0, 0, false).hit); // cold miss (fills instance 0)
/// assert!(c.access(0, 32, false).hit); // same line
/// assert!(!c.access(1, 32, false).hit); // instance 1 is separate
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Line tags, `count × sets × ways`, indexed
    /// `(instance · sets + set) · ways + way`. Stored as `(tag << 1) | 1`
    /// for resident lines and `0` for invalid ways, so a single `u64`
    /// compare per way answers "valid and matching" and the victim scan
    /// spots invalid ways without loading a second array. An 8-way set's
    /// tags are exactly one 64-byte host line.
    tags: Box<[u64]>,
    /// Last-touch stamps (true LRU), same indexing, from one clock shared
    /// by every instance. LRU only ever compares stamps *within* a set, and
    /// a set belongs to one instance, so a shared clock orders each set's
    /// ways exactly as a private one would. Deliberately `u32`, not `u64`:
    /// the victim scan reads every way's stamp, so stamp width is directly
    /// victim-scan footprint (a 16-way set's stamps fit one host cache line
    /// at 4 bytes, two at 8). When the 32-bit clock runs out the stamps
    /// are re-based to their per-set LRU ranks ([`compact_stamps`]
    /// (Self::compact_stamps)) — order-preserving, hence unobservable —
    /// instead of widening the array.
    stamps: Box<[u32]>,
    /// Per-line [`DIRTY`] bit, same indexing.
    flags: Box<[u8]>,
    ways: usize,
    set_mask: u64,
    /// `set_mask.count_ones()`, precomputed so neither lookup nor the fill
    /// path recomputes index geometry per access; also the shift from an
    /// instance index to its first set.
    set_bits: u32,
    line_shift: u32,
    stamp: u32,
}

impl Cache {
    /// Creates `count` empty caches from `cfg` with the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, the geometry is
    /// degenerate, or `count` is zero.
    pub fn new(cfg: &CacheConfig, line_bytes: usize, count: usize) -> Self {
        let num_sets = cfg.num_sets(line_bytes);
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        assert!(count > 0, "a cache array needs at least one instance");
        // invariant: the stored-tag encoding shifts the tag left by one, so
        // the tag must fit 63 bits — guaranteed as long as at least one
        // address bit goes to line offset or set index.
        assert!(
            line_bytes >= 2 || num_sets >= 2,
            "degenerate 1-byte-line single-set geometry overflows the tag encoding"
        );
        let entries = count * num_sets * cfg.ways;
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

    /// Set index within an instance, first entry of that set in instance
    /// `i`, and the *stored* tag probe (`(tag << 1) | 1`) for `addr`. An
    /// instance index `>= count` (short of overflowing the shift) yields a
    /// base past the array, so the caller's slice of the set panics.
    #[inline]
    fn locate(&self, i: usize, addr: u64) -> (usize, usize, u64) {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let base = ((i << self.set_bits) | set_idx) * self.ways;
        (set_idx, base, ((line >> self.set_bits) << 1) | 1)
    }

    /// Reconstructs a line's byte address from its stored tag and set index.
    #[inline]
    fn line_addr(&self, stored_tag: u64, set_idx: usize) -> u64 {
        (((stored_tag >> 1) << self.set_bits) | set_idx as u64) << self.line_shift
    }

    /// Entry index of `addr`'s way in instance `i`, if resident.
    #[inline]
    fn find(&self, i: usize, addr: u64) -> Option<usize> {
        let (_, base, probe) = self.locate(i, addr);
        let tags = &self.tags[base..base + self.ways];
        tags.iter().position(|&t| t == probe).map(|way| base + way)
    }

    /// Re-bases every stamp to its LRU rank within its set (`1..=ways`) and
    /// pulls the clock back to `ways`, freeing the rest of the `u32` stamp
    /// space. Victim selection compares stamps only within a set and ranks
    /// preserve that order exactly, so compaction is unobservable; it runs
    /// once per `u32::MAX` accesses to the whole array (amortized zero)
    /// plus on [`force_stamp`](Self::force_stamp).
    #[cold]
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

    /// Forces the array's LRU clock (test support for stamp-wrap coverage:
    /// park it just below `u32::MAX` and keep accessing). Compacts first, so
    /// current LRU order is preserved and `stamp` is a valid clock floor.
    pub fn force_stamp(&mut self, stamp: u32) {
        self.compact_stamps();
        self.stamp = self.stamp.max(stamp);
    }

    /// Looks up `addr` in instance `i`; on a miss, fills the line
    /// (write-allocate). `write` marks the line dirty.
    ///
    /// Only the hit case is inline: the stamp bump, the hit scan and the
    /// hit update. A miss tails into the out-of-line `Cache::fill`, which
    /// keeps this body small enough to inline into every
    /// [`Machine::access`](crate::Machine::access) call site.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    #[inline]
    pub fn access(&mut self, i: usize, addr: u64, write: bool) -> CacheAccess {
        if self.stamp == u32::MAX {
            self.compact_stamps();
        }
        self.stamp += 1;
        let (set_idx, base, probe) = self.locate(i, addr);
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
        match hit {
            Some(way) => {
                self.stamps[base + way] = self.stamp;
                if write {
                    self.flags[base + way] |= DIRTY;
                }
                CacheAccess { hit: true, writeback: None, evicted: None }
            }
            None => self.fill(set_idx, base, probe, write),
        }
    }

    /// The miss half of [`access`](Self::access): picks the victim in the
    /// set at `base`, reports its eviction (and writeback, if dirty), and
    /// fills `probe` over it with the current stamp.
    #[inline(never)]
    fn fill(&mut self, set_idx: usize, base: usize, probe: u64, write: bool) -> CacheAccess {
        // Victim scan: the first way with the least LRU key, where invalid
        // ways key 0 and valid ones `stamp + 1`, matching the reference
        // layout's `min_by_key` tie-breaking exactly.
        let tags = &self.tags[base..base + self.ways];
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
        self.stamps[victim] = self.stamp;
        self.flags[victim] = if write { DIRTY } else { 0 };
        CacheAccess { hit: false, writeback, evicted }
    }

    /// Returns `true` if the line containing `addr` is present in
    /// instance `i`.
    #[inline]
    pub fn contains(&self, i: usize, addr: u64) -> bool {
        self.find(i, addr).is_some()
    }

    /// Invalidates the line containing `addr` in instance `i` if present;
    /// returns whether it was dirty (the caller decides what to do with the
    /// data).
    pub fn invalidate(&mut self, i: usize, addr: u64) -> Option<bool> {
        let e = self.find(i, addr)?;
        let dirty = self.flags[e] & DIRTY != 0;
        self.tags[e] = 0;
        self.flags[e] = 0;
        Some(dirty)
    }

    /// Marks the line containing `addr` in instance `i` dirty if present
    /// (used when a write is propagated to an inclusive parent).
    pub fn mark_dirty(&mut self, i: usize, addr: u64) -> bool {
        match self.find(i, addr) {
            Some(e) => {
                self.flags[e] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Drops every line of every instance, forgetting dirtiness (used
    /// between independent simulations, never mid-run).
    pub fn flush_silently(&mut self) {
        self.flags.fill(0);
        self.tags.fill(0);
        self.stamps.fill(0);
    }

    /// Number of valid lines currently resident in instance `i`.
    pub fn resident_lines(&self, i: usize) -> usize {
        let len = (self.set_mask as usize + 1) * self.ways;
        self.tags[i * len..(i + 1) * len].iter().filter(|&&t| t & 1 != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(&CacheConfig { size_bytes: 256, ways: 2, latency: 1 }, 64, 1)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, 0x100, false).hit);
        assert!(c.access(0, 0x100, false).hit);
        assert!(c.access(0, 0x13F, false).hit, "same 64-B line");
        assert!(!c.access(0, 0x140, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_number % 2 == 0): 0x000, 0x080, 0x100.
        c.access(0, 0x000, false);
        c.access(0, 0x080, false);
        c.access(0, 0x000, false); // touch 0x000 so 0x080 is LRU
        let res = c.access(0, 0x100, false); // evicts 0x080
        assert!(!res.hit);
        assert_eq!(res.evicted, Some(0x080));
        assert!(c.contains(0, 0x000));
        assert!(!c.contains(0, 0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, 0x000, true);
        c.access(0, 0x080, false);
        let res = c.access(0, 0x100, false); // evicts dirty 0x000 (LRU)
        assert_eq!(res.writeback, Some(0x000));
        assert_eq!(res.evicted, Some(0x000));
    }

    #[test]
    fn clean_eviction_reports_no_writeback() {
        let mut c = tiny();
        c.access(0, 0x000, false);
        c.access(0, 0x080, false);
        let res = c.access(0, 0x100, false);
        assert_eq!(res.writeback, None);
        assert!(res.evicted.is_some());
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.access(0, 0x000, true);
        c.access(0, 0x040, false);
        assert_eq!(c.invalidate(0, 0x000), Some(true));
        assert_eq!(c.invalidate(0, 0x040), Some(false));
        assert_eq!(c.invalidate(0, 0x040), None);
        assert!(!c.contains(0, 0x000));
    }

    #[test]
    fn mark_dirty_then_evict_writes_back() {
        let mut c = tiny();
        c.access(0, 0x000, false);
        assert!(c.mark_dirty(0, 0x000));
        c.access(0, 0x080, false);
        let res = c.access(0, 0x100, false);
        assert_eq!(res.writeback, Some(0x000));
        assert!(!c.mark_dirty(0, 0xFC0), "absent line cannot be dirtied");
    }

    #[test]
    fn flush_silently_empties() {
        let mut c = tiny();
        c.access(0, 0x000, true);
        c.access(0, 0x040, true);
        assert_eq!(c.resident_lines(0), 2);
        c.flush_silently();
        assert_eq!(c.resident_lines(0), 0);
        assert!(!c.access(0, 0x000, false).hit);
    }

    #[test]
    fn write_allocate_fills_dirty() {
        let mut c = tiny();
        c.access(0, 0x000, true);
        c.access(0, 0x080, false);
        // Evicting 0x000 must produce a writeback even though it was only
        // ever written once at fill time.
        let res = c.access(0, 0x100, false);
        assert_eq!(res.writeback, Some(0x000));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        let mut c = tiny();
        // Lines 0x000 and 0x040 map to different sets (consecutive lines).
        c.access(0, 0x000, false);
        c.access(0, 0x040, false);
        assert!(c.contains(0, 0x000));
        assert!(c.contains(0, 0x040));
        assert_eq!(c.resident_lines(0), 2);
    }

    /// The documented LRU semantics of the old nested layout, pinned
    /// against the flat layout: fills prefer the *first* invalid way, and
    /// among valid ways the one with the oldest stamp loses (first way on
    /// the — unreachable with unique stamps — tie).
    #[test]
    fn eviction_order_matches_nested_layout_semantics() {
        // 1 set x 4 ways: every line conflicts.
        let mut c = Cache::new(&CacheConfig { size_bytes: 256, ways: 4, latency: 1 }, 64, 1);
        // Fill the four ways in order; no evictions while invalid ways
        // remain (the invalid way always wins the victim scan).
        for i in 0..4u64 {
            assert_eq!(c.access(0, i * 64, false).evicted, None, "way {i} fills an invalid slot");
        }
        // Re-touch ways 1 and 3; LRU order is now 0, 2, 1, 3.
        c.access(0, 64, false);
        c.access(0, 192, false);
        for expect in [0u64, 2, 1, 3] {
            let res = c.access(0, (100 + expect) * 64, false);
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
        let mut flat = Cache::new(&cfg, 64, 1);
        let mut nested = crate::reference::Cache::new(&cfg, 64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Warm both with an identical prefix so compaction has real LRU
        // state to preserve.
        for _ in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(flat.access(0, addr, state & 1 == 1), nested.access(addr, state & 1 == 1));
        }
        // Wrap the flat cache's clock mid-stream (the reference's u64 clock
        // never wraps; divergence would surface immediately).
        flat.force_stamp(u32::MAX - 50);
        for step in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (cfg.size_bytes as u64 * 8);
            assert_eq!(
                flat.access(0, addr, state & 1 == 1),
                nested.access(addr, state & 1 == 1),
                "step {step} after forcing the clock to the wrap edge"
            );
        }
        assert_eq!(flat.resident_lines(0), nested.resident_lines());
    }

    /// Exhaustive stream identity against the retained nested reference
    /// implementation, across several geometries (the proptest suite in the
    /// workspace root covers random geometries; this unit test is the
    /// fast smoke version).
    #[test]
    fn matches_reference_cache_on_mixed_streams() {
        for (size, ways) in [(256usize, 2usize), (512, 4), (1024, 1), (4096, 8)] {
            let cfg = CacheConfig { size_bytes: size, ways, latency: 1 };
            let mut flat = Cache::new(&cfg, 64, 1);
            let mut nested = crate::reference::Cache::new(&cfg, 64);
            let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
            for step in 0..20_000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = (state >> 16) % (size as u64 * 8);
                let write = state & 1 == 1;
                match state % 16 {
                    0 => {
                        assert_eq!(flat.invalidate(0, addr), nested.invalidate(addr), "step {step}")
                    }
                    1 => {
                        assert_eq!(flat.mark_dirty(0, addr), nested.mark_dirty(addr), "step {step}")
                    }
                    2 => assert_eq!(flat.contains(0, addr), nested.contains(addr), "step {step}"),
                    _ => assert_eq!(
                        flat.access(0, addr, write),
                        nested.access(addr, write),
                        "step {step}"
                    ),
                }
            }
            assert_eq!(flat.resident_lines(0), nested.resident_lines());
        }
    }
}
