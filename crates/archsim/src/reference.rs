//! Retained reference kernels (pre-flattening implementations).
//!
//! [`reference::Cache`](Cache) is the original nested-`Vec` set-associative
//! cache this crate shipped before the flat SoA rewrite of
//! [`crate::Cache`]. It is kept — compiled only under `cfg(test)` or the
//! `reference-kernels` feature — as the behavioural oracle: the identity
//! test suite replays random access streams through both implementations
//! and asserts every [`CacheAccess`] result and the resident-line census
//! are bit-identical.

use crate::{CacheAccess, CacheConfig};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The pre-rewrite set-associative write-back LRU cache: one heap-allocated
/// `Vec<Line>` per set (a pointer chase per access), with the set-index
/// width recomputed from the mask on every lookup.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    stamp: u64,
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
        Cache {
            sets: vec![vec![Line::default(); cfg.ways]; num_sets],
            set_mask: num_sets as u64 - 1,
            line_shift: line_bytes.trailing_zeros(),
            stamp: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Looks up `addr`; on a miss, fills the line (write-allocate). `write`
    /// marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_idx, tag) = self.locate(addr);
        let shift = self.line_shift;
        let mask_bits = self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = stamp;
            line.dirty |= write;
            return CacheAccess { hit: true, writeback: None, evicted: None };
        }
        // Miss: pick the LRU victim (preferring invalid ways).
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            // invariant: CacheConfig validates ways >= 1, so every set is
            // non-empty.
            .expect("cache has at least one way");
        let mut writeback = None;
        let mut evicted = None;
        if victim.valid {
            let evicted_addr = ((victim.tag << mask_bits) | set_idx as u64) << shift;
            evicted = Some(evicted_addr);
            if victim.dirty {
                writeback = Some(evicted_addr);
            }
        }
        *victim = Line { tag, valid: true, dirty: write, lru: stamp };
        CacheAccess { hit: false, writeback, evicted }
    }

    /// Returns `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr` if present; returns whether it
    /// was dirty (the caller decides what to do with the data).
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set_idx, tag) = self.locate(addr);
        let line = self.sets[set_idx].iter_mut().find(|l| l.valid && l.tag == tag)?;
        line.valid = false;
        Some(std::mem::replace(&mut line.dirty, false))
    }

    /// Marks the line containing `addr` dirty if present (used when a write
    /// is propagated to an inclusive parent).
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty = true;
            true
        } else {
            false
        }
    }

    /// Drops every line, forgetting dirtiness (used between independent
    /// simulations, never mid-run).
    pub fn flush_silently(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}
