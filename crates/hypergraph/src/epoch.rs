//! Epoch-tagged marks for hot preprocessing kernels.
//!
//! Chain generation needs a per-round "have I seen element `i` this
//! round?" set over a dense `u32` id universe. A `HashSet` pays a hash per
//! probe; a fresh `vec![false; n]` (or a `fill(false)`) pays an `O(n)`
//! clear per round, which dominates when rounds touch only a sparse
//! subset.
//!
//! The classic fix — the idiom the ChGraph paper's own preprocessing cost
//! model assumes (§IV-A) — is an *epoch tag*: one dense array of `u32`
//! stamps plus a current-epoch counter. A slot is "set" iff its stamp
//! equals the current epoch, so "clear everything" is a counter bump, and
//! probes stay one indexed load. The tag wrapping around to a
//! previously-used value would make stale slots readable again, so
//! [`EpochMarks`] falls back to one real `O(n)` clear once per `u32::MAX`
//! rounds (amortized zero); the wraparound tests here and in the workspace
//! root force the tag to the edge and prove kernels stay identical across
//! it.

/// A dense set over `0..universe` with `O(1)` clear via epoch bump.
///
/// ```
/// use hypergraph::epoch::EpochMarks;
/// let mut m = EpochMarks::new();
/// m.begin(8);
/// assert!(!m.mark(3)); // newly marked
/// assert!(m.mark(3)); // already marked this round
/// m.begin(8); // O(1) clear
/// assert!(!m.is_marked(3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EpochMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    /// Creates an empty scratch; the universe is sized by [`begin`](Self::begin).
    pub fn new() -> Self {
        EpochMarks::default()
    }

    /// Starts a new round over `0..universe`: grows the stamp array if
    /// needed and invalidates every previous mark (a counter bump, except
    /// once per `u32::MAX` rounds where the array is truly cleared).
    pub fn begin(&mut self, universe: usize) {
        if self.stamps.len() < universe {
            self.stamps.resize(universe, self.epoch);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Marks `i`; returns `true` if it was **already** marked this round.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe of the last [`begin`](Self::begin).
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let slot = &mut self.stamps[i];
        if *slot == self.epoch {
            true
        } else {
            *slot = self.epoch;
            false
        }
    }

    /// Returns `true` if `i` was marked this round.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Forces the epoch counter (test support for wraparound coverage:
    /// park the counter just below `u32::MAX` and keep running rounds).
    /// Invalidates all current marks.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.stamps.fill(0);
        self.epoch = epoch.max(1);
    }

    /// The current epoch value (observability for wraparound tests).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_round_trip() {
        let mut m = EpochMarks::new();
        m.begin(10);
        assert!(!m.is_marked(7));
        assert!(!m.mark(7));
        assert!(m.mark(7));
        assert!(m.is_marked(7));
        assert!(!m.is_marked(6));
        m.begin(10);
        assert!(!m.is_marked(7), "begin clears marks");
    }

    #[test]
    fn marks_grow_universe() {
        let mut m = EpochMarks::new();
        m.begin(4);
        m.mark(3);
        m.begin(16);
        assert!(!m.is_marked(3));
        assert!(!m.mark(15));
    }

    #[test]
    fn marks_survive_epoch_wraparound() {
        let mut m = EpochMarks::new();
        m.force_epoch(u32::MAX - 2);
        // Mark a slot, then run rounds across the wrap; stale stamps must
        // never read as marked.
        for round in 0..6 {
            m.begin(8);
            assert!(!m.is_marked(5), "round {round}: stale mark resurfaced");
            assert!(!m.mark(5));
            assert!(m.is_marked(5));
        }
        assert!(m.epoch() >= 1);
    }
}
