//! Compressed-sparse-row adjacency storage.
//!
//! Both sides of the bipartite hypergraph representation (Fig. 4(c) of the
//! paper) and the overlap-aware abstraction graph are stored as CSR: an
//! `offsets` array of length `n + 1` and a flat `targets` array, where the
//! neighbors of element `i` occupy `targets[offsets[i]..offsets[i + 1]]`.

use crate::validate::{self, ValidationError};
use serde::{Deserialize, Serialize};

/// A compressed-sparse-row adjacency structure over dense `u32` ids.
///
/// ```
/// use hypergraph::Csr;
/// let csr = Csr::from_adjacency(vec![vec![1, 2], vec![], vec![0]]);
/// assert_eq!(csr.len(), 3);
/// assert_eq!(csr.neighbors(0), &[1, 2]);
/// assert_eq!(csr.degree(1), 0);
/// assert_eq!(csr.num_edges(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Creates an empty CSR with zero rows.
    pub fn new() -> Self {
        Csr { offsets: vec![0], targets: Vec::new() }
    }

    /// Builds a CSR from per-row adjacency lists, preserving list order.
    pub fn from_adjacency(rows: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        for row in &rows {
            targets.extend_from_slice(row);
            // invariant: ids are u32, so a structurally valid CSR cannot
            // exceed u32::MAX targets; overflow means the caller built an
            // impossible graph and nothing downstream could represent it.
            offsets.push(u32::try_from(targets.len()).expect("CSR exceeds u32 edge capacity"));
        }
        Csr { offsets, targets }
    }

    /// Builds a CSR directly from raw `offsets`/`targets` arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays do not form a valid CSR (`offsets` empty,
    /// non-monotone, or final offset not equal to `targets.len()`). Use
    /// [`Csr::try_from_raw`] for untrusted data.
    pub fn from_raw(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        Csr::try_from_raw(offsets, targets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Csr::from_raw`]: builds a CSR from raw arrays, returning a
    /// typed [`ValidationError`] instead of panicking when they do not form
    /// a valid CSR. This is the constructor for *untrusted* data (file
    /// readers, deserialized caches).
    pub fn try_from_raw(offsets: Vec<u32>, targets: Vec<u32>) -> Result<Self, ValidationError> {
        validate::validate_offsets("CSR", &offsets, targets.len())?;
        Ok(Csr { offsets, targets })
    }

    /// Checks this CSR's structural invariants against `num_targets` valid
    /// target ids.
    ///
    /// Construction through [`Csr::from_adjacency`]/[`Csr::try_from_raw`]
    /// cannot violate the offsets invariants, but a deserialized CSR (the
    /// serde derive performs no checking) or one holding ids for an
    /// opposite side it was never checked against can. `what` names the
    /// structure in the returned error.
    pub fn validate(&self, what: &'static str, num_targets: usize) -> Result<(), ValidationError> {
        validate::validate_offsets(what, &self.offsets, self.targets.len())?;
        validate::validate_targets(what, &self.targets, num_targets)
    }

    /// Number of rows (source elements).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the CSR has zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored edges (entries in the target array).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of row `i`, in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The half-open target range of row `i` within [`Self::targets`].
    ///
    /// This is the `(first_offset, last_offset)` pair the simulated hardware
    /// reads from the offset array (paper §V-B, *offsets fetching* stage).
    #[inline]
    pub fn target_range(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// The raw offsets array (length `len() + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw flat targets array.
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Iterates `(row, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.len()).map(move |i| (i, self.neighbors(i)))
    }

    /// Returns the transpose: a CSR where `j` lists every `i` with an edge
    /// `i -> j`. `num_targets` is the number of rows of the transpose.
    ///
    /// Within each transposed row, sources appear in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if any target id is `>= num_targets`. Use
    /// [`Csr::try_transpose`] for untrusted data.
    pub fn transpose(&self, num_targets: usize) -> Csr {
        self.try_transpose(num_targets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Csr::transpose`]: returns a typed [`ValidationError`]
    /// instead of panicking when a target id is `>= num_targets`.
    pub fn try_transpose(&self, num_targets: usize) -> Result<Csr, ValidationError> {
        let mut counts = vec![0u32; num_targets + 1];
        validate::validate_targets("CSR", &self.targets, num_targets)?;
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor: Vec<u32> = offsets[..num_targets].to_vec();
        let mut targets = vec![0u32; self.targets.len()];
        for (src, row) in self.iter() {
            for &t in row {
                let slot = cursor[t as usize];
                // invariant: `src` indexes this CSR's rows, whose count is
                // bounded by u32 offsets.
                targets[slot as usize] = u32::try_from(src).expect("row id fits u32");
                cursor[t as usize] += 1;
            }
        }
        Ok(Csr { offsets, targets })
    }

    /// Returns `true` if `self` is exactly `rows.transpose(self.len())`:
    /// row `j` of `self` lists, in ascending order and with multiplicity,
    /// every row of `rows` that contains `j`. One pass over `rows` that
    /// never materializes the transpose and stops at the first mismatch.
    ///
    /// ```
    /// use hypergraph::Csr;
    /// let rows = Csr::from_adjacency(vec![vec![1, 0], vec![1]]);
    /// assert!(rows.transpose(2).is_transpose_of(&rows));
    /// assert!(!Csr::from_adjacency(vec![vec![0], vec![1, 0]]).is_transpose_of(&rows));
    /// ```
    pub fn is_transpose_of(&self, rows: &Csr) -> bool {
        if self.num_edges() != rows.num_edges() {
            return false;
        }
        // Rows are visited in ascending order, so each of our rows must be
        // consumed front to back. Equal edge counts and no row overrun
        // imply every row is consumed exactly.
        let mut cursor = self.offsets[..self.len()].to_vec();
        for (i, row) in rows.iter() {
            for &j in row {
                let Some(c) = cursor.get_mut(j as usize) else {
                    return false;
                };
                if *c == self.offsets[j as usize + 1] || self.targets[*c as usize] as usize != i {
                    return false;
                }
                *c += 1;
            }
        }
        true
    }

    /// Approximate resident size in bytes (offsets + targets), used by the
    /// preprocessing/storage-overhead experiment (Fig. 21(b)).
    pub fn size_bytes(&self) -> usize {
        (self.offsets.len() + self.targets.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_adjacency(vec![vec![0, 4, 6], vec![1, 2, 3, 5], vec![0, 2, 4], vec![1, 3]])
    }

    #[test]
    fn from_adjacency_preserves_rows() {
        let csr = sample();
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.num_edges(), 12);
        assert_eq!(csr.neighbors(0), &[0, 4, 6]);
        assert_eq!(csr.neighbors(3), &[1, 3]);
        assert_eq!(csr.degree(1), 4);
    }

    #[test]
    fn empty_csr() {
        let csr = Csr::new();
        assert!(csr.is_empty());
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(Csr::default(), Csr { offsets: vec![], targets: vec![] });
    }

    #[test]
    fn target_range_matches_neighbors() {
        let csr = sample();
        let (lo, hi) = csr.target_range(2);
        assert_eq!(&csr.targets()[lo..hi], csr.neighbors(2));
    }

    #[test]
    fn transpose_inverts_edges() {
        let csr = sample();
        let t = csr.transpose(7);
        assert_eq!(t.len(), 7);
        assert_eq!(t.num_edges(), csr.num_edges());
        // v0 is in h0 and h2 (paper Fig. 4(c) vertex CSR).
        assert_eq!(t.neighbors(0), &[0, 2]);
        assert_eq!(t.neighbors(6), &[0]);
        assert_eq!(t.neighbors(5), &[1]);
    }

    #[test]
    fn double_transpose_is_identity_for_sorted_rows() {
        let csr = sample();
        let back = csr.transpose(7).transpose(4);
        assert_eq!(back, csr);
    }

    #[test]
    fn is_transpose_of_matches_materialized_transpose() {
        let csr = sample();
        let t = csr.transpose(7);
        assert!(t.is_transpose_of(&csr));
        // Same rows, one out of order: the multisets agree but the
        // check is for the exact (ascending) transpose.
        let mut rows: Vec<Vec<u32>> = t.iter().map(|(_, r)| r.to_vec()).collect();
        rows[0].reverse();
        assert!(!Csr::from_adjacency(rows).is_transpose_of(&csr));
        // Same edge count, one incidence moved; a column out of range; an
        // extra incidence.
        let moved =
            Csr::from_adjacency(vec![vec![0, 4, 6], vec![1, 2, 3, 5], vec![0, 2, 4], vec![1, 4]]);
        assert!(!t.is_transpose_of(&moved));
        let wide =
            Csr::from_adjacency(vec![vec![0, 4, 6], vec![1, 2, 3, 5], vec![0, 2, 4], vec![1, 9]]);
        assert!(!t.is_transpose_of(&wide));
        assert!(!t.is_transpose_of(&Csr::from_adjacency(vec![vec![0, 4, 6, 6]])));
        // Duplicates count with multiplicity.
        let dup = Csr::from_adjacency(vec![vec![1, 1], vec![0]]);
        assert!(dup.transpose(2).is_transpose_of(&dup));
    }

    #[test]
    fn from_raw_validates() {
        let csr = Csr::from_raw(vec![0, 2, 3], vec![5, 6, 7]);
        assert_eq!(csr.neighbors(0), &[5, 6]);
        assert_eq!(csr.neighbors(1), &[7]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_raw_rejects_non_monotone() {
        let _ = Csr::from_raw(vec![0, 3, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "final CSR offset")]
    fn from_raw_rejects_bad_total() {
        let _ = Csr::from_raw(vec![0, 2], vec![1, 2, 3]);
    }

    #[test]
    fn try_from_raw_returns_typed_errors() {
        assert!(Csr::try_from_raw(vec![0, 2], vec![5, 6]).is_ok());
        assert!(matches!(
            Csr::try_from_raw(vec![], vec![]),
            Err(ValidationError::EmptyOffsets { .. })
        ));
        assert!(matches!(
            Csr::try_from_raw(vec![0, 3, 2], vec![1, 2, 3]),
            Err(ValidationError::NonMonotoneOffsets { index: 1, before: 3, after: 2, .. })
        ));
        assert!(matches!(
            Csr::try_from_raw(vec![0, 2], vec![1, 2, 3]),
            Err(ValidationError::TargetCountMismatch { final_offset: 2, num_targets: 3, .. })
        ));
    }

    #[test]
    fn try_transpose_rejects_out_of_range() {
        let csr = sample();
        assert!(csr.try_transpose(7).is_ok());
        assert!(matches!(
            csr.try_transpose(5),
            Err(ValidationError::TargetOutOfRange { target: 6, limit: 5, .. })
        ));
    }

    #[test]
    fn validate_checks_range() {
        let csr = sample();
        assert!(csr.validate("CSR", 7).is_ok());
        assert!(matches!(
            csr.validate("CSR", 6),
            Err(ValidationError::TargetOutOfRange { target: 6, limit: 6, .. })
        ));
    }

    #[test]
    fn size_bytes_counts_both_arrays() {
        let csr = sample();
        assert_eq!(csr.size_bytes(), (5 + 12) * 4);
    }
}
