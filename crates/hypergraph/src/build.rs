//! Incremental construction of [`Hypergraph`]s.

use crate::{Csr, Hypergraph, VertexId};
use std::error::Error;
use std::fmt;

/// Error returned by [`HypergraphBuilder::add_hyperedge`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuildHypergraphError {
    /// A hyperedge referenced a vertex id `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The declared number of vertices.
        num_vertices: usize,
    },
    /// A hyperedge contained no vertices.
    EmptyHyperedge,
}

impl fmt::Display for BuildHypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildHypergraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} is out of range for {num_vertices} vertices")
            }
            BuildHypergraphError::EmptyHyperedge => f.write_str("hyperedge has no vertices"),
        }
    }
}

impl Error for BuildHypergraphError {}

/// Builder for [`Hypergraph`] values.
///
/// Hyperedges are appended one at a time and receive dense ids in insertion
/// order. Duplicate vertices within a single hyperedge are removed (a vertex
/// is either incident to a hyperedge or not); the first occurrence's position
/// is kept so incidence-list order stays deterministic.
///
/// The builder holds the hyperedge-side CSR arrays themselves: each
/// hyperedge is deduplicated straight onto the end of one flat incidence
/// array, a rejected hyperedge is truncated away again, and
/// [`HypergraphBuilder::build`] wraps the arrays without copying them. No
/// per-hyperedge allocation is made; [`HypergraphBuilder::with_capacity`]
/// sizes both arrays up front when the caller knows the totals.
///
/// ```
/// use hypergraph::{HypergraphBuilder, VertexId};
/// let mut b = HypergraphBuilder::new(3);
/// b.add_hyperedge([0, 2, 2].map(VertexId::new))?; // duplicate v2 dropped
/// let g = b.build();
/// assert_eq!(g.incident_vertices(hypergraph::HyperedgeId::new(0)).len(), 2);
/// # Ok::<(), hypergraph::BuildHypergraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct HypergraphBuilder {
    num_vertices: usize,
    /// Hyperedge-side CSR offsets: `offsets[h]..offsets[h + 1]` is
    /// hyperedge `h`'s slice of `targets`.
    offsets: Vec<u32>,
    /// Hyperedge-side CSR targets: every accepted hyperedge's deduplicated
    /// vertices, back to back.
    targets: Vec<u32>,
    seen: Vec<u32>,
    stamp: u32,
}

impl HypergraphBuilder {
    /// Creates a builder for a hypergraph over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        HypergraphBuilder::with_capacity(num_vertices, 0, 0)
    }

    /// Creates a builder with room for `hyperedges` hyperedges holding
    /// `incidences` vertices in total (before deduplication), so adding
    /// them never reallocates.
    pub fn with_capacity(num_vertices: usize, hyperedges: usize, incidences: usize) -> Self {
        let mut offsets = Vec::with_capacity(hyperedges + 1);
        offsets.push(0);
        HypergraphBuilder {
            num_vertices,
            offsets,
            targets: Vec::with_capacity(incidences),
            seen: vec![0; num_vertices],
            stamp: 0,
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of hyperedges added so far.
    pub fn num_hyperedges(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends a hyperedge incident to `vertices`.
    ///
    /// Duplicate vertices are dropped; the hyperedge receives the next dense
    /// [`HyperedgeId`](crate::HyperedgeId).
    ///
    /// # Errors
    ///
    /// Returns [`BuildHypergraphError::VertexOutOfRange`] if any vertex id is
    /// out of range, and [`BuildHypergraphError::EmptyHyperedge`] if the
    /// deduplicated vertex list is empty. A rejected hyperedge leaves the
    /// builder as it was: none of its vertices are kept and it takes no id.
    pub fn add_hyperedge<I>(&mut self, vertices: I) -> Result<(), BuildHypergraphError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        self.stamp += 1;
        let start = self.targets.len();
        for v in vertices {
            if v.index() >= self.num_vertices {
                self.targets.truncate(start);
                return Err(BuildHypergraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: self.num_vertices,
                });
            }
            if self.seen[v.index()] != self.stamp {
                self.seen[v.index()] = self.stamp;
                self.targets.push(v.raw());
            }
        }
        if self.targets.len() == start {
            return Err(BuildHypergraphError::EmptyHyperedge);
        }
        // invariant: ids are u32, so a structurally valid CSR cannot exceed
        // u32::MAX targets; overflow means the caller built an impossible
        // graph and nothing downstream could represent it.
        self.offsets
            .push(u32::try_from(self.targets.len()).expect("CSR exceeds u32 edge capacity"));
        Ok(())
    }

    /// Finishes construction, producing both CSR sides.
    pub fn build(self) -> Hypergraph {
        // Free the dedup stamps before the transpose allocates the vertex side.
        drop(self.seen);
        let hyperedge_csr = Csr::from_raw(self.offsets, self.targets);
        let vertex_csr = hyperedge_csr.transpose(self.num_vertices);
        Hypergraph::from_csr(hyperedge_csr, vertex_csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HyperedgeId;

    #[test]
    fn builds_fig1() {
        let g = crate::fig1_example();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_hyperedges(), 4);
        assert_eq!(g.num_bipartite_edges(), 12);
        assert_eq!(
            g.incident_vertices(HyperedgeId::new(1)),
            &[1, 2, 3, 5].map(|v| VertexId::new(v).raw())
        );
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let mut b = HypergraphBuilder::new(2);
        let err = b.add_hyperedge([VertexId::new(5)]).unwrap_err();
        assert_eq!(
            err,
            BuildHypergraphError::VertexOutOfRange { vertex: VertexId::new(5), num_vertices: 2 }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_empty_hyperedge() {
        let mut b = HypergraphBuilder::new(2);
        assert_eq!(b.add_hyperedge([]), Err(BuildHypergraphError::EmptyHyperedge));
    }

    #[test]
    fn dedups_within_hyperedge_keeping_order() {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([3, 1, 3, 1, 2].map(VertexId::new)).unwrap();
        let g = b.build();
        assert_eq!(g.incident_vertices(HyperedgeId::new(0)), &[3, 1, 2]);
    }

    #[test]
    fn dedup_stamp_does_not_leak_across_hyperedges() {
        let mut b = HypergraphBuilder::new(3);
        b.add_hyperedge([0, 1].map(VertexId::new)).unwrap();
        b.add_hyperedge([0, 1].map(VertexId::new)).unwrap();
        let g = b.build();
        // v0 must be incident to both hyperedges.
        assert_eq!(g.vertex_degree(VertexId::new(0)), 2);
    }

    #[test]
    fn failed_add_after_valid_vertices_leaves_no_partial_row() {
        let mut b = HypergraphBuilder::new(3);
        let err = b.add_hyperedge([0, 1, 9].map(VertexId::new)).unwrap_err();
        assert_eq!(
            err,
            BuildHypergraphError::VertexOutOfRange { vertex: VertexId::new(9), num_vertices: 3 }
        );
        assert_eq!(b.num_hyperedges(), 0);
        // v1 was stamped by the rejected row; it must still be taken here.
        b.add_hyperedge([2, 1].map(VertexId::new)).unwrap();
        let g = b.build();
        assert_eq!(g.num_hyperedges(), 1);
        assert_eq!(g.incident_vertices(HyperedgeId::new(0)), &[2, 1]);
        assert_eq!(g.num_bipartite_edges(), 2);
        assert_eq!(g.vertex_degree(VertexId::new(0)), 0);
    }

    #[test]
    fn failed_add_does_not_append() {
        let mut b = HypergraphBuilder::new(2);
        let _ = b.add_hyperedge([VertexId::new(9)]);
        assert_eq!(b.num_hyperedges(), 0);
        b.add_hyperedge([VertexId::new(0)]).unwrap();
        assert_eq!(b.num_hyperedges(), 1);
    }
}
