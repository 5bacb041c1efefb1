//! Logical address-space layout and per-array access classification.
//!
//! Runtimes issue accesses as `(Region, element index)` pairs. The
//! [`AddressMap`] lays every region out contiguously (line-aligned) in a
//! single flat physical address space, so cache behaviour is realistic, and
//! classifies any address back to its region, which produces the per-array
//! main-memory-access breakdown of Fig. 15.

use serde::{Deserialize, Serialize};

/// The named data arrays of the chain-driven hypergraph system (Fig. 13).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Region {
    /// `hyperedge_offset` — CSR offsets of the hyperedge side.
    HyperedgeOffset,
    /// `incident_vertex` — CSR targets of the hyperedge side.
    IncidentVertex,
    /// `hyperedge_value` — hyperedge attribute array.
    HyperedgeValue,
    /// `vertex_offset` — CSR offsets of the vertex side.
    VertexOffset,
    /// `incident_hyperedge` — CSR targets of the vertex side.
    IncidentHyperedge,
    /// `vertex_value` — vertex attribute array.
    VertexValue,
    /// `OAG_offset` for the hyperedge OAG.
    HOagOffset,
    /// `OAG_edge` for the hyperedge OAG.
    HOagEdge,
    /// `OAG_weight` for the hyperedge OAG.
    HOagWeight,
    /// `OAG_offset` for the vertex OAG.
    VOagOffset,
    /// `OAG_edge` for the vertex OAG.
    VOagEdge,
    /// `OAG_weight` for the vertex OAG.
    VOagWeight,
    /// The active-element bitmap.
    Bitmap,
    /// Frontier worklists, per-iteration scratch, and miscellany.
    Other,
}

impl Region {
    /// All regions, in layout order.
    pub const ALL: [Region; 14] = [
        Region::HyperedgeOffset,
        Region::IncidentVertex,
        Region::HyperedgeValue,
        Region::VertexOffset,
        Region::IncidentHyperedge,
        Region::VertexValue,
        Region::HOagOffset,
        Region::HOagEdge,
        Region::HOagWeight,
        Region::VOagOffset,
        Region::VOagEdge,
        Region::VOagWeight,
        Region::Bitmap,
        Region::Other,
    ];

    /// Dense index of the region (for array-backed counters).
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// The presentation group used by Fig. 15's breakdown.
    pub fn group(self) -> RegionGroup {
        match self {
            Region::HyperedgeOffset | Region::VertexOffset => RegionGroup::Offsets,
            Region::IncidentVertex | Region::IncidentHyperedge => RegionGroup::Incident,
            Region::HyperedgeValue | Region::VertexValue => RegionGroup::Values,
            Region::HOagOffset
            | Region::HOagEdge
            | Region::HOagWeight
            | Region::VOagOffset
            | Region::VOagEdge
            | Region::VOagWeight => RegionGroup::Oag,
            Region::Bitmap | Region::Other => RegionGroup::Other,
        }
    }

    /// Returns `true` for the read-only OAG arrays, whose evicted lines are
    /// dropped rather than written back (paper §V-A).
    pub fn is_oag(self) -> bool {
        self.group() == RegionGroup::Oag
    }
}

/// Fig. 15's five presentation groups of the data arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum RegionGroup {
    /// `hyperedge_offset` + `vertex_offset`.
    Offsets,
    /// `incident_vertex` + `incident_hyperedge`.
    Incident,
    /// `hyperedge_value` + `vertex_value`.
    Values,
    /// The six OAG arrays.
    Oag,
    /// Bitmap and miscellany.
    Other,
}

impl RegionGroup {
    /// All groups, in Fig. 15's order.
    pub const ALL: [RegionGroup; 5] = [
        RegionGroup::Offsets,
        RegionGroup::Incident,
        RegionGroup::Values,
        RegionGroup::Oag,
        RegionGroup::Other,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RegionGroup::Offsets => "offset arrays",
            RegionGroup::Incident => "incident arrays",
            RegionGroup::Values => "value arrays",
            RegionGroup::Oag => "OAG arrays",
            RegionGroup::Other => "other",
        }
    }
}

/// One region's placement. An absent region is the zero segment: `len` 0
/// keeps every index out of range, and `elem_bytes` 0 (which
/// [`AddressMap::add`] never stores) marks it absent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
struct Segment {
    base: u64,
    elem_bytes: u32,
    len: u64,
}

impl Segment {
    fn is_present(&self) -> bool {
        self.elem_bytes != 0
    }
}

/// Lays regions out in a flat address space and maps `(region, index)` to
/// byte addresses.
///
/// ```
/// use archsim::{AddressMap, Region};
/// let mut map = AddressMap::new(64);
/// map.add(Region::VertexValue, 8, 100);
/// map.add(Region::VertexOffset, 4, 101);
/// let a = map.addr(Region::VertexValue, 5);
/// assert_eq!(map.classify(a), Region::VertexValue);
/// assert_eq!(a % 8, 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AddressMap {
    line_bytes: u64,
    /// Indexed by [`Region::idx`], absent regions included, so a lookup is
    /// one indexed load and one range compare.
    segments: [Segment; Region::ALL.len()],
    cursor: u64,
}

impl AddressMap {
    /// Creates an empty map with the given cache-line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        AddressMap {
            line_bytes: line_bytes as u64,
            segments: [Segment::default(); Region::ALL.len()],
            // Leave page zero unmapped so address 0 is never valid data.
            cursor: line_bytes as u64,
        }
    }

    /// Adds a region of `len` elements of `elem_bytes` each, line-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the region was already added or `elem_bytes == 0`.
    pub fn add(&mut self, region: Region, elem_bytes: u32, len: usize) -> &mut Self {
        assert!(elem_bytes > 0, "element size must be positive");
        assert!(!self.segments[region.idx()].is_present(), "region {region:?} added twice");
        let base = self.cursor;
        let bytes = elem_bytes as u64 * len as u64;
        self.segments[region.idx()] = Segment { base, elem_bytes, len: len as u64 };
        // Advance, line-aligned, with one guard line between regions.
        self.cursor = (base + bytes + 2 * self.line_bytes - 1) / self.line_bytes * self.line_bytes;
        self
    }

    /// Byte address of element `index` of `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region was not added or `index` is out of range.
    #[inline]
    pub fn addr(&self, region: Region, index: u64) -> u64 {
        let seg = &self.segments[region.idx()];
        if index >= seg.len {
            self.bad_index(region, index);
        }
        seg.base + index * seg.elem_bytes as u64
    }

    /// The panic of [`addr`](Self::addr), kept out of its inlined body.
    #[cold]
    #[inline(never)]
    fn bad_index(&self, region: Region, index: u64) -> ! {
        let seg = &self.segments[region.idx()];
        if !seg.is_present() {
            panic!("region {region:?} not laid out");
        }
        panic!("index {index} out of range for {region:?} (len {})", seg.len);
    }

    /// The region containing byte address `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` falls outside every region (including guard space).
    pub fn classify(&self, a: u64) -> Region {
        for region in Region::ALL {
            let seg = &self.segments[region.idx()];
            if a >= seg.base && a < seg.base + seg.len * seg.elem_bytes as u64 {
                return region;
            }
        }
        panic!("address {a:#x} not mapped to any region");
    }

    /// Total mapped bytes (footprint).
    pub fn footprint(&self) -> u64 {
        self.cursor
    }

    /// Number of elements laid out in `region`, if present.
    pub fn len_of(&self, region: Region) -> Option<u64> {
        let seg = &self.segments[region.idx()];
        seg.is_present().then_some(seg.len)
    }

    /// Cache-line size the map was created with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AddressMap {
        let mut m = AddressMap::new(64);
        m.add(Region::HyperedgeOffset, 4, 10);
        m.add(Region::VertexValue, 8, 100);
        m.add(Region::Bitmap, 8, 4);
        m
    }

    #[test]
    fn regions_are_disjoint_and_line_aligned() {
        let m = sample();
        assert_eq!(m.addr(Region::HyperedgeOffset, 0) % 64, 0);
        assert_eq!(m.addr(Region::VertexValue, 0) % 64, 0);
        let last_a = m.addr(Region::HyperedgeOffset, 9);
        let first_b = m.addr(Region::VertexValue, 0);
        assert!(last_a / 64 < first_b / 64, "regions must not share a cache line");
    }

    #[test]
    fn classify_roundtrips() {
        let m = sample();
        for (r, n) in
            [(Region::HyperedgeOffset, 10u64), (Region::VertexValue, 100), (Region::Bitmap, 4)]
        {
            for i in [0, n / 2, n - 1] {
                assert_eq!(m.classify(m.addr(r, i)), r);
            }
        }
    }

    #[test]
    fn address_zero_is_never_mapped() {
        let m = sample();
        assert!(m.addr(Region::HyperedgeOffset, 0) >= 64);
    }

    #[test]
    fn group_assignment_matches_fig15() {
        assert_eq!(Region::HyperedgeOffset.group(), RegionGroup::Offsets);
        assert_eq!(Region::IncidentHyperedge.group(), RegionGroup::Incident);
        assert_eq!(Region::VertexValue.group(), RegionGroup::Values);
        assert_eq!(Region::VOagWeight.group(), RegionGroup::Oag);
        assert_eq!(Region::Bitmap.group(), RegionGroup::Other);
        assert!(Region::HOagEdge.is_oag());
        assert!(!Region::VertexValue.is_oag());
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn double_add_panics() {
        let mut m = sample();
        m.add(Region::VertexValue, 8, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let m = sample();
        let _ = m.addr(Region::Bitmap, 4);
    }

    #[test]
    #[should_panic(expected = "not laid out")]
    fn missing_region_panics() {
        let m = sample();
        let _ = m.addr(Region::VOagEdge, 0);
    }

    /// A region added with no elements is laid out (`len_of` is
    /// `Some(0)`) but every index is out of range; only a region never
    /// added reports "not laid out".
    #[test]
    #[should_panic(expected = "index 0 out of range for Other (len 0)")]
    fn empty_region_is_laid_out_but_unindexable() {
        let mut m = sample();
        m.add(Region::Other, 8, 0);
        assert_eq!(m.len_of(Region::Other), Some(0));
        let _ = m.addr(Region::Other, 0);
    }

    #[test]
    fn footprint_grows() {
        let m = sample();
        assert!(m.footprint() >= 64 + 40 + 800 + 32);
        assert_eq!(m.len_of(Region::VertexValue), Some(100));
        assert_eq!(m.len_of(Region::VOagEdge), None);
    }
}
