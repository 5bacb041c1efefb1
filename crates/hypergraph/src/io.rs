//! Hypergraph serialization: a plain-text format, and the checksummed
//! binary format of [`write_binary`]/[`read_binary`].
//!
//! The format is line-oriented, similar to hMETIS input files:
//!
//! ```text
//! # optional comments
//! <num_vertices> <num_hyperedges>
//! <v v v ...>      # one line per hyperedge, space-separated vertex ids
//! ```
//!
//! Hyperedges receive dense ids in line order. The text format round-trips
//! exactly (incidence order preserved), so preprocessed inputs can be cached
//! on disk between benchmark runs.

use crate::checksum::{read_container, read_u32s, write_container, write_u32s, ContainerError};
use crate::validate::ValidationError;
use crate::{BuildHypergraphError, HyperedgeId, Hypergraph, HypergraphBuilder, Side, VertexId};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Read, Write};

/// Error returned by [`read_text`].
#[derive(Debug)]
pub enum ReadHypergraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line was missing or malformed.
    BadHeader(String),
    /// A vertex id failed to parse or was out of range.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The number of hyperedge lines did not match the header.
    WrongHyperedgeCount {
        /// Hyperedges promised by the header.
        expected: usize,
        /// Hyperedge lines actually present.
        found: usize,
    },
    /// The trailing v2 checksum did not match the file contents (bit rot,
    /// torn write, or truncation that happened to land on a field
    /// boundary).
    ChecksumMismatch {
        /// Digest stored in the file trailer.
        stored: u64,
        /// Digest computed over the bytes actually read.
        computed: u64,
    },
    /// The deserialized arrays passed the checksum but violate a structural
    /// invariant (non-monotone offsets, dangling targets, ...).
    Invalid(ValidationError),
}

impl fmt::Display for ReadHypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadHypergraphError::Io(e) => write!(f, "i/o error: {e}"),
            ReadHypergraphError::BadHeader(h) => write!(f, "malformed header line {h:?}"),
            ReadHypergraphError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ReadHypergraphError::WrongHyperedgeCount { expected, found } => {
                write!(f, "expected {expected} hyperedge lines, found {found}")
            }
            ReadHypergraphError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}")
            }
            ReadHypergraphError::Invalid(e) => write!(f, "invalid hypergraph structure: {e}"),
        }
    }
}

impl Error for ReadHypergraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadHypergraphError::Io(e) => Some(e),
            ReadHypergraphError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadHypergraphError {
    fn from(e: std::io::Error) -> Self {
        ReadHypergraphError::Io(e)
    }
}

/// Header and length failures are [`ReadHypergraphError::BadHeader`].
impl From<ContainerError> for ReadHypergraphError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Io(e) => ReadHypergraphError::Io(e),
            ContainerError::ChecksumMismatch { stored, computed } => {
                ReadHypergraphError::ChecksumMismatch { stored, computed }
            }
            header => ReadHypergraphError::BadHeader(header.to_string()),
        }
    }
}

impl From<ValidationError> for ReadHypergraphError {
    fn from(e: ValidationError) -> Self {
        ReadHypergraphError::Invalid(e)
    }
}

/// Writes `g` in the text format.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_text<W: Write>(g: &Hypergraph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# chgraph hypergraph: |V| |H|")?;
    writeln!(w, "{} {}", g.num_vertices(), g.num_hyperedges())?;
    for h in 0..g.num_hyperedges() {
        let vs = g.incident_vertices(HyperedgeId::from_index(h));
        let mut first = true;
        for v in vs {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{v}")?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a hypergraph from the text format.
///
/// Blank lines and lines starting with `#` are ignored.
///
/// # Errors
///
/// Returns a [`ReadHypergraphError`] describing the first problem found.
pub fn read_text<R: BufRead>(r: R) -> Result<Hypergraph, ReadHypergraphError> {
    let mut lines = r.lines().enumerate();
    // Header.
    let (nv, nh) = loop {
        let Some((_idx, line)) = lines.next() else {
            return Err(ReadHypergraphError::BadHeader(String::new()));
        };
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, line: &str| {
            s.and_then(|x| x.parse::<usize>().ok())
                .ok_or_else(|| ReadHypergraphError::BadHeader(line.to_owned()))
        };
        let nv = parse(it.next(), t)?;
        let nh = parse(it.next(), t)?;
        if it.next().is_some() {
            return Err(ReadHypergraphError::BadHeader(t.to_owned()));
        }
        break (nv, nh);
    };

    let mut builder = HypergraphBuilder::new(nv);
    for (idx, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut vs = Vec::new();
        for tok in t.split_whitespace() {
            let raw: u32 = tok.parse().map_err(|_| ReadHypergraphError::BadLine {
                line: idx + 1,
                reason: format!("invalid vertex id {tok:?}"),
            })?;
            vs.push(VertexId::new(raw));
        }
        builder.add_hyperedge(vs).map_err(|e| ReadHypergraphError::BadLine {
            line: idx + 1,
            reason: match e {
                BuildHypergraphError::VertexOutOfRange { vertex, num_vertices } => {
                    format!("vertex {vertex} out of range (|V| = {num_vertices})")
                }
                BuildHypergraphError::EmptyHyperedge => "empty hyperedge".to_owned(),
            },
        })?;
    }
    if builder.num_hyperedges() != nh {
        return Err(ReadHypergraphError::WrongHyperedgeCount {
            expected: nh,
            found: builder.num_hyperedges(),
        });
    }
    Ok(builder.build())
}

/// Magic bytes of the binary hypergraph format.
const BINARY_MAGIC: &[u8; 4] = b"CHGH";
/// The only version [`write_binary`] writes and [`read_binary`] accepts:
/// v2 appends a trailing FNV-1a checksum over everything before it.
const BINARY_VERSION: u32 = 2;

/// Writes `g` in the compact binary format: a [`checksum`](crate::checksum)
/// container whose body is the four raw CSR arrays in little-endian, the
/// hyperedge side first. Roughly 10x faster to load than the text format
/// — the representation a system would cache between the amortized
/// preprocessing and the many algorithm executions (paper SVI-G).
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_binary<W: Write>(g: &Hypergraph, w: W) -> std::io::Result<()> {
    write_container(w, BINARY_MAGIC, BINARY_VERSION, |w| {
        for side in [Side::Hyperedge, Side::Vertex] {
            write_u32s(w, g.csr_for(side).offsets())?;
            write_u32s(w, g.csr_for(side).targets())?;
        }
        Ok(())
    })
}

/// Reads a hypergraph written by [`write_binary`], verifying its trailing
/// checksum. Accepts directed encodings (the two sides need not be
/// transposes).
///
/// Every deserialized offset and id is bounds-validated before the graph
/// is constructed, so a corrupt file yields a typed error, never a panic
/// or a structurally invalid graph.
///
/// # Errors
///
/// Returns [`ReadHypergraphError::BadHeader`] for wrong magic/version or an
/// implausible length field, [`ReadHypergraphError::Invalid`] when the
/// arrays violate a CSR invariant, [`ReadHypergraphError::ChecksumMismatch`]
/// when the trailer disagrees with the contents, and propagates I/O
/// failures (including truncation).
pub fn read_binary<R: Read>(r: R) -> Result<Hypergraph, ReadHypergraphError> {
    let [h_offsets, h_targets, v_offsets, v_targets] =
        read_container(r, BINARY_MAGIC, BINARY_VERSION, |r| -> Result<_, ContainerError> {
            Ok([
                read_u32s(r, "hyperedge offsets")?,
                read_u32s(r, "hyperedge targets")?,
                read_u32s(r, "vertex offsets")?,
                read_u32s(r, "vertex targets")?,
            ])
        })?;
    let h = crate::Csr::try_from_raw(h_offsets, h_targets)?;
    let v = crate::Csr::try_from_raw(v_offsets, v_targets)?;
    Ok(Hypergraph::try_from_directed_csr(h, v)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig1_example;

    #[test]
    fn roundtrip_fig1() {
        let g = fig1_example();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_generated() {
        let g = crate::generate::GeneratorConfig::new(300, 200).with_seed(8).generate();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        assert_eq!(read_text(&buf[..]).unwrap(), g);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# hello\n\n3 2\n# body comment\n0 1\n\n2\n";
        let g = read_text(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_hyperedges(), 2);
    }

    #[test]
    fn bad_header_is_reported() {
        let err = read_text("nope\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadHypergraphError::BadHeader(_)), "{err}");
        let err = read_text("3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadHypergraphError::BadHeader(_)));
        let err = read_text("3 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadHypergraphError::BadHeader(_)));
        let err = read_text("".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadHypergraphError::BadHeader(_)));
    }

    #[test]
    fn out_of_range_vertex_reports_line() {
        let err = read_text("2 1\n0 5\n".as_bytes()).unwrap_err();
        match err {
            ReadHypergraphError::BadLine { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("out of range"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn wrong_count_is_reported() {
        let err = read_text("3 5\n0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadHypergraphError::WrongHyperedgeCount { expected: 5, found: 1 }));
    }

    #[test]
    fn invalid_token_is_reported() {
        let err = read_text("3 1\n0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid vertex id"));
    }

    #[test]
    fn binary_roundtrip() {
        let g = crate::generate::GeneratorConfig::new(300, 200).with_seed(8).generate();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_roundtrip_directed() {
        use crate::directed::DirectedHypergraphBuilder;
        use crate::VertexId;
        let mut b = DirectedHypergraphBuilder::new(4);
        b.add_hyperedge([0].map(VertexId::new), [1, 2].map(VertexId::new)).unwrap();
        b.add_hyperedge([2].map(VertexId::new), [3].map(VertexId::new)).unwrap();
        let g = b.build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        let g = crate::fig1_example();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_binary(&bad[..]).unwrap_err(), ReadHypergraphError::BadHeader(_)));
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(read_binary(truncated).unwrap_err(), ReadHypergraphError::Io(_)));
    }

    #[test]
    fn binary_flip_is_a_checksum_mismatch() {
        let g = crate::fig1_example();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Flip one payload bit (past the header, before the trailer).
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(
            matches!(
                read_binary(&buf[..]).unwrap_err(),
                ReadHypergraphError::ChecksumMismatch { .. } | ReadHypergraphError::BadHeader(_)
            ),
            "payload flip must be detected"
        );
    }

    #[test]
    fn implausible_length_is_rejected_quickly() {
        let g = crate::fig1_example();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Overwrite the first array length (directly after magic+version)
        // with an absurd value.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn zero_length_input_is_an_io_error() {
        assert!(matches!(read_binary(&[][..]).unwrap_err(), ReadHypergraphError::Io(_)));
    }

    #[test]
    fn binary_rejects_dangling_targets() {
        let g = crate::fig1_example();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Corrupt a target in the hyperedge CSR (first target follows the
        // header + offsets block: 4 magic + 4 version + 8 len + 5*4 offsets
        // + 8 len = 44).
        buf[44] = 0xEE;
        buf[45] = 0xFF;
        buf[46] = 0xFF;
        buf[47] = 0x0F;
        assert!(read_binary(&buf[..]).is_err());
    }
}
