//! Binary OAG serialization.
//!
//! OAG construction is the expensive preprocessing step the paper amortizes
//! across algorithm executions (§IV-A, §VI-G). This module provides the
//! compact on-disk format a system would cache it in: a
//! [`hypergraph::checksum`] container (magic `CHGO`, so storage corruption
//! is detected at read time instead of being deserialized into a silently
//! wrong OAG) whose body is the side tag and `W_min`, then the three raw
//! arrays (`OAG_offset`, `OAG_edge`, `OAG_weight`) in little-endian.

use crate::Oag;
use hypergraph::checksum::{
    read_container, read_u32s, write_container, write_u32s, ContainerError,
};
use hypergraph::Side;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"CHGO";
/// The only version [`write_binary`] writes and [`read_binary`] accepts.
const VERSION: u32 = 2;

/// Error returned by [`read_binary`].
#[derive(Debug)]
pub enum ReadOagError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic, version, or inconsistent arrays.
    Malformed(String),
    /// The trailing checksum did not match the file contents.
    ChecksumMismatch {
        /// Digest stored in the file trailer.
        stored: u64,
        /// Digest computed over the bytes actually read.
        computed: u64,
    },
}

impl fmt::Display for ReadOagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadOagError::Io(e) => write!(f, "i/o error: {e}"),
            ReadOagError::Malformed(m) => write!(f, "malformed OAG file: {m}"),
            ReadOagError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "OAG checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
                )
            }
        }
    }
}

impl Error for ReadOagError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadOagError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadOagError {
    fn from(e: std::io::Error) -> Self {
        ReadOagError::Io(e)
    }
}

/// Header and length failures are [`ReadOagError::Malformed`].
impl From<ContainerError> for ReadOagError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Io(e) => ReadOagError::Io(e),
            ContainerError::ChecksumMismatch { stored, computed } => {
                ReadOagError::ChecksumMismatch { stored, computed }
            }
            header => ReadOagError::Malformed(header.to_string()),
        }
    }
}

/// Writes `oag` in the binary format (v2: payload plus trailing FNV-1a
/// checksum).
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_binary<W: Write>(oag: &Oag, w: W) -> std::io::Result<()> {
    write_container(w, MAGIC, VERSION, |w| {
        w.write_all(&[match oag.side() {
            Side::Vertex => 0u8,
            Side::Hyperedge => 1,
        }])?;
        w.write_all(&oag.w_min().to_le_bytes())?;
        write_u32s(w, oag.offsets())?;
        write_u32s(w, oag.edges())?;
        write_u32s(w, oag.weights())
    })
}

/// Reads an OAG written by [`write_binary`], verifying its trailing
/// checksum. Every deserialized offset and edge id is bounds-validated
/// before the OAG is constructed.
///
/// # Errors
///
/// Returns [`ReadOagError::Malformed`] for header or consistency problems,
/// [`ReadOagError::ChecksumMismatch`] when the trailer disagrees with
/// the contents, and [`ReadOagError::Io`] for underlying failures
/// (including truncation).
pub fn read_binary<R: Read>(r: R) -> Result<Oag, ReadOagError> {
    let (side, w_min, offsets, edges, weights) = read_container(r, MAGIC, VERSION, |r| {
        let mut side_byte = [0u8; 1];
        r.read_exact(&mut side_byte)?;
        let side = match side_byte[0] {
            0 => Side::Vertex,
            1 => Side::Hyperedge,
            other => return Err(ReadOagError::Malformed(format!("bad side tag {other}"))),
        };
        let mut wmin4 = [0u8; 4];
        r.read_exact(&mut wmin4)?;
        let w_min = u32::from_le_bytes(wmin4);
        Ok((
            side,
            w_min,
            read_u32s(r, "offsets")?,
            read_u32s(r, "edges")?,
            read_u32s(r, "weights")?,
        ))
    })?;
    let Some(&last) = offsets.last() else {
        return Err(ReadOagError::Malformed("empty offsets".into()));
    };
    if !offsets.windows(2).all(|w| w[0] <= w[1])
        || last as usize != edges.len()
        || edges.len() != weights.len()
    {
        return Err(ReadOagError::Malformed("inconsistent arrays".into()));
    }
    let n = offsets.len() as u32 - 1;
    if edges.iter().any(|&e| e >= n) {
        return Err(ReadOagError::Malformed("edge target out of range".into()));
    }
    Ok(Oag::from_parts(side, w_min, offsets, edges, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OagConfig;

    fn sample() -> Oag {
        let g = hypergraph::generate::GeneratorConfig::new(400, 300).with_seed(3).generate();
        OagConfig::new().with_w_min(2).build(&g, Side::Hyperedge)
    }

    #[test]
    fn roundtrip() {
        let oag = sample();
        let mut buf = Vec::new();
        write_binary(&oag, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, oag);
        assert_eq!(back.side(), Side::Hyperedge);
        assert_eq!(back.w_min(), 2);
    }

    #[test]
    fn rejects_corruption() {
        let oag = sample();
        let mut buf = Vec::new();
        write_binary(&oag, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(matches!(read_binary(&bad[..]).unwrap_err(), ReadOagError::Malformed(_)));
        let truncated = &buf[..buf.len() / 2];
        assert!(matches!(read_binary(truncated).unwrap_err(), ReadOagError::Io(_)));
        let mut bad_side = buf.clone();
        bad_side[8] = 7;
        assert!(matches!(read_binary(&bad_side[..]).unwrap_err(), ReadOagError::Malformed(_)));
    }

    #[test]
    fn payload_flip_is_a_checksum_mismatch() {
        let oag = sample();
        let mut buf = Vec::new();
        write_binary(&oag, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(
            read_binary(&buf[..]).unwrap_err(),
            ReadOagError::ChecksumMismatch { .. } | ReadOagError::Malformed(_)
        ));
    }

    #[test]
    fn implausible_length_is_rejected_quickly() {
        let oag = sample();
        let mut buf = Vec::new();
        write_binary(&oag, &mut buf).unwrap();
        // Offsets length lives right after magic+version+side+wmin = 13.
        buf[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn vertex_side_roundtrips_too() {
        let g = hypergraph::fig1_example();
        let oag = OagConfig::new().with_w_min(1).build(&g, Side::Vertex);
        let mut buf = Vec::new();
        write_binary(&oag, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), oag);
    }
}
