//! Streaming FNV-1a checksums and the one container codec of every binary
//! encoding: a 4-byte magic, a little-endian `u32` version, a body, and a
//! trailing FNV-1a digest of everything before it, so a truncated, torn or
//! bit-flipped encoding is detected at read time instead of being
//! deserialized into silently wrong data. FNV-1a is not cryptographic — the
//! threat model is storage and transport corruption, not an adversary — but
//! it is streaming, dependency-free and byte-order stable. Four encodings
//! use it: `CHGH` graphs (`hypergraph::io`), `CHGO` OAGs (`oag::io`), `CHGC`
//! preprocess cache entries (bench crate) and `CHGS` serve frames.
//!
//! [`write_container`] and [`read_container`] run a body closure through a
//! [`HashingWriter`] or [`HashingReader`], which digest every byte that
//! passes through without buffering whole artifacts in memory.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher in the initial (offset-basis) state.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Digests `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot convenience: the FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.digest()
}

/// A `Write` adapter that digests every byte it forwards to the inner
/// writer. [`write_container`] serializes a body through it, then appends
/// [`HashingWriter::digest`] to the inner writer directly (the trailing
/// checksum bytes must not hash themselves).
pub struct HashingWriter<W> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv64::new() }
    }

    /// Digest of everything written so far.
    pub fn digest(&self) -> u64 {
        self.hash.digest()
    }

    /// Returns the inner writer (for appending the un-hashed trailer).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A `Read` adapter that digests every byte it yields. [`read_container`]
/// deserializes a body through it, then reads the stored checksum from
/// [`HashingReader::get_mut`] (so the trailer itself is not hashed) and
/// compares it against [`HashingReader::digest`].
pub struct HashingReader<R> {
    inner: R,
    hash: Fnv64,
}

impl<R: Read> HashingReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        HashingReader { inner, hash: Fnv64::new() }
    }

    /// Digest of everything read so far.
    pub fn digest(&self) -> u64 {
        self.hash.digest()
    }

    /// The inner reader, bypassing the hash (for the checksum trailer).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

/// Upper bound on the length of an array read by [`read_u32s`]. Any real
/// CSR or OAG fits well under it (ids are `u32`); a larger declared length
/// can only come from corruption, so it is rejected before allocating.
pub const MAX_ARRAY_LEN: u64 = 1 << 33;

/// Why a container failed to read. Each encoding maps it into its own
/// error type.
#[derive(Debug)]
pub enum ContainerError {
    /// Underlying I/O failure, including truncation.
    Io(io::Error),
    /// The first four bytes were not the expected magic.
    Magic([u8; 4]),
    /// The version word was not the one version the encoding reads.
    Version(u32),
    /// A length field exceeded its bound (see [`read_len`]).
    ImplausibleLength {
        /// What the length counts.
        what: &'static str,
        /// The declared length.
        len: u64,
    },
    /// The trailing digest did not match the bytes read.
    ChecksumMismatch {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest computed over the bytes actually read.
        computed: u64,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "i/o error: {e}"),
            ContainerError::Magic(magic) => write!(f, "bad magic {magic:?}"),
            ContainerError::Version(version) => write!(f, "unsupported version {version}"),
            ContainerError::ImplausibleLength { what, len } => {
                write!(f, "implausible {what} length {len} (corrupt length field?)")
            }
            ContainerError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
        }
    }
}

impl Error for ContainerError {}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        ContainerError::Io(e)
    }
}

/// For encodings read as plain `io::Result`s: I/O failures pass through,
/// every other failure is [`io::ErrorKind::InvalidData`].
impl From<ContainerError> for io::Error {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Writes one container: `magic`, `version`, whatever `body` writes, and
/// the digest of all of it. The magic, the version and the trailer are one
/// `write_all` call each; nothing is flushed. Propagates I/O errors.
pub fn write_container<W: Write>(
    w: W,
    magic: &[u8; 4],
    version: u32,
    body: impl FnOnce(&mut HashingWriter<W>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = HashingWriter::new(w);
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    body(&mut w)?;
    let digest = w.digest();
    // The trailer bypasses the hash: it must not digest itself.
    w.into_inner().write_all(&digest.to_le_bytes())
}

/// Reads one container written by [`write_container`], returning the first
/// failure: a wrong magic or version (one `read_exact` call each), an error
/// of `body`, or a trailer that does not match the bytes read. Structural
/// checks on the body's result belong after this call, so that corruption
/// reads as a checksum mismatch rather than as whatever it happened to break.
pub fn read_container<R: Read, T, E: From<ContainerError>>(
    r: R,
    magic: &[u8; 4],
    version: u32,
    body: impl FnOnce(&mut HashingReader<R>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = HashingReader::new(r);
    read_header(&mut r, magic, version)?;
    let value = body(&mut r)?;
    let computed = r.digest();
    let stored = read_u64(r.get_mut()).map_err(ContainerError::Io)?;
    if stored != computed {
        return Err(ContainerError::ChecksumMismatch { stored, computed }.into());
    }
    Ok(value)
}

fn read_header<R: Read>(r: &mut R, magic: &[u8; 4], version: u32) -> Result<(), ContainerError> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    if &word != magic {
        return Err(ContainerError::Magic(word));
    }
    r.read_exact(&mut word)?;
    match u32::from_le_bytes(word) {
        v if v == version => Ok(()),
        other => Err(ContainerError::Version(other)),
    }
}

/// Reads one little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut bytes = [0u8; 8];
    r.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Reads a little-endian `u64` length field, rejecting one above `max` as
/// [`ContainerError::ImplausibleLength`] before the caller allocates for it.
pub fn read_len<R: Read>(r: &mut R, max: u64, what: &'static str) -> Result<usize, ContainerError> {
    match read_u64(r)? {
        len if len > max => Err(ContainerError::ImplausibleLength { what, len }),
        len => Ok(len as usize),
    }
}

/// Writes `values` as a `u64` length and then each value, little-endian.
pub fn write_u32s<W: Write>(w: &mut W, values: &[u32]) -> io::Result<()> {
    w.write_all(&(values.len() as u64).to_le_bytes())?;
    for &v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads an array written by [`write_u32s`], at most [`MAX_ARRAY_LEN`]
/// long; `what` names the array in the error.
pub fn read_u32s<R: Read>(r: &mut R, what: &'static str) -> Result<Vec<u32>, ContainerError> {
    let len = read_len(r, MAX_ARRAY_LEN, what)?;
    let mut out = Vec::with_capacity(len.min(1 << 24));
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        out.push(u32::from_le_bytes(buf));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), fnv1a(b"foobar"));
    }

    fn container() -> Vec<u8> {
        let mut buf = Vec::new();
        write_container(&mut buf, b"TEST", 7, |w| write_u32s(w, &[1, 2, 3])).unwrap();
        buf
    }

    fn read(buf: &[u8]) -> Result<Vec<u32>, ContainerError> {
        read_container(buf, b"TEST", 7, |r| read_u32s(r, "values"))
    }

    #[test]
    fn container_layout_and_roundtrip() {
        let buf = container();
        assert_eq!(&buf[..8], b"TEST\x07\0\0\0");
        assert_eq!(buf.len(), 8 + 8 + 3 * 4 + 8);
        let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, fnv1a(&buf[..buf.len() - 8]));
        assert_eq!(read(&buf).unwrap(), [1, 2, 3]);
    }

    #[test]
    fn container_errors_are_typed() {
        let buf = container();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read(&bad), Err(ContainerError::Magic(m)) if &m == b"XEST"));
        bad = buf.clone();
        bad[4] = 1;
        assert!(matches!(read(&bad), Err(ContainerError::Version(1))));
        bad = buf.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read(&bad),
            Err(ContainerError::ImplausibleLength { what: "values", len: u64::MAX })
        ));
        bad = buf.clone();
        bad[20] ^= 1;
        assert!(matches!(read(&bad), Err(ContainerError::ChecksumMismatch { .. })));
        assert!(matches!(read(&buf[..buf.len() - 1]), Err(ContainerError::Io(_))));
        let err = io::Error::from(read(&bad).unwrap_err());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("checksum mismatch"), "{err}");
    }

    #[test]
    fn writer_and_reader_agree() {
        let mut w = HashingWriter::new(Vec::new());
        w.write_all(b"hello checksum world").unwrap();
        let wd = w.digest();
        let buf = w.into_inner();
        let mut r = HashingReader::new(&buf[..]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(r.digest(), wd);
        assert_eq!(wd, fnv1a(b"hello checksum world"));
    }
}
