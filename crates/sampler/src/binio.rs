//! Binary serialization for MRR pools.
//!
//! Generating θ = 10⁶ MRR sets dominates wall-clock on large graphs (the
//! paper's Table III "sample time" row). Since the pool depends only on
//! (graph, p(e|z), campaign topics, θ, seed) — not on the adoption model,
//! the budget, or the promoter pool — a cached pool serves entire
//! parameter sweeps (Figures 3, 4 and 6 all reuse one pool per dataset),
//! and the persistent pool store (`oipa-store`) keeps these files across
//! process restarts.
//!
//! Format v4 (little-endian):
//!
//! ```text
//! [8]  magic "OIPAMRRP"
//! [4]  version (u32; only v4 is read or written)
//! [4]  n (u32)
//! [8]  θ (u64)
//! [4]  ℓ (u32, 1..=255: see `MAX_PIECES`)
//! [θ·4]  roots (u32)
//! ℓ × piece:
//!   [(n+1)·8]  idx_offsets (u64): node v's postings are the
//!              idx_offsets[v]..idx_offsets[v+1]-th sample ids
//!   [8]        L, the byte length of the postings (u64)
//!   [L]        postings: node by node in id order, each sample id
//!              containing the node as the LEB128 varint of
//!              id − prev − 1, where prev is the node's previous id
//!              (−1 before its first)
//! [4]  CRC-32 of everything above
//! ```
//!
//! The trailing checksum covers the magic through the last postings
//! byte, so a single flipped bit anywhere — including inside values that
//! pass the structural range checks — fails the load with
//! [`PoolIoError::Format`]. Any other version is rejected.
//!
//! Each piece is stored as its inverted index (node → the sample ids
//! whose RR set holds it) and nothing else. Every solver reads a pool
//! only through that index, and a set's members are exactly the nodes
//! whose postings hold its id, so the forward sets (per-set offsets and
//! nodes) would only repeat it, in walk order, at about four times the
//! bytes of the encoded index. Postings ascend within a node, so their
//! gaps are small (in a pool shaped like `wirebench`'s `spill` pools —
//! 300 nodes, 2 400 edges, θ = 20 000, ℓ = 3 — over 99.6% are below 128
//! and take one byte), and the index costs about a quarter of what raw
//! `u32` postings would.
//!
//! Reading is two steps, [`RawPool::read`] and [`RawPool::decode`]:
//!
//! 1. `read` pulls each array from a [`Read`] source straight into its
//!    final, exactly sized `Vec`, checking every length against the
//!    encoding's byte count before anything is allocated, so a
//!    truncated, overlong or corrupt input never allocates past its own
//!    length. It does no other work: the pool store runs it under its
//!    tier lock.
//! 2. `decode` runs one CRC-32 over the arrays as read (the
//!    carry-less-multiply kernel of [`oipa_graph::checksum`] where the
//!    CPU has it), decodes the postings in one sequential pass, and runs
//!    the structural checks: roots below `n`, index offsets that start
//!    at 0 and never decrease, no more postings than bytes, sample ids
//!    below θ, and postings that end exactly at their last byte.
//!
//! [`read_pool`] runs both over a byte slice, and the store runs them
//! over its file seam: one decoder either way.

use crate::mrr::{MrrPool, MAX_PIECES};
use crate::rr::RrStore;
use oipa_graph::binio::{write_u32, write_u64};
use oipa_graph::checksum::{Crc32, Crc32Writer};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"OIPAMRRP";
/// The only version read or written: v4 stores each piece as its
/// inverted index alone, with delta-varint postings.
const VERSION: u32 = 4;
/// Magic, version, n, θ and ℓ.
const HEADER_LEN: usize = 28;

/// Serialization errors.
#[derive(Debug)]
pub enum PoolIoError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Not a pool file / wrong version / inconsistent lengths / checksum
    /// mismatch / truncated or overlong input.
    Format(String),
}

impl std::fmt::Display for PoolIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolIoError::Io(e) => write!(f, "io error: {e}"),
            PoolIoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PoolIoError {}

impl From<std::io::Error> for PoolIoError {
    fn from(e: std::io::Error) -> Self {
        PoolIoError::Io(e)
    }
}

/// A [`PoolIoError::Format`] with `message`.
fn invalid(message: impl Into<String>) -> PoolIoError {
    PoolIoError::Format(message.into())
}

/// A pool ready to write in format v4: its postings are encoded, so the
/// exact encoded length is known before a byte is written, and a caller
/// can size its buffer once.
pub struct PoolEncoding<'a> {
    pool: &'a MrrPool,
    /// Per piece, its encoded postings.
    postings: Vec<Vec<u8>>,
}

impl<'a> PoolEncoding<'a> {
    /// Encodes the postings of every piece of `pool`: one pass over its
    /// inverted indexes.
    pub fn new(pool: &'a MrrPool) -> PoolEncoding<'a> {
        let postings = (0..pool.ell())
            .map(|j| encode_postings(pool.piece_store(j)))
            .collect();
        PoolEncoding { pool, postings }
    }

    /// The exact number of bytes [`PoolEncoding::write`] produces.
    pub fn encoded_len(&self) -> usize {
        let (theta, n) = (self.pool.theta(), self.pool.node_count());
        let pieces: usize = self
            .postings
            .iter()
            .map(|postings| (n + 1) * 8 + 8 + postings.len())
            .sum();
        HEADER_LEN + theta * 4 + pieces + 4
    }

    /// Writes the pool to a writer. Returns the CRC-32 the trailer
    /// records, so callers that index pool files (the store manifest)
    /// get the checksum without re-reading what they just wrote.
    ///
    /// Every array goes to the writer as one byte slice, so an
    /// unbuffered sink sees a handful of large writes plus the small
    /// header fields: pass a `BufWriter` when writing to a file.
    pub fn write<W: Write>(&self, writer: W) -> Result<u32, PoolIoError> {
        let pool = self.pool;
        let mut w = Crc32Writer::new(writer);
        w.write_all(MAGIC)?;
        write_u32(&mut w, VERSION)?;
        write_u32(&mut w, pool.node_count() as u32)?;
        write_u64(&mut w, pool.theta() as u64)?;
        write_u32(&mut w, pool.ell() as u32)?;
        write_words(&mut w, pool.roots())?;
        for (j, postings) in self.postings.iter().enumerate() {
            write_words(&mut w, pool.piece_store(j).raw_idx_offsets())?;
            write_u64(&mut w, postings.len() as u64)?;
            w.write_all(postings)?;
        }
        let crc = w.digest();
        // The trailer itself is outside the digest (captured above).
        write_u32(&mut w, crc)?;
        w.flush()?;
        Ok(crc)
    }
}

/// Writes a pool to a writer in format v4 (see [`PoolEncoding::write`]).
/// Returns the CRC-32 the trailer records.
pub fn write_pool<W: Write>(pool: &MrrPool, writer: W) -> Result<u32, PoolIoError> {
    PoolEncoding::new(pool).write(writer)
}

/// Reads a pool from its encoded bytes. Accepts format v4 only and
/// verifies its CRC-32 trailer; `bytes` must be exactly one pool,
/// trailer included.
///
/// An owned buffer (a `Vec<u8>`) is freed once its arrays are read,
/// before they are checksummed and decoded; a borrowed slice works the
/// same way and stays with the caller.
pub fn read_pool<B: AsRef<[u8]>>(bytes: B) -> Result<MrrPool, PoolIoError> {
    let encoded = bytes.as_ref();
    let raw = RawPool::read(encoded, encoded.len() as u64)?;
    drop(bytes);
    raw.decode()
}

/// A pool's arrays as [`RawPool::read`] took them from its encoding:
/// each in its final allocation, in the encoding's byte order, not yet
/// checksummed or checked. [`RawPool::decode`] turns it into a pool.
#[derive(Debug)]
pub struct RawPool {
    header: [u8; HEADER_LEN],
    n: usize,
    theta: u64,
    roots: Vec<u32>,
    pieces: Vec<RawPiece>,
    trailer: [u8; 4],
}

/// One piece's arrays as read (see [`RawPool`]).
#[derive(Debug)]
struct RawPiece {
    idx_offsets: Vec<u64>,
    postings_len: [u8; 8],
    postings: Vec<u8>,
}

impl RawPool {
    /// Reads one encoded pool of exactly `len` bytes from `src`, each
    /// array straight into its final `Vec`. Every length field is
    /// checked against the bytes `len` leaves before the array it sizes
    /// is allocated or read, so nothing is allocated past `len`, and the
    /// source is never read past it. Errors of `src` are
    /// [`PoolIoError::Io`]; lengths that do not add up to `len`, a bad
    /// magic and a version other than v4 are [`PoolIoError::Format`].
    ///
    /// Each array is one `read_exact` call on `src`.
    pub fn read<R: Read>(src: R, len: u64) -> Result<RawPool, PoolIoError> {
        let mut src = Bounded { src, left: len };
        let mut header = [0u8; HEADER_LEN];
        src.fill(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(invalid("bad magic: not an OIPA MRR pool"));
        }
        let field = |at: usize, width: usize| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(&header[at..at + width]);
            u64::from_le_bytes(le)
        };
        // The version is checked before the checksum, so an unreadable
        // version reports itself rather than a mismatch.
        let version = field(8, 4);
        if version != u64::from(VERSION) {
            return Err(invalid(format!(
                "unsupported pool version {version} (readable: {VERSION})"
            )));
        }
        let (n, theta, ell) = (field(12, 4), field(16, 8), field(24, 4));
        if ell == 0 {
            return Err(invalid("pool must have at least one piece"));
        }
        if ell > MAX_PIECES as u64 {
            return Err(invalid(format!(
                "ℓ = {ell} pieces exceeds the {MAX_PIECES}-piece limit"
            )));
        }
        if theta > 1 << 32 {
            return Err(invalid(format!("θ = {theta} overflows u32 sample ids")));
        }
        let roots = src.words(theta)?;
        // Each piece reads at least its index offsets and postings
        // length, so a corrupt ℓ ends the loop at the end of the input,
        // not after ℓ passes.
        let mut pieces = Vec::new();
        for _ in 0..ell {
            let idx_offsets = src.words(n + 1)?;
            let mut postings_len = [0u8; 8];
            src.fill(&mut postings_len)?;
            let postings = src.words(u64::from_le_bytes(postings_len))?;
            pieces.push(RawPiece {
                idx_offsets,
                postings_len,
                postings,
            });
        }
        let mut trailer = [0u8; 4];
        src.fill(&mut trailer)?;
        if src.left > 0 {
            return Err(invalid(format!(
                "{} bytes after the checksum trailer",
                src.left
            )));
        }
        Ok(RawPool {
            header,
            n: n as usize,
            theta,
            roots,
            pieces,
            trailer,
        })
    }

    /// The CRC-32 the encoding's trailer records.
    pub fn stored_crc(&self) -> u32 {
        u32::from_le_bytes(self.trailer)
    }

    /// Checks the CRC-32 over the arrays as read, decodes each piece's
    /// postings and runs the structural checks (see the module docs).
    /// Any failure is [`PoolIoError::Format`].
    pub fn decode(mut self) -> Result<MrrPool, PoolIoError> {
        let mut crc = Crc32::new();
        crc.update(&self.header);
        crc.update(bytes_of(&self.roots));
        for piece in &self.pieces {
            crc.update(bytes_of(&piece.idx_offsets));
            crc.update(&piece.postings_len);
            crc.update(&piece.postings);
        }
        let (stored, computed) = (self.stored_crc(), crc.finish());
        if stored != computed {
            return Err(invalid(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
                 (corrupt pool file)"
            )));
        }
        let n = self.n;
        from_le(&mut self.roots);
        // The largest id stands for all: `max` runs vectorized where a
        // search for the first bad id would not.
        if let Some(root) = self.roots.iter().max().filter(|&&v| v as usize >= n) {
            return Err(invalid(format!("root {root} out of range")));
        }
        let mut stores = Vec::with_capacity(self.pieces.len());
        for mut piece in self.pieces {
            from_le(&mut piece.idx_offsets);
            let idx = &piece.idx_offsets;
            if idx[0] != 0 || idx.windows(2).any(|w| w[0] > w[1]) {
                return Err(invalid("index offsets do not start at 0 and ascend"));
            }
            let idx_samples = decode_postings(&piece.postings, idx, self.theta)?;
            drop(piece.postings);
            stores.push(RrStore::from_parts(
                self.theta as usize,
                piece.idx_offsets,
                idx_samples,
            ));
        }
        Ok(MrrPool::from_parts(n as u32, self.roots, stores))
    }
}

/// A source that holds exactly `left` more bytes of one encoded pool.
struct Bounded<R> {
    src: R,
    left: u64,
}

impl<R: Read> Bounded<R> {
    /// Fills `buf` from the source, if the encoding has that many bytes
    /// left.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), PoolIoError> {
        self.take(buf.len() as u64)?;
        self.src.read_exact(buf)?;
        Ok(())
    }

    /// Reads `count` words into a new `Vec`, allocated only once the
    /// encoding is known to hold them.
    fn words<T: Word>(&mut self, count: u64) -> Result<Vec<T>, PoolIoError> {
        let bytes = count
            .checked_mul(std::mem::size_of::<T>() as u64)
            .ok_or_else(truncated)?;
        self.take(bytes)?;
        let mut words = vec![T::default(); usize::try_from(count).map_err(|_| truncated())?];
        self.src.read_exact(bytes_of_mut(&mut words))?;
        Ok(words)
    }

    fn take(&mut self, bytes: u64) -> Result<(), PoolIoError> {
        self.left = self.left.checked_sub(bytes).ok_or_else(truncated)?;
        Ok(())
    }
}

fn truncated() -> PoolIoError {
    invalid("unexpected end of pool (truncated?)")
}

/// Decodes one piece's postings (see the module docs) given its checked
/// index offsets: every id must be below θ, and the stream must end
/// exactly at the last posting.
fn decode_postings(
    postings: &[u8],
    idx_offsets: &[u64],
    theta: u64,
) -> Result<Vec<u32>, PoolIoError> {
    let total = idx_offsets[idx_offsets.len() - 1];
    // Every posting takes at least one byte, which also bounds the
    // allocation by the bytes read.
    if total > postings.len() as u64 {
        return Err(invalid(format!(
            "{total} postings cannot fit in {} bytes",
            postings.len()
        )));
    }
    let mut ids = Vec::with_capacity(total as usize);
    let mut pos = 0;
    for w in idx_offsets.windows(2) {
        let mut left = w[1] - w[0];
        // One past the node's previous id.
        let mut next = 0u64;
        while left > 0 {
            // The common case: eight one-byte gaps in a row.
            if left >= 8 {
                if let Some(chunk) = postings.get(pos..pos + 8) {
                    let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                    if word & 0x8080_8080_8080_8080 == 0 {
                        ids.extend(chunk.iter().map(|&gap| {
                            let id = next + u64::from(gap);
                            next = id + 1;
                            id as u32
                        }));
                        pos += 8;
                        left -= 8;
                        continue;
                    }
                }
            }
            let id = next + take_varint(postings, &mut pos)?;
            ids.push(id as u32);
            next = id + 1;
            left -= 1;
        }
        // Ids ascend within a node, so its last is its largest: a node
        // whose last id is below θ (and so within `u32`, as θ ≤ 2³²) has
        // every id below θ, none truncated by the casts above.
        if next > theta {
            return Err(invalid(format!(
                "sample id {} is not below θ = {theta}",
                next - 1
            )));
        }
    }
    if pos != postings.len() {
        return Err(invalid(format!(
            "{} postings bytes after the last sample id",
            postings.len() - pos
        )));
    }
    Ok(ids)
}

/// Decodes the LEB128 varint of at most five bytes (enough for any
/// `u32`) at `postings[*pos..]`, advancing `pos` past it.
#[inline]
fn take_varint(postings: &[u8], pos: &mut usize) -> Result<u64, PoolIoError> {
    let rest = &postings[*pos..];
    let mut value = 0u64;
    for (i, &byte) in rest.iter().take(5).enumerate() {
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            *pos += i + 1;
            return Ok(value);
        }
    }
    Err(invalid(if rest.len() < 5 {
        "postings end inside a varint"
    } else {
        "varint longer than five bytes in the postings"
    }))
}

/// Encodes a piece's postings (see the module docs): node by node, each
/// sample id minus the node's previous id minus one (the id itself for a
/// node's first), as a LEB128 varint.
fn encode_postings(store: &RrStore) -> Vec<u8> {
    let ids = store.raw_idx_samples();
    // One byte per posting is the common case and the minimum.
    let mut out = Vec::with_capacity(ids.len());
    for w in store.raw_idx_offsets().windows(2) {
        let mut next = 0u32;
        for &id in &ids[w[0] as usize..w[1] as usize] {
            let mut gap = id - next;
            next = id + 1;
            while gap >= 0x80 {
                out.push(gap as u8 | 0x80);
                gap >>= 7;
            }
            out.push(gap as u8);
        }
    }
    out
}

/// Writes a pool to a file, returning the payload CRC-32.
pub fn write_pool_file<P: AsRef<Path>>(pool: &MrrPool, path: P) -> Result<u32, PoolIoError> {
    write_pool(pool, BufWriter::new(std::fs::File::create(path)?))
}

/// Reads a pool from a file, each array straight from the file into its
/// final `Vec`.
pub fn read_pool_file<P: AsRef<Path>>(path: P) -> Result<MrrPool, PoolIoError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    RawPool::read(file, len)?.decode()
}

/// Block size for staging words on big-endian targets: large enough to
/// amortize per-call overhead and to take the CRC kernel's path.
const BULK: usize = 64 * 1024;

/// The element types of pool arrays: `u8`, `u32` and `u64`. Each is
/// plain data (no padding, every bit pattern a value), which is what
/// makes the byte views below sound. Private, so no other type can
/// implement it.
trait Word: Copy + Default {
    /// This value converted between native and little-endian order (the
    /// conversion is its own inverse).
    fn swap_le(self) -> Self;
}

impl Word for u8 {
    fn swap_le(self) -> Self {
        self
    }
}

impl Word for u32 {
    fn swap_le(self) -> Self {
        u32::from_le(self)
    }
}

impl Word for u64 {
    fn swap_le(self) -> Self {
        u64::from_le(self)
    }
}

/// The bytes of `words` in memory order: on a little-endian target,
/// their encoding.
fn bytes_of<T: Word>(words: &[T]) -> &[u8] {
    // SAFETY: `T` is `u8`, `u32` or `u64` (see `Word`): it has no padding,
    // so all `size_of_val(words)` bytes behind the pointer are
    // initialized, and `u8` needs no alignment. The view covers exactly
    // the slice's memory and borrows `words` for as long as it lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words)) }
}

/// The bytes of `words` in memory order, writable: filling them with a
/// little-endian encoding and then running [`from_le`] yields the values
/// on any target.
fn bytes_of_mut<T: Word>(words: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `bytes_of`; in addition, every bit pattern is a
    // valid `T`, so whatever is written through the view leaves each
    // word a valid value, and the exclusive borrow of `words` keeps any
    // other access out while the view lives.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

/// Converts words read as little-endian bytes to native order: nothing
/// to do on a little-endian target.
fn from_le<T: Word>(words: &mut [T]) {
    if cfg!(target_endian = "big") {
        for w in words {
            *w = w.swap_le();
        }
    }
}

/// Writes words as little-endian bytes: one slice on a little-endian
/// target, staged through `BULK`-byte blocks of converted copies on a
/// big-endian one.
fn write_words<W: Write, T: Word>(w: &mut W, words: &[T]) -> std::io::Result<()> {
    if cfg!(target_endian = "little") {
        return w.write_all(bytes_of(words));
    }
    let mut staged = Vec::with_capacity(words.len().min(BULK));
    for chunk in words.chunks(BULK / std::mem::size_of::<T>()) {
        staged.clear();
        staged.extend(chunk.iter().map(|v| v.swap_le()));
        w.write_all(bytes_of(&staged))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::fig1;
    use oipa_graph::checksum::crc32;

    #[test]
    fn roundtrip_preserves_everything() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 5_000, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let back = read_pool(&buf[..]).unwrap();
        assert_eq!(back.theta(), pool.theta());
        assert_eq!(back.ell(), pool.ell());
        assert_eq!(back.node_count(), pool.node_count());
        assert_eq!(back.roots(), pool.roots());
        assert_eq!(back.fingerprint(), pool.fingerprint());
        assert_eq!(back.memory_bytes(), pool.memory_bytes());
        for j in 0..pool.ell() {
            for v in 0..5u32 {
                assert_eq!(back.samples_containing(j, v), pool.samples_containing(j, v));
            }
        }
    }

    #[test]
    fn bad_magic() {
        assert!(matches!(
            read_pool(&b"NOTAPOOL"[..]),
            Err(PoolIoError::Format(_))
        ));
    }

    /// Only v4 reads: a future version, v3 (which also stored the forward
    /// sets) and v1 (no checksum trailer, so nothing could vouch for its
    /// bytes) are all format errors.
    #[test]
    fn future_versions_rejected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 50, 3);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        for version in [99u32, 3, 1] {
            buf[8..12].copy_from_slice(&version.to_le_bytes());
            let err = read_pool(&buf[..]).unwrap_err();
            assert!(matches!(err, PoolIoError::Format(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
        // A v1 payload (trailer stripped) fails the same way.
        buf.truncate(buf.len() - 4);
        let err = read_pool(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    /// A header claiming more pieces than solvers can count is a format
    /// error even under a valid checksum.
    #[test]
    fn more_than_255_pieces_rejected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 50, 3);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        buf[24..28].copy_from_slice(&256u32.to_le_bytes());
        reseal(&mut buf);
        let err = read_pool(&buf[..]).unwrap_err();
        assert!(matches!(err, PoolIoError::Format(_)), "{err}");
        assert!(err.to_string().contains("255-piece limit"), "{err}");
    }

    #[test]
    fn write_returns_payload_crc() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 300, 5);
        let mut buf = Vec::new();
        let crc = write_pool(&pool, &mut buf).unwrap();
        // The trailer is the returned CRC…
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        assert_eq!(stored, crc);
        // …and it matches an independent digest of the payload bytes.
        assert_eq!(oipa_graph::checksum::crc32(&buf[..buf.len() - 4]), crc);
    }

    /// A v4 file cut at *every* 64-byte boundary of a θ = 500 pool, and
    /// at every byte of a θ = 50 pool, must fail with a `Format` error —
    /// never a panic, an `Io` error, or a silently short pool: the store
    /// quarantines `Format` errors as corruption.
    #[test]
    fn truncation_at_every_64_byte_boundary_is_a_format_error() {
        let (g, table, campaign) = fig1();
        for (theta, step) in [(500, 64), (50, 1)] {
            let pool = MrrPool::generate(&g, &table, &campaign, theta, 9);
            let mut buf = Vec::new();
            write_pool(&pool, &mut buf).unwrap();
            for cut in (0..buf.len()).step_by(step) {
                match read_pool(&buf[..cut]) {
                    Err(PoolIoError::Format(_)) => {}
                    Err(PoolIoError::Io(e)) => {
                        panic!("θ {theta}, cut at {cut}: Io instead of Format: {e}")
                    }
                    Ok(_) => panic!("θ {theta}, cut at {cut}: silently loaded a truncated pool"),
                }
            }
        }
    }

    /// The store reads exact entry lengths, so bytes after the trailer
    /// mean the length is wrong.
    #[test]
    fn bytes_after_the_trailer_are_a_format_error() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 50, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        for extra in [1, 4, 64] {
            let mut long = buf.clone();
            long.resize(buf.len() + extra, 0);
            let err = read_pool(&long).unwrap_err();
            assert!(matches!(err, PoolIoError::Format(_)), "{err}");
            assert!(err.to_string().contains("after the checksum"), "{err}");
        }
    }

    /// Every single-bit flip anywhere in a small pool, trailer included,
    /// is a `Format` error: never a panic and never a loaded pool.
    #[test]
    fn every_single_bit_flip_is_a_format_error() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 50, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            match read_pool(&buf) {
                Err(PoolIoError::Format(_)) => {}
                Err(PoolIoError::Io(e)) => panic!("bit {bit}: Io instead of Format: {e}"),
                Ok(_) => panic!("bit {bit}: loaded a corrupt pool"),
            }
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(read_pool(&buf).is_ok());
    }

    /// The encoding is fixed: these lengths and CRCs are what the
    /// format-v4 writer produces for these pools, and any change to the
    /// bytes `write_pool` produces moves them. The fingerprints pin the
    /// pools themselves; the sets they hold are pinned across formats by
    /// `index_digest_is_pinned`.
    #[test]
    fn write_pool_output_is_pinned() {
        let (g, table, campaign) = fig1();
        for (theta, seed, fingerprint, len, expected) in [
            (300, 5, 0x5A25_CED2_7F66_6E67, 2_643, 0x4AAF_45B3),
            (5_000, 9, 0x829A_F8F5_ABB8_BC74, 41_038, 0xF426_5BFC),
        ] {
            let pool = MrrPool::generate(&g, &table, &campaign, theta, seed);
            assert_eq!(pool.fingerprint(), fingerprint, "θ {theta}");
            let mut buf = Vec::new();
            let crc = write_pool(&pool, &mut buf).unwrap();
            assert_eq!(buf.len(), len, "θ {theta}");
            assert_eq!(crc, expected, "θ {theta}: {crc:#010x}");
        }
    }

    /// A digest of everything a solver reads from a pool: n, the roots
    /// and every piece's `samples_containing(j, v)`, lengths included.
    fn index_digest(pool: &MrrPool) -> u64 {
        use std::hash::Hasher as _;
        let mut h = oipa_graph::hashing::FxHasher::default();
        h.write_u64(pool.node_count() as u64);
        h.write_u64(pool.theta() as u64);
        for &r in pool.roots() {
            h.write_u32(r);
        }
        for j in 0..pool.ell() {
            for v in 0..pool.node_count() as u32 {
                let ids = pool.samples_containing(j, v);
                h.write_u64(ids.len() as u64);
                for &i in ids {
                    h.write_u32(i);
                }
            }
        }
        h.finish()
    }

    /// The index every solver reads is fixed across storage layouts and
    /// format versions: the two fig. 1 pools of
    /// `write_pool_output_is_pinned`, and one pool shaped like
    /// `wirebench`'s `spill` pools (its base instance: 300 nodes, 2 400
    /// edges, 4 topics, ℓ = 3, θ = 20 000), digest to these values,
    /// sampled cold and after a write/read round trip.
    #[test]
    fn index_digest_is_pinned() {
        use rand::SeedableRng as _;
        let (g, table, campaign) = fig1();
        let spill = crate::testkit::small_random_instance(
            &mut rand::rngs::StdRng::seed_from_u64(0x5e12e),
            300,
            2_400,
            4,
            3,
        );
        let pools = [
            (
                MrrPool::generate(&g, &table, &campaign, 300, 5),
                0xE2AF_929B_DECE_B52F,
            ),
            (
                MrrPool::generate(&g, &table, &campaign, 5_000, 9),
                0xDB08_9CBE_42AE_0BC2,
            ),
            (
                MrrPool::generate(&spill.0, &spill.1, &spill.2, 20_000, 7),
                0x9BF9_6309_E7DF_C0FA,
            ),
        ];
        for (k, (pool, expected)) in pools.iter().enumerate() {
            let mut buf = Vec::new();
            write_pool(pool, &mut buf).unwrap();
            let back = read_pool(&buf).unwrap();
            for (label, p) in [("cold", pool), ("read back", &back)] {
                let digest = index_digest(p);
                assert_eq!(digest, *expected, "pool {k} {label}: {digest:#018x}");
            }
        }
    }

    #[test]
    fn checksum_catches_structurally_valid_corruption() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 400, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        // Flip the low bit of one root (byte 28): the new value is still a
        // valid node id on the 5-node fig1 graph, so only the checksum can
        // catch it.
        buf[28] ^= 1;
        assert!(
            (buf[28] as usize) < 5,
            "corrupted root must stay structurally valid for this test"
        );
        let err = read_pool(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_root_detected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 100, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        // Overwrite the last root with an out-of-range node id: the
        // checksum catches it…
        let at = spans(&buf)[0].idx - 4;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_pool(&buf[..]), Err(PoolIoError::Format(_))));
        // …and with the trailer recomputed over it, the range check does.
        reseal(&mut buf);
        let err = read_pool(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// Where one piece's arrays start in an encoded pool.
    struct Spans {
        idx: usize,
        postings_len: usize,
        postings: usize,
        end: usize,
    }

    /// Walks an encoded pool's length fields to find every piece.
    fn spans(buf: &[u8]) -> Vec<Spans> {
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
        let (n, theta, ell) = (u32_at(12), u64_at(16), u32_at(24));
        let mut at = HEADER_LEN + 4 * theta;
        (0..ell)
            .map(|_| {
                let idx = at;
                let postings_len = idx + 8 * (n + 1);
                let postings = postings_len + 8;
                let end = postings + u64_at(postings_len);
                at = end;
                Spans {
                    idx,
                    postings_len,
                    postings,
                    end,
                }
            })
            .collect()
    }

    /// Rewrites the trailer to the CRC-32 of everything before it.
    fn reseal(buf: &mut [u8]) {
        let payload = buf.len() - 4;
        let crc = crc32(&buf[..payload]);
        buf[payload..].copy_from_slice(&crc.to_le_bytes());
    }

    /// A small encoded pool and its piece spans.
    fn encoded(theta: usize) -> (Vec<u8>, Vec<Spans>) {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let spans = spans(&buf);
        (buf, spans)
    }

    /// Sets piece 0's postings byte length to `len`.
    fn set_postings_len(buf: &mut [u8], spans: &[Spans], len: usize) {
        let at = spans[0].postings_len;
        buf[at..at + 8].copy_from_slice(&(len as u64).to_le_bytes());
    }

    /// The damaged index cases below carry a valid checksum, so only the
    /// decoder's own checks stand between them and a loaded pool: each
    /// must be a `Format` error naming what is wrong, never a panic and
    /// never an allocation the entry's length does not cover.
    fn format_error(buf: &[u8], expect: &str) {
        match read_pool(buf) {
            Err(PoolIoError::Format(m)) => assert!(m.contains(expect), "{m}"),
            Err(PoolIoError::Io(e)) => panic!("Io instead of Format: {e}"),
            Ok(_) => panic!("loaded a pool with a damaged index"),
        }
    }

    #[test]
    fn sample_id_past_theta_is_a_format_error() {
        let (mut buf, spans) = encoded(50);
        // A one-byte gap of 127 puts the id past θ = 50.
        buf[spans[0].postings] = 0x7f;
        reseal(&mut buf);
        format_error(&buf, "not below θ");
    }

    #[test]
    fn short_and_long_postings_streams_are_format_errors() {
        let (buf, spans) = encoded(50);
        let (start, end) = (spans[0].postings, spans[0].end);
        // One byte short: fewer bytes than postings.
        let mut short = buf.clone();
        short.remove(end - 1);
        set_postings_len(&mut short, &spans, end - start - 1);
        reseal(&mut short);
        format_error(&short, "cannot fit");
        // Ending inside a varint: the last byte keeps going.
        let mut cut = buf.clone();
        cut[end - 1] |= 0x80;
        reseal(&mut cut);
        format_error(&cut, "end inside a varint");
        // One byte long: a stray byte after the last posting.
        let mut long = buf.clone();
        long.insert(end, 0);
        set_postings_len(&mut long, &spans, end - start + 1);
        reseal(&mut long);
        format_error(&long, "after the last sample id");
    }

    #[test]
    fn over_long_varint_is_a_format_error() {
        let (mut buf, spans) = encoded(50);
        let (start, end) = (spans[0].postings, spans[0].end);
        // Five continuation bytes before the first gap's last byte.
        for _ in 0..5 {
            buf.insert(start, 0x80);
        }
        set_postings_len(&mut buf, &spans, end - start + 5);
        reseal(&mut buf);
        format_error(&buf, "longer than five bytes");
    }

    #[test]
    fn inconsistent_index_offsets_are_format_errors() {
        let (buf, spans) = encoded(50);
        let idx = spans[0].idx;
        let at = |v: usize| idx + 8 * v;
        let get =
            |buf: &[u8], v: usize| u64::from_le_bytes(buf[at(v)..at(v) + 8].try_into().unwrap());
        let n = 5;
        let cases: [(usize, u64, &str); 4] = [
            // Not starting at 0.
            (0, 1, "index offsets"),
            // Decreasing: node 1's postings end before they begin.
            (2, get(&buf, 1).wrapping_sub(1), "index offsets"),
            // Ending past the postings the bytes hold (one byte each here).
            (n, get(&buf, n) + 1, "cannot fit"),
            // Ending short of them: bytes are left after the last id.
            (n, get(&buf, n) - 1, "after the last sample id"),
        ];
        for (v, value, expect) in cases {
            let mut bad = buf.clone();
            bad[at(v)..at(v) + 8].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bad);
            format_error(&bad, expect);
        }
    }

    #[test]
    fn postings_length_past_the_entry_is_a_format_error() {
        let (buf, spans) = encoded(50);
        for len in [buf.len(), usize::MAX] {
            let mut bad = buf.clone();
            set_postings_len(&mut bad, &spans, len);
            reseal(&mut bad);
            format_error(&bad, "unexpected end");
        }
    }

    /// Gaps of every varint width, 1 to 5 bytes, and a node with no
    /// postings: the encoder's length, its bytes and the decoder agree.
    #[test]
    fn postings_of_every_varint_width_round_trip() {
        let node_gaps: [&[u32]; 4] = [
            &[0, 127, 128, 1 << 14, 1 << 21, 1 << 28],
            &[],
            &[5, 1 << 14],
            &[u32::MAX - 1],
        ];
        let (mut ids, mut idx_offsets) = (Vec::new(), vec![0u64]);
        for gaps in node_gaps {
            let mut next = 0u32;
            for &gap in gaps {
                ids.push(next + gap);
                next += gap + 1;
            }
            idx_offsets.push(ids.len() as u64);
        }
        let store = RrStore::from_parts(u32::MAX as usize, idx_offsets.clone(), ids.clone());
        let bytes = encode_postings(&store);
        // Gaps of widths 1, 1, 2, 3, 4, 5 | none | 1, 3 | 5.
        assert_eq!(bytes.len(), 1 + 1 + 2 + 3 + 4 + 5 + 1 + 3 + 5);
        let theta = u64::from(u32::MAX);
        assert_eq!(decode_postings(&bytes, &idx_offsets, theta).unwrap(), ids);
        assert!(decode_postings(&bytes, &idx_offsets, theta - 1).is_err());
    }
}
