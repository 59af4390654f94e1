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
//! Format v2 (little-endian):
//!
//! ```text
//! [8]  magic "OIPAMRRP"
//! [4]  version (u32; only v2 is read or written)
//! [4]  n (u32)
//! [8]  θ (u64)
//! [4]  ℓ (u32)
//! [θ·4]  roots (u32)
//! ℓ × ( [ (θ+1)·8 ] offsets (u64), [Σ|R|·4] nodes (u32) )
//! [4]  CRC-32 of everything above
//! ```
//!
//! The trailing checksum covers the magic through the last node, so a
//! single flipped bit anywhere — including inside values that pass the
//! structural range checks — fails the load with
//! [`PoolIoError::Format`]. Any other version is rejected, v1 (which
//! carried no trailer) included.
//!
//! [`read_pool`] decodes straight from the caller's slice (the store
//! already holds each entry in one buffer), in three passes:
//!
//! 1. walk the header and every piece's length field against the slice
//!    with checked arithmetic, so a truncated, overlong or corrupt input
//!    is rejected before anything is allocated;
//! 2. one CRC-32 over the payload (the carry-less-multiply kernel of
//!    [`oipa_graph::checksum`] where the CPU has it);
//! 3. bulk conversion of each array into an exactly sized `Vec`, then the
//!    structural checks. The check that every node id is below `n` also
//!    counts each node's occurrences, and the inverted index is laid out
//!    from those counts, so the index rebuild does not count again. An
//!    owned input buffer is freed before the indexes are built.

use crate::mrr::MrrPool;
use crate::rr::RrStore;
use oipa_graph::binio::{write_u32, write_u64};
use oipa_graph::checksum::{crc32, Crc32Writer};
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"OIPAMRRP";
/// The only version read or written: v2 appends a CRC-32 trailer.
const VERSION: u32 = 2;

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

/// Writes a pool to a writer. Returns the CRC-32 the v2 trailer records,
/// so callers that index pool files (the store manifest) get the checksum
/// without re-reading what they just wrote.
pub fn write_pool<W: Write>(pool: &MrrPool, writer: W) -> Result<u32, PoolIoError> {
    let mut w = Crc32Writer::new(BufWriter::new(writer));
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, pool.node_count() as u32)?;
    write_u64(&mut w, pool.theta() as u64)?;
    write_u32(&mut w, pool.ell() as u32)?;
    write_u32_bulk(&mut w, pool.roots())?;
    for j in 0..pool.ell() {
        let store = pool.piece_store(j);
        write_u64_bulk(&mut w, store.raw_offsets())?;
        write_u32_bulk(&mut w, store.raw_nodes())?;
    }
    let crc = w.digest();
    // The trailer itself is outside the digest (captured above).
    write_u32(&mut w, crc)?;
    w.flush()?;
    Ok(crc)
}

/// Reads a pool from its encoded bytes, rebuilding inverted indexes.
/// Accepts format v2 only and verifies its CRC-32 trailer; `bytes` must
/// be exactly one pool, trailer included.
///
/// Pass an owned buffer (a `Vec<u8>`) to have it freed once the arrays
/// are decoded, before the indexes are built, so the encoded pool and
/// its indexes are never resident together; a borrowed slice works the
/// same way and stays with the caller.
pub fn read_pool<B: AsRef<[u8]>>(bytes: B) -> Result<MrrPool, PoolIoError> {
    let encoded = bytes.as_ref();
    let layout = Layout::walk(encoded)?;
    let (payload, trailer) = encoded.split_at(encoded.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(PoolIoError::Format(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
             (corrupt pool file)"
        )));
    }
    let n = layout.n;
    let roots = u32s(layout.roots);
    if let Some(&root) = roots.iter().find(|&&root| root as usize >= n) {
        return Err(PoolIoError::Format(format!("root {root} out of range")));
    }
    let pieces: Vec<(Vec<u64>, Vec<u32>)> = layout
        .pieces
        .iter()
        .map(|&(offsets, nodes)| (u64s(offsets), u32s(nodes)))
        .collect();
    drop(bytes);
    let mut stores = Vec::with_capacity(pieces.len());
    for (offsets, nodes) in pieces {
        if offsets[0] != 0 {
            return Err(PoolIoError::Format("offsets do not start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(PoolIoError::Format("offsets not monotone".into()));
        }
        let store = RrStore::indexed_checked(offsets, nodes, n)
            .map_err(|v| PoolIoError::Format(format!("node {v} out of range")))?;
        stores.push(store);
    }
    MrrPool::from_parts(n as u32, roots, stores).map_err(PoolIoError::Format)
}

/// Where each array of an encoded pool lies, found by walking the header
/// and every piece's length field against the buffer before anything is
/// allocated or checksummed.
struct Layout<'a> {
    n: usize,
    roots: &'a [u8],
    /// Per piece: its encoded offsets and nodes.
    pieces: Vec<(&'a [u8], &'a [u8])>,
}

impl<'a> Layout<'a> {
    fn walk(bytes: &'a [u8]) -> Result<Layout<'a>, PoolIoError> {
        let mut rest = bytes;
        if take(&mut rest, 8)? != MAGIC {
            return Err(PoolIoError::Format(
                "bad magic: not an OIPA MRR pool".into(),
            ));
        }
        // The version is checked before the checksum, so an unreadable
        // version reports itself rather than a mismatch.
        let version = take_u32(&mut rest)?;
        if version != VERSION {
            return Err(PoolIoError::Format(format!(
                "unsupported pool version {version} (readable: {VERSION})"
            )));
        }
        let n = take_u32(&mut rest)? as usize;
        let theta = usize::try_from(take_u64(&mut rest)?).map_err(|_| truncated())?;
        let ell = take_u32(&mut rest)? as usize;
        if ell == 0 {
            return Err(PoolIoError::Format(
                "pool must have at least one piece".into(),
            ));
        }
        let roots = take(&mut rest, theta.checked_mul(4).ok_or_else(truncated)?)?;
        let offsets_len = theta
            .checked_add(1)
            .and_then(|len| len.checked_mul(8))
            .ok_or_else(truncated)?;
        // Each piece takes at least its offsets, so a corrupt ℓ cannot
        // reserve more than the buffer could hold.
        let mut pieces = Vec::with_capacity(ell.min(rest.len() / offsets_len));
        for _ in 0..ell {
            let offsets = take(&mut rest, offsets_len)?;
            let total = u64::from_le_bytes(
                offsets[offsets_len - 8..]
                    .try_into()
                    .expect("8-byte offset"),
            );
            let nodes_len = usize::try_from(total)
                .ok()
                .and_then(|total| total.checked_mul(4))
                .ok_or_else(truncated)?;
            pieces.push((offsets, take(&mut rest, nodes_len)?));
        }
        match rest.len() {
            4 => Ok(Layout { n, roots, pieces }),
            0..=3 => Err(truncated()),
            extra => Err(PoolIoError::Format(format!(
                "{} bytes after the checksum trailer",
                extra - 4
            ))),
        }
    }
}

fn truncated() -> PoolIoError {
    PoolIoError::Format("unexpected end of pool (truncated?)".into())
}

/// Splits the next `len` bytes off `rest`.
fn take<'a>(rest: &mut &'a [u8], len: usize) -> Result<&'a [u8], PoolIoError> {
    let (head, tail) = rest.split_at_checked(len).ok_or_else(truncated)?;
    *rest = tail;
    Ok(head)
}

fn take_u32(rest: &mut &[u8]) -> Result<u32, PoolIoError> {
    Ok(u32::from_le_bytes(
        take(rest, 4)?.try_into().expect("4 bytes"),
    ))
}

fn take_u64(rest: &mut &[u8]) -> Result<u64, PoolIoError> {
    Ok(u64::from_le_bytes(
        take(rest, 8)?.try_into().expect("8 bytes"),
    ))
}

fn u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

fn u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Writes a pool to a file, returning the payload CRC-32.
pub fn write_pool_file<P: AsRef<Path>>(pool: &MrrPool, path: P) -> Result<u32, PoolIoError> {
    write_pool(pool, std::fs::File::create(path)?)
}

/// Reads a pool from a file.
pub fn read_pool_file<P: AsRef<Path>>(path: P) -> Result<MrrPool, PoolIoError> {
    read_pool(std::fs::read(path)?)
}

/// 64 KiB staging buffer for bulk value writes: large enough to amortize
/// per-call overhead and to take the CRC kernel's path.
const BULK: usize = 64 * 1024;

fn write_u32_bulk<W: Write>(w: &mut W, vs: &[u32]) -> std::io::Result<()> {
    let mut buf = [0u8; BULK];
    for chunk in vs.chunks(BULK / 4) {
        let bytes = &mut buf[..chunk.len() * 4];
        for (slot, &v) in bytes.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

fn write_u64_bulk<W: Write>(w: &mut W, vs: &[u64]) -> std::io::Result<()> {
    let mut buf = [0u8; BULK];
    for chunk in vs.chunks(BULK / 8) {
        let bytes = &mut buf[..chunk.len() * 8];
        for (slot, &v) in bytes.chunks_exact_mut(8).zip(chunk) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::fig1;

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
        for j in 0..pool.ell() {
            for i in (0..pool.theta()).step_by(617) {
                assert_eq!(back.rr_set(j, i), pool.rr_set(j, i));
            }
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

    /// Only v2 reads: a future version and v1 (no checksum trailer, so
    /// nothing could vouch for its bytes) are both format errors.
    #[test]
    fn future_versions_rejected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 50, 3);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        for version in [99u32, 1] {
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

    /// A v2 file cut at *every* 64-byte boundary of a θ = 500 pool, and
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

    /// A piece whose offsets start past 0 leaves its first nodes outside
    /// every set, yet the index counted them: node 0's postings would end
    /// in a slot the scatter never wrote, naming set 0. A valid checksum
    /// must not get such a pool loaded.
    #[test]
    fn offsets_not_starting_at_zero_are_a_format_error() {
        let (g, table, campaign) = fig1();
        let theta = 50;
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        let first_offset = 28 + 4 * theta;
        buf[first_offset..first_offset + 8].copy_from_slice(&1u64.to_le_bytes());
        let payload = buf.len() - 4;
        let crc = oipa_graph::checksum::crc32(&buf[..payload]);
        buf[payload..].copy_from_slice(&crc.to_le_bytes());
        let err = read_pool(&buf).unwrap_err();
        assert!(matches!(err, PoolIoError::Format(_)), "{err}");
        assert!(err.to_string().contains("start at 0"), "{err}");
    }

    /// The encoding is fixed: these lengths and CRCs are what the
    /// format-v2 writer has always produced for these pools, and any
    /// change to the bytes `write_pool` produces moves them.
    #[test]
    fn write_pool_output_is_pinned() {
        let (g, table, campaign) = fig1();
        for (theta, seed, len, expected) in [
            (300, 5, 11_244, 0x2A4B_5820),
            (5_000, 9, 183_624, 0xF4D9_362C),
        ] {
            let pool = MrrPool::generate(&g, &table, &campaign, theta, seed);
            let mut buf = Vec::new();
            let crc = write_pool(&pool, &mut buf).unwrap();
            assert_eq!(buf.len(), len, "θ {theta}");
            assert_eq!(crc, expected, "θ {theta}: {crc:#010x}");
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
    fn corrupt_node_id_detected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 100, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        // Overwrite a node near the end (before the trailer) with an
        // out-of-range id: the checksum catches it…
        let len = buf.len();
        buf[len - 8..len - 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_pool(&buf[..]), Err(PoolIoError::Format(_))));
        // …and with the trailer recomputed over it, the range check does.
        let crc = oipa_graph::checksum::crc32(&buf[..len - 4]);
        buf[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = read_pool(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
