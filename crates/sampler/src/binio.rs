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
//! The inverted index is rebuilt on load (linear, faster than reading it).

use crate::mrr::MrrPool;
use crate::rr::RrStore;
use oipa_graph::binio::{read_u32, read_u64, write_u32, write_u64};
use oipa_graph::checksum::{Crc32Reader, Crc32Writer};
use std::io::{BufReader, BufWriter, Read, Write};
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
    /// mismatch / truncated stream.
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
        // A stream that ends mid-value is a malformed file, not an
        // environment failure: truncated pools must surface as `Format`
        // so callers (the store's quarantine path, the CLI) treat them
        // like any other corruption.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PoolIoError::Format("unexpected end of file (truncated pool?)".into())
        } else {
            PoolIoError::Io(e)
        }
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

/// Reads a pool from a reader, rebuilding inverted indexes. Accepts
/// format v2 only and verifies its CRC-32 trailer.
pub fn read_pool<R: Read>(reader: R) -> Result<MrrPool, PoolIoError> {
    let mut r = Crc32Reader::new(BufReader::with_capacity(1 << 16, reader));
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PoolIoError::Format(
            "bad magic: not an OIPA MRR pool".into(),
        ));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(PoolIoError::Format(format!(
            "unsupported pool version {version} (readable: {VERSION})"
        )));
    }
    let n = read_u32(&mut r)? as usize;
    let theta = read_u64(&mut r)? as usize;
    let ell = read_u32(&mut r)? as usize;
    if ell == 0 {
        return Err(PoolIoError::Format(
            "pool must have at least one piece".into(),
        ));
    }
    let roots = read_u32_bulk(&mut r, theta)?;
    if let Some(&root) = roots.iter().find(|&&root| root as usize >= n) {
        return Err(PoolIoError::Format(format!("root {root} out of range")));
    }
    let mut stores = Vec::with_capacity(ell.min(1 << 16));
    for _ in 0..ell {
        let offsets = read_u64_bulk(&mut r, theta + 1)?;
        let total = *offsets.last().expect("non-empty offsets") as usize;
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(PoolIoError::Format("offsets not monotone".into()));
        }
        let nodes = read_u32_bulk(&mut r, total)?;
        if let Some(&v) = nodes.iter().find(|&&v| v as usize >= n) {
            return Err(PoolIoError::Format(format!("node {v} out of range")));
        }
        let mut store = RrStore::from_raw(offsets, nodes);
        store.build_index(n);
        stores.push(store);
    }
    // Capture the payload digest before touching the trailer, then read
    // the stored checksum through the inner reader (unhashed).
    let computed = r.digest();
    let stored = read_u32(r.get_mut())?;
    if stored != computed {
        return Err(PoolIoError::Format(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
             (corrupt pool file)"
        )));
    }
    MrrPool::from_parts(n as u32, roots, stores).map_err(PoolIoError::Format)
}

/// Writes a pool to a file, returning the payload CRC-32.
pub fn write_pool_file<P: AsRef<Path>>(pool: &MrrPool, path: P) -> Result<u32, PoolIoError> {
    write_pool(pool, std::fs::File::create(path)?)
}

/// Reads a pool from a file.
pub fn read_pool_file<P: AsRef<Path>>(path: P) -> Result<MrrPool, PoolIoError> {
    read_pool(std::fs::File::open(path)?)
}

/// 64 KiB staging buffer for bulk value IO: large enough to amortize
/// per-call overhead, small enough that corrupt length fields cannot
/// trigger huge allocations before the stream runs dry.
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

fn read_u32_bulk<R: Read>(r: &mut R, count: usize) -> Result<Vec<u32>, PoolIoError> {
    let mut out = Vec::with_capacity(count.min(1 << 26));
    let mut buf = [0u8; BULK];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(BULK / 4);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        remaining -= take;
    }
    Ok(out)
}

fn read_u64_bulk<R: Read>(r: &mut R, count: usize) -> Result<Vec<u64>, PoolIoError> {
    let mut out = Vec::with_capacity(count.min(1 << 25));
    let mut buf = [0u8; BULK];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(BULK / 8);
        let bytes = &mut buf[..take * 8];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        remaining -= take;
    }
    Ok(out)
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

    /// A v2 file cut at *every* 64-byte boundary must fail with a
    /// `Format` error — never a panic, an `Io` error, or a silently short
    /// pool (the satellite contract of the persistent-store PR).
    #[test]
    fn truncation_at_every_64_byte_boundary_is_a_format_error() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 500, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        for cut in (0..buf.len()).step_by(64) {
            match read_pool(&buf[..cut]) {
                Err(PoolIoError::Format(_)) => {}
                Err(PoolIoError::Io(e)) => panic!("cut at {cut}: Io instead of Format: {e}"),
                Ok(_) => panic!("cut at {cut}: silently loaded a truncated pool"),
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
    fn corrupt_node_id_detected() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 100, 9);
        let mut buf = Vec::new();
        write_pool(&pool, &mut buf).unwrap();
        // Overwrite a node near the end (before the trailer) with an
        // out-of-range id: the structural check fires before the checksum.
        let len = buf.len();
        buf[len - 8..len - 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_pool(&buf[..]), Err(PoolIoError::Format(_))));
    }
}
