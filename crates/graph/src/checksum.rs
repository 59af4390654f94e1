//! CRC-32 (IEEE 802.3) for binary file formats.
//!
//! The persistent pool store writes multi-megabyte segment files that must
//! survive partial writes, torn renames and bit rot; every checksummed
//! format in the workspace (pool binio v3, store segments) shares this one
//! implementation. The polynomial is the reflected IEEE polynomial
//! `0xEDB88320`, the same CRC as zlib/gzip.
//!
//! Two paths compute it, and they agree bit for bit from any state:
//!
//! * **The carry-less-multiply kernel** (x86-64 with `pclmulqdq` and
//!   `sse4.1`): four 128-bit accumulators fold 64 bytes per step, are
//!   folded into one, and a Barrett reduction takes the 128-bit remainder
//!   down to the 32-bit CRC (Gopal et al., *Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ*, Intel, 2009). A disk-tier hit
//!   checksums a whole pool entry, and this path does that several times
//!   faster than the tables.
//! * **The slicing-by-8 table path** (eight lazily built 256-entry tables,
//!   8 bytes per step): the portable path, the path for short inputs, for
//!   the kernel's sub-16-byte tail, and the reference the kernel is tested
//!   against.
//!
//! [`Crc32::update`] chooses per call: inputs of at least 128 bytes take
//! the kernel when the running CPU reports both features
//! (`is_x86_feature_detected!`, cached by the standard library),
//! everything else takes the tables. There is no build flag or option;
//! the kernel resumes from the accumulator's state, so chunked and
//! one-shot checksums of the same bytes are equal.

use std::io::Write;
use std::sync::OnceLock;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `t[0]` is the classic byte table; `t[k][i]`
/// advances a byte through `k` further zero bytes, letting one step fold
/// eight input bytes into the state at once.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// An incremental CRC-32 accumulator.
///
/// ```
/// use oipa_graph::checksum::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::detected() {
            // SAFETY: `detected` just confirmed that this CPU has every
            // feature the kernel is compiled for.
            self.state = unsafe { clmul::update(self.state, bytes) };
            return;
        }
        self.state = update_table(self.state, bytes);
    }

    /// The checksum of everything fed so far (the accumulator stays
    /// usable; further updates continue the stream).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The slicing-by-8 path: advances the CRC register `state` (the
/// accumulator's inverted form) over `bytes`.
fn update_table(state: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().expect("4-byte half"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4-byte half"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel (see the module docs).
///
/// Every constant is a power of `x` reduced modulo the bit-reflected
/// polynomial, shifted left by one bit for the reflected product:
/// `K1`/`K2` fold an accumulator 512 bits forward (`x^(4·128+32)`,
/// `x^(4·128-32)`), `K3`/`K4` fold it 128 bits forward, `K5` takes 96
/// bits to 64, and `P_X`/`U_PRIME` are the polynomial and its Barrett
/// quotient `⌊x^64 / P(x)⌋`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shorter inputs take the table path: below two fold-by-4 steps the
    /// kernel's set-up and reduction cost more than they save.
    pub(super) const MIN_LEN: usize = 128;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// One unaligned 16-byte load.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Advances the CRC register `state` over `bytes`, exactly as
    /// `update_table` does.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` (see [`detected`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        let (wide, narrow) = blocks.split_at(blocks.len() & !63);
        let Some((first, rest)) = wide.split_first_chunk::<64>() else {
            return super::update_table(state, bytes);
        };
        // `acc·x^n ⊕ next`, n set by the key pair; the 128-bit product
        // is split across the two 64-bit halves of `acc`.
        let fold = |acc: __m128i, next: __m128i, keys: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(next, _mm_clmulepi64_si128(acc, keys, 0x00)),
                _mm_clmulepi64_si128(acc, keys, 0x11),
            )
        };

        // Four accumulators, 64 bytes per step; the register enters as
        // the first block's low 32 bits.
        let mut x = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for group in rest.chunks_exact(64) {
            for (acc, block) in x.iter_mut().zip(group.chunks_exact(16)) {
                *acc = fold(*acc, load(block), k1k2);
            }
        }

        // Fold into one accumulator, then take the remaining whole
        // blocks one at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for block in narrow.chunks_exact(16) {
            acc = fold(acc, load(block), k3k4);
        }

        // 128 bits → 96 → 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction, 64 bits → 32 (the bit-reflected variant, so
        // the CRC is the upper half of the low 64 bits).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;

        super::update_table(c, tail)
    }
}

/// A [`Write`] adapter that checksums every byte written through it.
pub struct Crc32Writer<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Crc32Writer<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        Crc32Writer {
            inner,
            crc: Crc32::new(),
        }
    }

    /// The checksum of everything written so far.
    pub fn digest(&self) -> u32 {
        self.crc.finish()
    }

    /// The wrapped writer, for appending trailing bytes (e.g. the stored
    /// checksum itself) without feeding them into the digest.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough for the kernel; values from zlib's `crc32`.
        assert_eq!(crc32("123456789".repeat(16).as_bytes()), 0x045D_0030);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        assert_eq!(crc32(&ramp), 0xB70B_4C26);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(7) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(crc32(&data), clean, "flip at {i} undetected");
            data[i] ^= 1;
        }
    }

    #[test]
    fn writer_adapter_digests_what_it_writes() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut sink = Vec::new();
        let mut w = Crc32Writer::new(&mut sink);
        w.write_all(&data).unwrap();
        assert_eq!(w.digest(), crc32(&data));
        assert_eq!(sink, data);
    }

    /// Deterministic bytes that are not periodic over any short stride.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    fn table_crc(bytes: &[u8]) -> u32 {
        !update_table(!0, bytes)
    }

    /// Every length up to 1 KiB at every start alignment: the dispatching
    /// `update` (the kernel from 128 bytes on) equals the table path.
    #[test]
    fn fast_path_equals_table_path_for_every_length_and_alignment() {
        let data = noise(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), table_crc(bytes), "start {start}, len {len}");
            }
        }
    }

    /// The kernel resumes from any state: two updates equal one pass at
    /// every split of a 4 KiB buffer.
    #[test]
    fn split_updates_match_one_shot_at_every_split() {
        let data = noise(4096);
        let whole = crc32(&data);
        assert_eq!(whole, table_crc(&data));
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    /// A multi-megabyte buffer, the size of a pool entry, through the
    /// kernel itself (when this CPU has it) and through `crc32`.
    #[test]
    fn large_buffer_matches_table_path() {
        let data = noise((1 << 20) + 13);
        let expected = table_crc(&data);
        assert_eq!(crc32(&data), expected);
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            // SAFETY: `detected` confirmed the kernel's CPU features.
            let kernel = !unsafe { clmul::update(!0, &data) };
            assert_eq!(kernel, expected);
        }
    }
}
