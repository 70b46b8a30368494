//! CRC-32 (IEEE 802.3): the checksum on every spool frame, ship message,
//! analysis-cache key and served ETag.
//!
//! Two kernels compute the same reflected CRC-32 (polynomial
//! `0xEDB88320`), and every [`Crc32::update`] picks one:
//!
//! * **Carry-less-multiply folding** (Gopal et al., *Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ Instruction*, Intel 2009),
//!   for an update of at least 64 bytes on an x86-64 CPU with PCLMULQDQ
//!   and SSE4.1. Four 128-bit lanes fold 64 bytes per step, one lane
//!   folds the remaining 16-byte blocks, and a Barrett reduction leaves
//!   the 32-bit register.
//! * **Slicing-by-16** (Kounavis & Berry, ISCC 2005) for everything else:
//!   frame headers, the last bytes after a fold, CPUs without those
//!   instructions and every other target. Sixteen 256-entry tables, built
//!   at compile time, advance the register 16 bytes per step.
//!
//! The choice depends only on the CPU and the length of the update, and
//! both kernels give the same bits, so checksums agree across hosts. The
//! tests check each kernel against a bit-at-a-time reference.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Updates at least this long take the folding kernel: it starts from
/// four 16-byte lanes.
const FOLD_MIN_LEN: usize = 64;

/// The buffer [`Crc32::update_from`] reads through.
const READ_CHUNK: usize = 64 * 1024;

/// `TABLES[0][b]` advances the register over byte `b`; `TABLES[k][b]`
/// over byte `b` followed by `k` zero bytes. Sixteen lookups thus advance
/// it over 16 bytes.
static TABLES: [[u32; 256]; 16] = slicing_tables();

const fn slicing_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A running CRC-32: feed it slices in order with [`Crc32::update`], then
/// read the checksum with [`Crc32::finish`]. However the input is split
/// across updates, the checksum is the same.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any byte.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed the next `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = folded(self.0, bytes).unwrap_or_else(|| slice16(self.0, bytes));
    }

    /// Feed every byte `reader` yields, through one buffer of
    /// `READ_CHUNK` (64 KiB); returns how many bytes that was.
    pub fn update_from(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<u64> {
        let mut buf = vec![0u8; READ_CHUNK];
        let mut fed = 0u64;
        loop {
            match reader.read(&mut buf) {
                Ok(0) => return Ok(fed),
                Ok(n) => {
                    self.update(&buf[..n]);
                    fed += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The CRC-32 of every byte fed so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32 (IEEE 802.3) of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The portable kernel: advance the register `crc` over `bytes`, 16 bytes
/// per step, then byte by byte over the last `bytes.len() % 16`.
fn slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let (blocks, rest) = bytes.as_chunks::<16>();
    for block in blocks {
        let mut x = *block;
        for (b, c) in x.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        // Byte `i` of the block has `15 - i` bytes after it.
        crc = x
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in rest {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The folding kernel's register after `bytes`, or `None` when the update
/// is too short for it or the CPU lacks the instructions it needs.
#[cfg(target_arch = "x86_64")]
fn folded(crc: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < FOLD_MIN_LEN
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `fold` enables exactly `pclmulqdq` and `sse4.1`, and both
    // were detected on this CPU just above.
    Some(unsafe { fold(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn folded(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// Advance the register `crc` over `bytes` (at least [`FOLD_MIN_LEN`]
/// long) by carry-less multiplication, in the bit-reflected domain of
/// Gopal et al. Each fold constant is `x^n mod P(x)` for the distance `n`
/// in bits it moves a lane, reflected and shifted left by one.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    /// Four lanes forward: `x^(4*128+32)` and `x^(4*128-32)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// One lane forward: `x^(128+32)` and `x^(128-32)`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 bits down to 32: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: `P(x)` and `floor(x^64 / P(x))`, reflected.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// `acc` carried 128 bits (or the distance `k` encodes) forward onto
    /// `next`: multiply each half of `acc` by its constant, xor both.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    // SAFETY: a `[u8; 16]` is 16 readable bytes, and `loadu` takes any
    // alignment.
    let load = |block: &[u8; 16]| unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
    let (blocks, rest) = bytes.as_chunks::<16>();
    let (first, blocks) = blocks
        .split_first_chunk::<4>()
        .expect("`folded` passes at least 64 bytes");
    let mut lanes = first.map(|block| load(&block));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

    let (quads, singles) = blocks.as_chunks::<4>();
    let k1k2 = _mm_set_epi64x(K2, K1);
    for quad in quads {
        for (lane, block) in lanes.iter_mut().zip(quad) {
            *lane = fold16(*lane, load(block), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold16(lanes[0], lanes[1], k3k4);
    acc = fold16(acc, lanes[2], k3k4);
    acc = fold16(acc, lanes[3], k3k4);
    for block in singles {
        acc = fold16(acc, load(block), k3k4);
    }

    // Fold 128 bits down to 96, then to 64.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    acc = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, k3k4, 0x10),
        _mm_srli_si128(acc, 8),
    );
    acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(acc, 4),
    );
    // Barrett reduction: the remainder is the upper 32 bits of the low
    // 64 in the reflected domain.
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
    slice16(crc, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference CRC-32 register update: eight shift/xor steps per
    /// byte and no table, so it shares nothing with either kernel.
    fn bitwise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ 0xEDB8_8320
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    /// `len` pseudo-random bytes from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = crate::ship::Rng::new(seed);
        (0..len).map(|_| (rng.next() >> 56) as u8).collect()
    }

    /// Check every route to the CRC of `len` bytes read `offset` bytes
    /// into a larger buffer, with the running state split after
    /// `split % (len + 1)` bytes.
    fn check(seed: u64, offset: usize, len: usize, split: usize) -> Result<(), String> {
        let buf = noise(seed, offset + len);
        let data = &buf[offset..];
        let (head, tail) = data.split_at(split % (len + 1));
        let want = bitwise(0xFFFF_FFFF, data);
        prop_assert_eq!(crc32(data), !want);
        prop_assert_eq!(slice16(0xFFFF_FFFF, data), want);
        prop_assert_eq!(slice16(bitwise(0xFFFF_FFFF, head), tail), want);
        if let Some(got) = folded(0xFFFF_FFFF, data) {
            prop_assert_eq!(got, want);
        }
        // A running state into the fold, as an update after a header has.
        if let Some(got) = folded(bitwise(0xFFFF_FFFF, head), tail) {
            prop_assert_eq!(got, want);
        }
        let mut running = Crc32::new();
        running.update(head);
        running.update(tail);
        prop_assert_eq!(running.finish(), !want);
        Ok(())
    }

    #[test]
    fn reference_matches_the_check_value() {
        assert_eq!(!bitwise(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_kernel_matches_the_bitwise_reference(
            len in 0usize..1101,
            offset in 0usize..16,
            split in 0usize..1101,
            seed in 0u64..u64::MAX,
        ) {
            check(seed, offset, len, split)?;
        }
    }

    #[test]
    fn update_from_a_reader_matches_one_update() {
        let data = noise(9, 200_003);
        let mut running = Crc32::new();
        running.update(b"head");
        assert_eq!(running.update_from(&mut data.as_slice()).unwrap(), 200_003);
        let mut whole = Crc32::new();
        whole.update(b"head");
        whole.update(&data);
        assert_eq!(running.finish(), whole.finish());
    }

    #[test]
    fn long_inputs_match_the_bitwise_reference() {
        for (i, len) in [65_536, 65_536 + 15, 200_003].into_iter().enumerate() {
            for (offset, split) in [(0, 0), (3, 64), (7, len / 2 + 1), (15, len)] {
                check(i as u64 + 1, offset, len, split).unwrap();
            }
        }
    }
}
