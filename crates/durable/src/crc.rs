//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`): one checksum, two
//! implementations.
//!
//! The durable store frames every record and every manifest with this
//! checksum, so corruption inside the acknowledged region is *detected*
//! (a hard error) rather than silently restored, while garbage past the
//! committed frontier is *recognized* as a torn tail and truncated. The
//! workspace builds with no external dependencies, hence the local
//! implementation; the constants match every other IEEE CRC-32 in the
//! wild, so segments are checkable with standard tools.
//!
//! [`Crc32::update`] walks its input in 16-byte blocks. On x86-64 CPUs
//! with carry-less multiply (PCLMULQDQ, detected at run time), an input
//! of at least four blocks goes through a folding kernel: four 128-bit
//! lanes absorb 64 bytes per step, fold down to one lane and are reduced
//! to 32 bits by Barrett reduction (Gopal et al., *Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction*, Intel 2009). The
//! kernel's constants are powers of `x` reduced modulo the polynomial,
//! computed at compile time by `pclmul::divide_xpow`. Everywhere else (shorter
//! inputs, other CPUs and architectures) the blocks go through
//! slice-by-16: sixteen 256-entry tables, 16 bytes per step. The final
//! 0..16 bytes go through the bytewise table. Both paths compute exactly
//! the IEEE values of the bytewise algorithm, which the tests keep as an
//! oracle for each path separately.
//!
//! [`Crc32`] is the incremental form: checksumming `a` then `b` equals
//! checksumming `a ++ b`, so a frame's length prefix and payload are
//! covered in place without first being copied into one buffer.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

/// The generator polynomial, bit-reflected: bit `31 - i` holds the
/// coefficient of `x^i`, and the `x^32` term is implied.
const POLY: u32 = 0xEDB8_8320;

/// Sixteen lookup tables, built once on first use (16 KiB). `tables[0]`
/// is the classic bytewise table; `tables[k][i]` is the CRC state after
/// feeding byte `i` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let byte: [u32; 256] = std::array::from_fn(|i| {
            (0..8).fold(i as u32, |crc, _| (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg()))
        });
        let mut tables = Box::new([[0u32; 256]; 16]);
        let mut next = byte;
        for table in tables.iter_mut() {
            *table = next;
            next = next.map(|crc| (crc >> 8) ^ lookup(&byte, crc as u8));
        }
        tables
    })
}

/// Entry `i` of a 256-entry table: a `u8` index is always in bounds.
#[inline(always)]
fn lookup(table: &[u32; 256], i: u8) -> u32 {
    table.get(usize::from(i)).copied().unwrap_or_default()
}

/// Feeds whole 16-byte blocks through the slice-by-16 tables.
fn slice_by_16(crc: u32, blocks: &[[u8; 16]]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = tables();
    blocks.iter().fold(crc, |crc, block| {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        let [h0, h1, h2, h3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        lookup(t15, h0)
            ^ lookup(t14, h1)
            ^ lookup(t13, h2)
            ^ lookup(t12, h3)
            ^ lookup(t11, b4)
            ^ lookup(t10, b5)
            ^ lookup(t9, b6)
            ^ lookup(t8, b7)
            ^ lookup(t7, b8)
            ^ lookup(t6, b9)
            ^ lookup(t5, b10)
            ^ lookup(t4, b11)
            ^ lookup(t3, b12)
            ^ lookup(t2, b13)
            ^ lookup(t1, b14)
            ^ lookup(t0, b15)
    })
}

/// Feeds bytes one at a time through the bytewise table.
fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
    let [t0, ..] = tables();
    bytes.iter().fold(crc, |crc, &byte| (crc >> 8) ^ lookup(t0, crc as u8 ^ byte))
}

/// Feeds whole 16-byte blocks through the carry-less-multiply kernel, or
/// returns `None` if there are fewer than four blocks or the CPU lacks
/// PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
fn clmul(crc: u32, blocks: &[[u8; 16]]) -> Option<u32> {
    let (first, rest) = blocks.split_first_chunk::<4>()?;
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    #[allow(unsafe_code)]
    // SAFETY: `fold` is a safe function whose only requirement is the
    // `pclmulqdq` target feature (SSE2 is part of the x86-64 baseline);
    // `is_x86_feature_detected!` just confirmed this CPU has it.
    Some(unsafe { pclmul::fold(crc, first, rest) })
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul(_: u32, _: &[[u8; 16]]) -> Option<u32> {
    None
}

#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::POLY;

    /// Divides `x^n` by the generator polynomial `P`, one bit at a time in
    /// the reflected domain the CRC register uses. Returns `x^n mod P`
    /// reflected (bit 31 holds `x^0`) and the low 64 coefficients of the
    /// quotient `⌊x^n / P⌋` in normal order (bit `k` holds `x^k`).
    const fn divide_xpow(n: u32) -> (u32, u64) {
        let (mut rem, mut quotient) = (1u32 << 31, 0u64);
        let mut i = 0;
        while i < n {
            // Multiplying by x carries the x^31 coefficient into x^32, where
            // subtracting P clears it and adds a quotient term.
            let carry = rem & 1;
            rem = (rem >> 1) ^ (POLY & carry.wrapping_neg());
            quotient = (quotient << 1) | carry as u64;
            i += 1;
        }
        (rem, quotient)
    }

    /// The folding multiplier for a distance of `n` bits: `x^n mod P`,
    /// reflected and shifted left once, since a carry-less product of two
    /// reflected operands comes out one bit short.
    const fn fold_key(n: u32) -> i64 {
        (divide_xpow(n).0 as i64) << 1
    }

    /// Folds a lane 4 × 128 bits forward: `x^(512 + 32)` and `x^(512 - 32)`.
    const K1: i64 = fold_key(4 * 128 + 32);
    const K2: i64 = fold_key(4 * 128 - 32);
    /// Folds a lane 128 bits forward: `x^(128 + 32)` and `x^(128 - 32)`.
    const K3: i64 = fold_key(128 + 32);
    const K4: i64 = fold_key(128 - 32);
    /// Reduces 96 bits to 64: `x^64`.
    const K5: i64 = fold_key(64);
    /// `P` itself over its 33 bits, reflected: the Barrett reduction's modulus.
    const P_PRIME: i64 = ((POLY as i64) << 1) | 1;
    /// `μ = ⌊x^64 / P⌋` over its 33 bits, reflected: the Barrett reduction's
    /// reciprocal.
    const MU_PRIME: i64 = (divide_xpow(64).1.reverse_bits() >> 31) as i64;

    /// One block as a 128-bit lane, byte 0 lowest.
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Multiplies `lane` forward by the distance `keys` encodes (low half
    /// for its low 64 bits, high half for its high 64 bits) and adds
    /// `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The CRC register after feeding `first` and then `rest` to `crc`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, first: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
        let [a, b, c, d] = first;
        // The register enters as the first 32 bits of the message.
        let mut x3 = _mm_xor_si128(load(a), _mm_cvtsi32_si128(crc as i32));
        let (mut x2, mut x1, mut x0) = (load(b), load(c), load(d));

        // Four lanes, 64 bytes per step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for [a, b, c, d] in quads {
            x3 = fold_into(x3, load(a), k1k2);
            x2 = fold_into(x2, load(b), k1k2);
            x1 = fold_into(x1, load(c), k1k2);
            x0 = fold_into(x0, load(d), k1k2);
        }

        // Fold the four lanes into one, then take the last 0..4 blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        for block in singles {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 bits to 96, then 96 to 64.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 bits to 32: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the remainder is the upper half of
        // R + T2 (the reflected variant).
        let pmu = _mm_set_epi64x(MU_PRIME, P_PRIME);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fold_constants_are_the_powers_they_name() {
            // The same powers, computed independently: normal (unreflected)
            // bit order, where multiplying by x is a left shift and P is
            // 0x1_04C1_1DB7.
            const P: u64 = 0x1_04C1_1DB7;
            let xpow_mod =
                |n: u32| (0..n).fold(1u32, |r, _| (r << 1) ^ (P as u32 & (r >> 31).wrapping_neg()));
            let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
            for (name, key, n) in [
                ("K1", K1, 4 * 128 + 32),
                ("K2", K2, 4 * 128 - 32),
                ("K3", K3, 128 + 32),
                ("K4", K4, 128 - 32),
                ("K5", K5, 64),
            ] {
                assert_eq!(key, (xpow_mod(n).reverse_bits() as i64) << 1, "{name} = x^{n} mod P");
            }
            assert_eq!(P_PRIME, reflect33(P));
            // ⌊x^64 / P⌋ by long division.
            let (mut rem, mut mu) = (1u128 << 64, 0u64);
            for degree in (32..=64).rev() {
                if rem >> degree & 1 != 0 {
                    rem ^= u128::from(P) << (degree - 32);
                    mu |= 1 << (degree - 32);
                }
            }
            assert_eq!(MU_PRIME, reflect33(mu));
        }
    }
}

/// An incremental IEEE CRC-32: feed bytes with [`Crc32::update`] in any
/// number of pieces, then read the checksum with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let crc = clmul(self.state, blocks).unwrap_or_else(|| slice_by_16(self.state, blocks));
        self.state = bytewise(crc, tail);
    }

    /// The checksum of every byte fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    /// The bytewise reference algorithm, straight from the definition:
    /// the oracle both block paths must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Deterministic, non-repeating test bytes.
    fn sample(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// One way to feed whole blocks into the register.
    type Path = fn(u32, &[[u8; 16]]) -> u32;

    /// The kernel where [`Crc32::update`] would take it (four blocks or
    /// more), slice-by-16 below that.
    fn kernel(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        match blocks.len() {
            0..4 => slice_by_16(crc, blocks),
            _ => clmul(crc, blocks).expect("the CPU has the kernel's features"),
        }
    }

    /// Both paths, or only slice-by-16 (with a printed note) on a CPU
    /// without the kernel's features.
    fn paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![("slice-by-16", slice_by_16)];
        if clmul(!0, &[[0; 16]; 4]).is_some() {
            paths.push(("clmul", kernel));
        } else {
            println!("note: no PCLMULQDQ on this CPU; the clmul kernel is untested here");
        }
        paths
    }

    /// Feeds `pieces` in order through `path`, as [`Crc32::update`] does.
    fn checksum(path: Path, pieces: &[&[u8]]) -> u32 {
        !pieces.iter().fold(!0, |crc, piece| {
            let (blocks, tail) = piece.as_chunks::<16>();
            bytewise(path(crc, blocks), tail)
        })
    }

    #[test]
    fn known_vectors() {
        // The canonical IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn every_path_matches_the_bytewise_oracle() {
        let data = sample(1024 + 16);
        let paths = paths();
        for start in 0..16 {
            for len in 0..=1024 {
                let slice = &data[start..start + len];
                let want = crc32_bytewise(slice);
                for (name, path) in &paths {
                    assert_eq!(
                        checksum(*path, &[slice]),
                        want,
                        "{name}: length {len} at start offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_path_matches_the_bytewise_oracle_on_megabytes() {
        let data = sample(3 << 20);
        let want = crc32_bytewise(&data);
        for (name, path) in paths() {
            assert_eq!(checksum(path, &[&data]), want, "{name}");
        }
        assert_eq!(crc32(&data), want);
    }

    #[test]
    fn incremental_equals_one_shot_at_every_split() {
        let data = sample(200);
        let whole = crc32_bytewise(&data);
        for (name, path) in paths() {
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                assert_eq!(checksum(path, &[a, b]), whole, "{name}: split at {split}");
            }
        }
    }

    #[test]
    fn frame_shape_length_prefix_then_payload() {
        // A stored frame's checksum: 4 length bytes, then the payload in
        // a second call, which takes the kernel once it spans 4 blocks.
        let data = sample(4 + 300);
        for (name, path) in paths() {
            for payload_len in [64, 65, 79, 80, 127, 128, 129, 300] {
                let frame = &data[..4 + payload_len];
                let (len, payload) = frame.split_at(4);
                assert_eq!(
                    checksum(path, &[len, payload]),
                    crc32_bytewise(frame),
                    "{name}: payload of {payload_len} bytes"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"incremental checkpointing".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
