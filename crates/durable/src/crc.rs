//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slice-by-16.
//!
//! The durable store frames every record and every manifest with this
//! checksum, so corruption inside the acknowledged region is *detected*
//! (a hard error) rather than silently restored, while garbage past the
//! committed frontier is *recognized* as a torn tail and truncated. The
//! workspace builds with no external dependencies, hence the local
//! implementation; the constants match every other IEEE CRC-32 in the
//! wild, so segments are checkable with standard tools.
//!
//! The loop consumes 16 bytes per step through sixteen 256-entry tables
//! (slice-by-16) instead of one byte per step through one table. It is
//! portable safe Rust and computes exactly the IEEE values of the
//! bytewise algorithm, which its tests keep as an oracle. [`Crc32`] is
//! the incremental form: checksumming `a` then `b` equals checksumming
//! `a ++ b`, so a frame's length prefix and payload are covered in place
//! without first being copied into one buffer.

/// Sixteen lookup tables, built once on first use (16 KiB). `TABLES[0]`
/// is the classic bytewise table; `TABLES[k][i]` is the CRC state after
/// feeding byte `i` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Box::new([[0u32; 256]; 16]);
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
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
        let t = tables();
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
            let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(head & 0xFF) as usize]
                ^ t[14][((head >> 8) & 0xFF) as usize]
                ^ t[13][((head >> 16) & 0xFF) as usize]
                ^ t[12][(head >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &byte in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
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
mod tests {
    use super::*;

    /// The bytewise reference algorithm, straight from the definition:
    /// the oracle the table-driven loop must match bit for bit.
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

    #[test]
    fn known_vectors() {
        // The canonical IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slice_by_16_matches_the_bytewise_oracle() {
        let data = sample(300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "length {len} at start offset {start}"
                );
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot_at_every_split() {
        let data = sample(97);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
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
